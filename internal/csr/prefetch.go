package csr

import (
	"multilogvc/internal/obsv"
	"multilogvc/internal/ssd"
)

// Prefetch planning helpers: these compute which device pages a future
// adjacency or value load for a predicted-active vertex set would touch,
// so the engine's prefetcher can warm them while the current batch
// computes. The CSR planners build their page sets with the same page
// plan as loadEdges/readRowEntries (planRowPages, planEdgePages), and
// PagesForVerts mirrors LoadForVerts — a page warmed here is precisely a
// page the demand load would otherwise miss on.

// File returns the device file backing the value array.
func (vv *Values) File() *ssd.File { return vv.f }

// PagesForVerts returns the distinct pages holding the value slots of the
// given vertices (all lanes), which must be sorted ascending.
func (vv *Values) PagesForVerts(verts []uint32) []int {
	ps := vv.dev.PageSize()
	lanes := int64(vv.laneCount())
	var pages []int
	last := -1
	for _, v := range verts {
		if v >= vv.n {
			continue
		}
		bLo := int64(v) * lanes * 4
		bHi := bLo + lanes*4
		for p := int(bLo / int64(ps)); p <= int((bHi-1)/int64(ps)); p++ {
			if p != last {
				pages = append(pages, p)
				last = p
			}
		}
	}
	return pages
}

// OutRowPages returns interval iv's out-CSR row-pointer file and the
// pages covering the row entries of verts, which must ascend (otherwise it
// plans nothing); vertices outside the interval are skipped. Pure
// arithmetic — no IO — so it is safe to call from the engine's main loop
// when planning prefetch.
func (g *Graph) OutRowPages(iv int, verts []uint32) (*ssd.File, []int) {
	if len(verts) == 0 {
		return nil, nil
	}
	plan, err := planRowPages(g.dev.PageSize(), g.meta.Intervals[iv], verts)
	if err != nil {
		return nil, nil
	}
	return g.outRow[iv], plan.pages
}

// OutColPages reads the row entries of verts (a cache hit when the
// row-pointer pages were warmed first) and returns the column-index file
// and the pages holding those vertices' edges. This is the second stage
// of the two-stage CSR prefetch: rowptr pages first, then the colidx
// pages they point at. Runs on the prefetch worker.
func (g *Graph) OutColPages(iv int, verts []uint32) (*ssd.File, []int, error) {
	if len(verts) == 0 {
		return nil, nil, nil
	}
	interval := g.meta.Intervals[iv]
	inRange := verts[:0:0]
	for _, v := range verts {
		if interval.Contains(v) {
			inRange = append(inRange, v)
		}
	}
	if len(inRange) == 0 {
		return nil, nil, nil
	}
	// Runs on the prefetch worker, concurrent with the engine's tagged
	// phase — charge the row-entry reads to the prefetch stage explicitly.
	rowF := g.outRow[iv]
	rows, _, err := g.readRowEntriesWith(rowF, interval, inRange,
		func(pages []int, dst []byte) error {
			return rowF.ReadPagesTagged(pages, dst, obsv.StagePrefetch)
		})
	if err != nil {
		return nil, nil, err
	}
	plan, err := planEdgePages(g.dev.PageSize(), rows)
	if err != nil {
		return nil, nil, err
	}
	return g.outCol[iv], plan.pages, nil
}
