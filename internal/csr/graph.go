package csr

import (
	"encoding/binary"
	"fmt"

	"multilogvc/internal/ssd"
)

// Graph is an opened interval-partitioned CSR graph. It serves adjacency
// for sets of active vertices, reading only covering pages (the paper's
// graph loader unit), and reports per-page utilization.
type Graph struct {
	dev  *ssd.Device
	meta *Meta
	idx  *IntervalIndex

	outRow, outCol []*ssd.File
	inRow, inCol   []*ssd.File
	outVal, inVal  []*ssd.File // nil entries when the graph is unweighted

	// ing holds the shared mutable ingest plane (delta overlay, epochs,
	// WAL). Graph values are copied by View and Snapshot, so it sits
	// behind a pointer; atEpoch/pinned make a copy a frozen view.
	ing     *ingestState
	atEpoch uint64 // epoch a pinned view reads at
	pinned  bool
}

// Open opens a graph previously written with Build, first completing any
// merge a crash interrupted (see recoverIngest) so every open observes
// crash-consistent CSR files.
func Open(dev *ssd.Device, name string) (*Graph, error) {
	if err := recoverIngest(dev, name); err != nil {
		return nil, fmt.Errorf("csr: recover interrupted merge of %q: %w", name, err)
	}
	meta, err := readMeta(dev, name)
	if err != nil {
		return nil, err
	}
	g := &Graph{
		dev:  dev,
		meta: meta,
		idx:  NewIntervalIndex(meta.Intervals, meta.NumVertices),
		ing:  newIngestState(),
	}
	// Sequence numbers are identity across restarts (and across replicas):
	// the merged prefix 1..FoldedSeq lives in the CSR files, so the epoch
	// starts there and new mutations continue the numbering, never reuse it.
	g.ing.epoch.Store(meta.FoldedSeq)
	g.ing.nextSeq = meta.FoldedSeq
	for i := range meta.Intervals {
		rf, err := dev.OpenFile(outRowPtrName(name, i))
		if err != nil {
			return nil, err
		}
		rf.SetSize(meta.OutRowPtrSize[i])
		cf, err := dev.OpenFile(outColIdxName(name, i))
		if err != nil {
			return nil, err
		}
		cf.SetSize(meta.OutColIdxSize[i])
		irf, err := dev.OpenFile(inRowPtrName(name, i))
		if err != nil {
			return nil, err
		}
		irf.SetSize(meta.InRowPtrSize[i])
		icf, err := dev.OpenFile(inColIdxName(name, i))
		if err != nil {
			return nil, err
		}
		icf.SetSize(meta.InColIdxSize[i])
		g.outRow = append(g.outRow, rf)
		g.outCol = append(g.outCol, cf)
		g.inRow = append(g.inRow, irf)
		g.inCol = append(g.inCol, icf)
		if meta.HasWeights {
			ovf, err := dev.OpenFile(outValName(name, i))
			if err != nil {
				return nil, err
			}
			ovf.SetSize(meta.OutValSize[i])
			ivf, err := dev.OpenFile(inValName(name, i))
			if err != nil {
				return nil, err
			}
			ivf.SetSize(meta.InValSize[i])
			g.outVal = append(g.outVal, ovf)
			g.inVal = append(g.inVal, ivf)
		}
	}
	return g, nil
}

// HasWeights reports whether the graph stores per-edge weights.
func (g *Graph) HasWeights() bool { return g.meta.HasWeights }

// Name returns the graph's device name.
func (g *Graph) Name() string { return g.meta.Name }

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() uint32 { return g.meta.NumVertices }

// NumEdges returns the current directed edge count of the CSR files
// (delta merges update it; buffered deltas are not counted).
func (g *Graph) NumEdges() uint64 {
	if g.ing != nil {
		g.ing.mu.RLock()
		defer g.ing.mu.RUnlock()
	}
	return g.meta.NumEdges
}

// MaxOutDegree returns the largest out-degree at build time.
func (g *Graph) MaxOutDegree() uint32 {
	if g.ing != nil {
		g.ing.mu.RLock()
		defer g.ing.mu.RUnlock()
	}
	return g.meta.MaxOutDegree
}

// Intervals returns the vertex intervals. Callers must not mutate.
func (g *Graph) Intervals() []Interval { return g.meta.Intervals }

// IntervalOf returns the index of the interval containing v.
func (g *Graph) IntervalOf(v uint32) int { return g.idx.Of(v) }

// Device returns the underlying device.
func (g *Graph) Device() *ssd.Device { return g.dev }

// PageKey identifies a column-index page for utilization tracking across
// supersteps. Side 0 = out-CSR, 1 = in-CSR.
type PageKey struct {
	Side     uint8
	Interval int32
	Page     int32
}

// PageUtil reports how many bytes of a fetched column-index page were
// needed by the request that fetched it.
type PageUtil struct {
	Key       PageKey
	UsedBytes int32
}

// LoadStats accounts one adjacency load.
type LoadStats struct {
	RowPtrPages int
	ColIdxPages int
	ValPages    int // weight (val vector) pages, weighted graphs only
	PageUtils   []PageUtil
}

// Add accumulates other into s.
func (s *LoadStats) Add(other LoadStats) {
	s.RowPtrPages += other.RowPtrPages
	s.ColIdxPages += other.ColIdxPages
	s.ValPages += other.ValPages
	s.PageUtils = append(s.PageUtils, other.PageUtils...)
}

// EdgeVisitor receives one vertex's neighbor list. Each load decodes its
// lists into one arena of its own, so nbrs stays valid after the call and
// until the caller drops it; callers keep it without copying.
type EdgeVisitor func(v uint32, nbrs []uint32)

// EdgeVisitorEx additionally receives the column-index page range
// [firstPage, lastPage] the vertex's edges live on, so callers (the
// edge-log optimizer) can relate vertices to page utilization. For
// zero-degree vertices firstPage > lastPage.
type EdgeVisitorEx func(v uint32, nbrs []uint32, firstPage, lastPage int32)

// EdgeVisitorFull additionally receives the vertex's per-edge weights
// (nil for unweighted graphs), parallel to nbrs and arena-backed like it.
type EdgeVisitorFull func(v uint32, nbrs, weights []uint32, firstPage, lastPage int32)

// LoadOutEdges loads the out-edge lists of the given vertices, which must
// all lie in interval iv and be sorted ascending (a descending pair is an
// error). Only the row-pointer and column-index pages covering the
// requested vertices are read, in batches.
func (g *Graph) LoadOutEdges(iv int, verts []uint32, visit EdgeVisitor) (LoadStats, error) {
	return g.loadEdges(0, g.outRow[iv], g.outCol[iv], nil, iv, verts,
		func(v uint32, nbrs, _ []uint32, _, _ int32) { visit(v, nbrs) })
}

// LoadOutEdgesEx is LoadOutEdges with page-range information.
func (g *Graph) LoadOutEdgesEx(iv int, verts []uint32, visit EdgeVisitorEx) (LoadStats, error) {
	return g.loadEdges(0, g.outRow[iv], g.outCol[iv], nil, iv, verts,
		func(v uint32, nbrs, _ []uint32, first, last int32) { visit(v, nbrs, first, last) })
}

// LoadOutEdgesFull is LoadOutEdgesEx plus per-edge weights for weighted
// graphs; the val pages are fetched alongside the colidx pages and
// counted in the stats.
func (g *Graph) LoadOutEdgesFull(iv int, verts []uint32, visit EdgeVisitorFull) (LoadStats, error) {
	var valF *ssd.File
	if g.meta.HasWeights {
		valF = g.outVal[iv]
	}
	return g.loadEdges(0, g.outRow[iv], g.outCol[iv], valF, iv, verts, visit)
}

// LoadInEdges is LoadOutEdges for the in-edge (source) lists.
func (g *Graph) LoadInEdges(iv int, verts []uint32, visit EdgeVisitor) (LoadStats, error) {
	return g.loadEdges(1, g.inRow[iv], g.inCol[iv], nil, iv, verts,
		func(v uint32, nbrs, _ []uint32, _, _ int32) { visit(v, nbrs) })
}

// LoadInEdgesFull is LoadInEdges plus in-edge weights.
func (g *Graph) LoadInEdgesFull(iv int, verts []uint32, visit EdgeVisitorFull) (LoadStats, error) {
	var valF *ssd.File
	if g.meta.HasWeights {
		valF = g.inVal[iv]
	}
	return g.loadEdges(1, g.inRow[iv], g.inCol[iv], valF, iv, verts, visit)
}

func (g *Graph) loadEdges(side uint8, rowF, colF, valF *ssd.File, iv int, verts []uint32, visit EdgeVisitorFull) (LoadStats, error) {
	var stats LoadStats
	if len(verts) == 0 {
		return stats, nil
	}
	// Shared-lock the ingest plane for the whole load: a crash-atomic
	// merge (exclusive) must never rewrite the CSR files under a
	// half-assembled neighbor list. Raw merge-internal views (ing == nil)
	// skip both the lock and the overlay.
	var epoch uint64
	if ing := g.ing; ing != nil {
		ing.mu.RLock()
		defer ing.mu.RUnlock()
		if err := ing.failed; err != nil {
			return stats, err
		}
		if g.pinned {
			epoch = g.atEpoch
		} else {
			epoch = ing.epoch.Load()
		}
	}
	rows, rowPages, err := g.readRowEntries(rowF, g.meta.Intervals[iv], verts)
	if err != nil {
		return stats, err
	}
	stats.RowPtrPages = rowPages

	// The column-index pages covering every requested edge range, read as
	// one batch.
	ps := g.dev.PageSize()
	plan, err := planEdgePages(ps, rows)
	if err != nil {
		return stats, err
	}
	pageBuf := make([]byte, len(plan.pages)*ps)
	if err := colF.ReadPages(plan.pages, pageBuf); err != nil {
		return stats, err
	}
	stats.ColIdxPages = len(plan.pages)
	stats.PageUtils = make([]PageUtil, len(plan.pages))
	for k, p := range plan.pages {
		stats.PageUtils[k] = PageUtil{
			Key:       PageKey{Side: side, Interval: int32(iv), Page: int32(p)},
			UsedBytes: plan.used[k],
		}
	}

	// Weighted graphs: the val file mirrors the colidx layout, so the
	// same plan serves the weights. A val file can be shorter than its
	// colidx file only by padding, so its pages are a prefix of the plan;
	// pages past its end stay zero.
	var valBuf []byte
	if valF != nil {
		valBuf = make([]byte, len(pageBuf))
		n := len(plan.pages)
		for n > 0 && plan.pages[n-1] >= valF.NumPages() {
			n--
		}
		if err := valF.ReadPages(plan.pages[:n], valBuf[:n*ps]); err != nil {
			return stats, err
		}
		stats.ValPages = n
	}

	// Decode every neighbor list into one arena, then overlay structural
	// deltas if present. The lists outlive the call (see EdgeVisitor).
	var edges uint64
	for i := range verts {
		edges += rows[2*i+1] - rows[2*i]
	}
	nbrArena := make([]uint32, edges)
	var wArena []uint32
	if valBuf != nil {
		wArena = make([]uint32, edges)
	}
	var at uint64
	for i, v := range verts {
		start, end := rows[2*i], rows[2*i+1]
		nbrs := nbrArena[at : at+end-start : at+end-start]
		bLo, bHi := int64(start)*4, int64(end)*4
		decodeU32s(nbrs, plan.view(pageBuf, i, bLo, bHi))
		var weights []uint32
		if wArena != nil {
			weights = wArena[at : at+end-start : at+end-start]
			decodeU32s(weights, plan.view(valBuf, i, bLo, bHi))
		}
		at += end - start
		if g.ing != nil {
			nbrs, weights = g.ing.deltas.apply(side, v, nbrs, weights, epoch)
		}
		firstPage, lastPage := int32(bLo/int64(ps)), int32((bHi-1)/int64(ps))
		if start == end {
			firstPage, lastPage = 1, 0
		}
		visit(v, nbrs, weights, firstPage, lastPage)
	}
	return stats, nil
}

// planEdgePages plans the column-index (or aux, or val) pages holding the
// edge ranges rows lays out as [start0, end0, start1, end1, ...], in
// edges of 4 bytes.
func planEdgePages(pageSize int, rows []uint64) (pagePlan, error) {
	return planPages(pageSize, len(rows)/2, func(i int) (int64, int64) {
		return int64(rows[2*i]) * 4, int64(rows[2*i+1]) * 4
	})
}

// planRowPages plans the row-pointer pages holding entries j and j+1 (8
// bytes each) of every vertex j of verts relative to interval; vertices
// outside it cover no page.
func planRowPages(pageSize int, interval Interval, verts []uint32) (pagePlan, error) {
	return planPages(pageSize, len(verts), func(i int) (int64, int64) {
		if !interval.Contains(verts[i]) {
			return 0, 0
		}
		lo := int64(verts[i]-interval.Lo) * 8
		return lo, lo + 16
	})
}

// decodeU32s decodes little-endian uint32s from src into dst.
func decodeU32s(dst []uint32, src []byte) {
	for j := range dst {
		dst[j] = binary.LittleEndian.Uint32(src[4*j:])
	}
}

// readRowEntries returns, for each requested vertex, its (start, end) edge
// offsets, reading only the covering row-pointer pages. The result is laid
// out as [start0, end0, start1, end1, ...].
func (g *Graph) readRowEntries(rowF *ssd.File, interval Interval, verts []uint32) ([]uint64, int, error) {
	return g.readRowEntriesWith(rowF, interval, verts, rowF.ReadPages)
}

// readRowEntriesWith is readRowEntries with the page read indirected, so
// the prefetcher's planning path can issue it stage-tagged (its goroutine
// runs concurrently with the engine's ambient device tag). verts must lie
// in interval and ascend.
func (g *Graph) readRowEntriesWith(rowF *ssd.File, interval Interval, verts []uint32,
	read func(pages []int, dst []byte) error) ([]uint64, int, error) {
	for _, v := range verts {
		if !interval.Contains(v) {
			return nil, 0, fmt.Errorf("csr: vertex %d outside interval %v", v, interval)
		}
	}
	ps := g.dev.PageSize()
	plan, err := planRowPages(ps, interval, verts)
	if err != nil {
		return nil, 0, err
	}
	buf := make([]byte, len(plan.pages)*ps)
	if err := read(plan.pages, buf); err != nil {
		return nil, 0, err
	}
	out := make([]uint64, 2*len(verts))
	for i, v := range verts {
		lo := int64(v-interval.Lo) * 8
		ent := plan.view(buf, i, lo, lo+16)
		out[2*i] = binary.LittleEndian.Uint64(ent)
		out[2*i+1] = binary.LittleEndian.Uint64(ent[8:])
	}
	return out, len(plan.pages), nil
}

// ReadWholeInterval reads every out-edge list of an interval sequentially
// (used by builders of derived structures and by tests).
func (g *Graph) ReadWholeInterval(iv int, visit EdgeVisitor) error {
	interval := g.meta.Intervals[iv]
	verts := make([]uint32, 0, interval.Len())
	for v := interval.Lo; v < interval.Hi; v++ {
		verts = append(verts, v)
	}
	_, err := g.LoadOutEdges(iv, verts, visit)
	return err
}

// OutDegreeSlow returns v's current out-degree including deltas. Intended
// for tests and tools, not hot paths.
func (g *Graph) OutDegreeSlow(v uint32) (uint32, error) {
	iv := g.IntervalOf(v)
	var deg uint32
	_, err := g.LoadOutEdges(iv, []uint32{v}, func(_ uint32, nbrs []uint32) {
		deg = uint32(len(nbrs))
	})
	return deg, err
}
