package csr

import (
	"encoding/binary"
	"fmt"
	"slices"

	"multilogvc/internal/ssd"
)

// Aux is per-in-edge auxiliary vertex state stored on the device, one
// uint32 per in-edge, laid out per interval in in-CSR order. The community
// detection application uses it to remember each in-neighbor's last known
// label (paper Algorithm 2: V_inf.edge(src).set_label). Loading and
// storing aux state for active vertices is page-granular, which is why
// CDLP on MultiLogVC pays extra reads relative to GraphChi (§VIII).
type Aux struct {
	g     *Graph
	name  string
	files []*ssd.File
}

func auxFileName(graphName, auxName string, iv int) string {
	return fmt.Sprintf("%s.aux.%s.%d", graphName, auxName, iv)
}

// CreateAux creates (or resets) an aux array named auxName for graph g,
// one uint32 per in-edge, initialized to init.
func CreateAux(g *Graph, auxName string, init uint32) (*Aux, error) {
	a := &Aux{g: g, name: auxName}
	for i := range g.meta.Intervals {
		f, err := g.dev.OpenOrCreate(auxFileName(g.meta.Name, auxName, i))
		if err != nil {
			return nil, err
		}
		if err := f.Truncate(); err != nil {
			return nil, err
		}
		w := ssd.NewWriter(f)
		entries := g.meta.InColIdxSize[i] / 4
		for j := int64(0); j < entries; j++ {
			if err := w.WriteU32(init); err != nil {
				return nil, err
			}
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
		a.files = append(a.files, f)
	}
	return a, nil
}

// DumpAll reads every interval's aux entries with page-batched streaming,
// one slice per interval. Checkpointing serializes the result.
func (a *Aux) DumpAll() ([][]uint32, error) {
	out := make([][]uint32, len(a.files))
	for i, f := range a.files {
		entries := a.g.meta.InColIdxSize[i] / 4
		vals := make([]uint32, entries)
		r := ssd.NewReaderN(f, entries*4, 0)
		for j := range vals {
			v, err := r.U32()
			if err != nil {
				return nil, fmt.Errorf("csr: dump aux %q interval %d: %w", a.name, i, err)
			}
			vals[j] = v
		}
		out[i] = vals
	}
	return out, nil
}

// RestoreAll overwrites every interval's aux entries from a DumpAll
// snapshot, truncating whatever the files held (a crashed run may have
// left partial writes behind).
func (a *Aux) RestoreAll(data [][]uint32) error {
	if len(data) != len(a.files) {
		return fmt.Errorf("csr: aux %q restore has %d intervals, graph has %d", a.name, len(data), len(a.files))
	}
	for i, f := range a.files {
		if want := a.g.meta.InColIdxSize[i] / 4; int64(len(data[i])) != want {
			return fmt.Errorf("csr: aux %q interval %d restore has %d entries, want %d", a.name, i, len(data[i]), want)
		}
		if err := f.Truncate(); err != nil {
			return err
		}
		w := ssd.NewWriter(f)
		for _, v := range data[i] {
			if err := w.WriteU32(v); err != nil {
				return err
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
	}
	return nil
}

// AuxBatch holds the aux slices of a set of active vertices in one
// interval. Get returns a mutable slice (parallel to the vertex's in-CSR
// source list) that aliases the loaded page images; Flush writes them
// back with page-granular RMW.
type AuxBatch struct {
	aux   *Aux
	iv    int
	verts []uint32 // ascending
	rows  []uint64 // [start0, end0, start1, end1, ...] entry offsets
	vals  []uint32 // every vertex's slice, back to back (offsets in start)
	start []int    // vals offset of verts[i]'s slice; len(verts)+1 entries
	plan  pagePlan
	buf   []byte // the planned aux pages, back to back
}

// LoadBatch fetches the aux slices of the given vertices (sorted, all in
// interval iv). It reads the covering in-rowptr and aux pages as batches
// and returns IO stats alongside the batch.
func (a *Aux) LoadBatch(iv int, verts []uint32) (*AuxBatch, LoadStats, error) {
	var stats LoadStats
	b := &AuxBatch{aux: a, iv: iv}
	if len(verts) == 0 {
		return b, stats, nil
	}
	interval := a.g.meta.Intervals[iv]
	rows, rowPages, err := a.g.readRowEntries(a.g.inRow[iv], interval, verts)
	if err != nil {
		return nil, stats, err
	}
	stats.RowPtrPages = rowPages

	ps := a.g.dev.PageSize()
	plan, err := planEdgePages(ps, rows)
	if err != nil {
		return nil, stats, err
	}
	buf := make([]byte, len(plan.pages)*ps)
	if err := a.files[iv].ReadPages(plan.pages, buf); err != nil {
		return nil, stats, err
	}
	stats.ColIdxPages = len(plan.pages)

	b.verts, b.rows, b.plan, b.buf = slices.Clone(verts), rows, plan, buf
	b.start = make([]int, len(verts)+1)
	for i := range verts {
		b.start[i+1] = b.start[i] + int(rows[2*i+1]-rows[2*i])
	}
	b.vals = make([]uint32, b.start[len(verts)])
	for i := range verts {
		decodeU32s(b.vals[b.start[i]:b.start[i+1]], b.view(i))
	}
	return b, stats, nil
}

// view returns the page bytes of verts[i]'s aux entries.
func (b *AuxBatch) view(i int) []byte {
	return b.plan.view(b.buf, i, int64(b.rows[2*i])*4, int64(b.rows[2*i+1])*4)
}

// Get returns the mutable aux slice for v (parallel to its in-CSR source
// list), or nil if v was not in the batch.
func (b *AuxBatch) Get(v uint32) []uint32 {
	i, ok := slices.BinarySearch(b.verts, v)
	if !ok {
		return nil
	}
	return b.vals[b.start[i]:b.start[i+1]:b.start[i+1]]
}

// Flush writes all batch slices back into the loaded page images and
// writes those pages to the device. It returns the number of pages
// written.
func (b *AuxBatch) Flush() (int, error) {
	if len(b.plan.pages) == 0 {
		return 0, nil
	}
	for i := range b.verts {
		page := b.view(i)
		for j, val := range b.vals[b.start[i]:b.start[i+1]] {
			binary.LittleEndian.PutUint32(page[4*j:], val)
		}
	}
	// Write back in contiguous runs to batch channel usage. Planned pages
	// sit back to back in buf, so a run of consecutive page numbers is one
	// slice of it.
	ps := b.aux.g.dev.PageSize()
	f := b.aux.files[b.iv]
	pages := b.plan.pages
	written := 0
	for i := 0; i < len(pages); {
		j := i
		for j+1 < len(pages) && pages[j+1] == pages[j]+1 {
			j++
		}
		if err := f.WritePageRange(pages[i], b.buf[i*ps:(j+1)*ps]); err != nil {
			return written, err
		}
		written += j - i + 1
		i = j + 1
	}
	return written, nil
}
