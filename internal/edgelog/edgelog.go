// Package edgelog implements the edge-log optimizer of §V-C.
//
// When the graph loader fetches a column-index page to serve one active
// vertex's out-edges, inactive vertices' edges co-resident on that page
// waste read bandwidth. The optimizer re-logs the out-edges of vertices
// that are (a) predicted active in the next superstep — history-based
// prediction over the last N supersteps, N = 1 — and (b) currently served
// from pages measured under the utilization threshold (default 10%). The
// next superstep reads those edge lists densely from the log instead of
// sparsely from the CSR pages.
package edgelog

import (
	"encoding/binary"
	"fmt"
	"sort"

	"multilogvc/internal/bitset"
	"multilogvc/internal/csr"
	"multilogvc/internal/obsv"
	"multilogvc/internal/ssd"
)

// DefaultThreshold is the page-utilization fraction below which a touched
// page counts as inefficiently used (>0% and <10% in the paper).
const DefaultThreshold = 0.10

// Predictor tracks vertex-activity history and page utilization, and
// decides which vertices' edges are worth logging.
type Predictor struct {
	threshold float64
	pageSize  int

	prevActive *bitset.Set // active in superstep s-1
	currActive *bitset.Set // active in superstep s (being filled)

	prevIneff map[csr.PageKey]bool // pages inefficient in s-1 (the prediction for s)
	currIneff map[csr.PageKey]bool // pages inefficient in s (being measured)
	currSeen  map[csr.PageKey]bool // pages touched in s

	// Accuracy accounting for the superstep being measured (Fig 9).
	correct int // touched pages inefficient in s that were predicted (inefficient in s-1)
}

// NewPredictor creates a predictor for n vertices. threshold <= 0 selects
// DefaultThreshold.
func NewPredictor(n uint32, pageSize int, threshold float64) *Predictor {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	return &Predictor{
		threshold:  threshold,
		pageSize:   pageSize,
		prevActive: bitset.New(int(n)),
		currActive: bitset.New(int(n)),
		prevIneff:  make(map[csr.PageKey]bool),
		currIneff:  make(map[csr.PageKey]bool),
		currSeen:   make(map[csr.PageKey]bool),
	}
}

// NoteActive records that v is active in the current superstep.
func (p *Predictor) NoteActive(v uint32) { p.currActive.Set(int(v)) }

// NotePageUtils records measured page utilization from one adjacency load.
func (p *Predictor) NotePageUtils(utils []csr.PageUtil) {
	for _, u := range utils {
		if p.currSeen[u.Key] {
			continue
		}
		p.currSeen[u.Key] = true
		frac := float64(u.UsedBytes) / float64(p.pageSize)
		if u.UsedBytes > 0 && frac < p.threshold {
			p.currIneff[u.Key] = true
			if p.prevIneff[u.Key] {
				p.correct++
			}
		}
	}
}

// PredictActive reports whether v is predicted active next superstep:
// active at least once in the past N supersteps (N = 1, i.e. the previous
// superstep) or already active now.
func (p *Predictor) PredictActive(v uint32) bool {
	return p.prevActive.Test(int(v)) || p.currActive.Test(int(v))
}

// PageIneff reports whether the page was predicted inefficient for the
// current superstep (measured inefficient in the previous one).
func (p *Predictor) PageIneff(key csr.PageKey) bool { return p.prevIneff[key] }

// PageIneffNow reports whether the page has been measured inefficient in
// the current superstep; the engine uses the current measurement when
// deciding what to log for the next superstep.
func (p *Predictor) PageIneffNow(key csr.PageKey) bool { return p.currIneff[key] }

// StepStats summarizes a finished superstep's prediction quality.
type StepStats struct {
	InefficientPages uint64 // pages measured inefficient this superstep
	PredictedIneff   uint64 // pages that had been predicted inefficient
	Correct          uint64 // predictions confirmed this superstep
	PagesTouched     uint64
}

// EndSuperstep rolls the history forward and returns this superstep's
// prediction stats.
func (p *Predictor) EndSuperstep() StepStats {
	st := StepStats{
		InefficientPages: uint64(len(p.currIneff)),
		PredictedIneff:   uint64(len(p.prevIneff)),
		Correct:          uint64(p.correct),
		PagesTouched:     uint64(len(p.currSeen)),
	}
	p.prevActive, p.currActive = p.currActive, p.prevActive
	p.currActive.Reset()
	p.prevIneff = p.currIneff
	p.currIneff = make(map[csr.PageKey]bool)
	p.currSeen = make(map[csr.PageKey]bool)
	p.correct = 0
	return st
}

// History returns the predictor's rolled-over state at a superstep
// boundary: the previous superstep's active set (as bitset words) and the
// pages it measured inefficient, sorted for deterministic serialization.
// Together with RestoreHistory it lets checkpoints carry the prediction
// signal across a crash, so a resumed run re-logs the same vertices an
// uninterrupted run would.
func (p *Predictor) History() (prevActive []uint64, prevIneff []csr.PageKey) {
	prevActive = p.prevActive.Words()
	prevIneff = make([]csr.PageKey, 0, len(p.prevIneff))
	for k := range p.prevIneff {
		prevIneff = append(prevIneff, k)
	}
	sort.Slice(prevIneff, func(i, j int) bool {
		a, b := prevIneff[i], prevIneff[j]
		if a.Side != b.Side {
			return a.Side < b.Side
		}
		if a.Interval != b.Interval {
			return a.Interval < b.Interval
		}
		return a.Page < b.Page
	})
	return prevActive, prevIneff
}

// RestoreHistory overwrites the predictor's previous-superstep state from
// a checkpoint. The current-superstep accumulators are reset, matching the
// state right after EndSuperstep.
func (p *Predictor) RestoreHistory(prevActive []uint64, prevIneff []csr.PageKey) {
	p.prevActive.SetWords(prevActive)
	p.currActive.Reset()
	p.prevIneff = make(map[csr.PageKey]bool, len(prevIneff))
	for _, k := range prevIneff {
		p.prevIneff[k] = true
	}
	p.currIneff = make(map[csr.PageKey]bool)
	p.currSeen = make(map[csr.PageKey]bool)
	p.correct = 0
}

// EdgeLog stores re-logged out-edge lists. Two generations alternate: the
// engine logs into the next generation while serving reads from the
// current one. For weighted graphs each vertex's weights are logged after
// its neighbor ids, so one log read serves both.
type EdgeLog struct {
	dev      *ssd.Device
	prefix   string
	pageSize int
	weighted bool

	gen   int
	files [2]*ssd.File
	// index maps vertex -> (byte offset, degree) within each generation.
	index   [2]map[uint32]entry
	writer  *ssd.Writer
	written int64

	tr *obsv.Trace // nil = tracing disabled
}

// SetTracer attaches a span tracer; generation swaps emit spans on it.
// A nil tracer (the default) disables tracing.
func (e *EdgeLog) SetTracer(tr *obsv.Trace) { e.tr = tr }

// SetScope attributes the log's device IO to a per-run ssd.IOScope. Must
// be called right after New, before any logging: both generation handles
// are rescoped and the next-generation writer is rebound to its scoped
// handle while still at offset zero.
func (e *EdgeLog) SetScope(sc *ssd.IOScope) {
	if sc == nil {
		return
	}
	for i := range e.files {
		e.files[i] = e.files[i].Scoped(sc)
	}
	e.writer = ssd.NewWriter(e.files[1])
}

type entry struct {
	off int64
	deg uint32
}

// New creates an EdgeLog using two device files "<prefix>.0/1". Set
// weighted for graphs whose edge lists carry weights.
func New(dev *ssd.Device, prefix string, weighted bool) (*EdgeLog, error) {
	e := &EdgeLog{dev: dev, prefix: prefix, pageSize: dev.PageSize(), weighted: weighted}
	for i := 0; i < 2; i++ {
		f, err := dev.OpenOrCreate(fmt.Sprintf("%s.%d", prefix, i))
		if err != nil {
			return nil, err
		}
		// Drop any pages surviving from an earlier run: offsets in the
		// index are relative to an empty file.
		if err := f.Truncate(); err != nil {
			return nil, err
		}
		e.files[i] = f
		e.index[i] = make(map[uint32]entry)
	}
	e.writer = ssd.NewWriter(e.files[1])
	return e, nil
}

// LogEdges appends v's out-edges (and weights, for weighted logs) to the
// next generation. weights must be parallel to nbrs when the log is
// weighted and is ignored otherwise.
func (e *EdgeLog) LogEdges(v uint32, nbrs, weights []uint32) error {
	next := 1 - e.gen
	if _, dup := e.index[next][v]; dup {
		return nil
	}
	e.index[next][v] = entry{off: e.writer.Offset(), deg: uint32(len(nbrs))}
	var b [4]byte
	for _, nb := range nbrs {
		binary.LittleEndian.PutUint32(b[:], nb)
		if _, err := e.writer.Write(b[:]); err != nil {
			return err
		}
	}
	e.written += int64(len(nbrs)) * 4
	if e.weighted {
		for _, w := range weights {
			binary.LittleEndian.PutUint32(b[:], w)
			if _, err := e.writer.Write(b[:]); err != nil {
				return err
			}
		}
		e.written += int64(len(weights)) * 4
	}
	return nil
}

// LoggedBytes returns the bytes logged into the next generation so far.
func (e *EdgeLog) LoggedBytes() int64 { return e.written }

// Has reports whether the current generation holds v's edges.
func (e *EdgeLog) Has(v uint32) bool {
	_, ok := e.index[e.gen][v]
	return ok
}

// Load fetches the out-edge lists (and weights, for weighted logs) of the
// given vertices from the current generation, reading only covering pages
// in one batch. All vertices must satisfy Has. Returns the number of pages
// read. weights is nil for unweighted logs. The lists are decoded into one
// arena per call, so they stay valid after visit returns.
func (e *EdgeLog) Load(verts []uint32, visit func(v uint32, nbrs, weights []uint32)) (int, error) {
	if len(verts) == 0 {
		return 0, nil
	}
	stride := int64(4)
	if e.weighted {
		stride = 8 // ids then weights, both deg×4 bytes
	}
	idx := e.index[e.gen]
	ps := e.pageSize
	pageSet := make(map[int]bool)
	for _, v := range verts {
		ent, ok := idx[v]
		if !ok {
			return 0, fmt.Errorf("edgelog: vertex %d not logged", v)
		}
		if ent.deg == 0 {
			continue
		}
		end := ent.off + int64(ent.deg)*stride
		for p := ent.off / int64(ps); p <= (end-1)/int64(ps); p++ {
			pageSet[int(p)] = true
		}
	}
	pages := make([]int, 0, len(pageSet))
	for p := range pageSet {
		pages = append(pages, p)
	}
	sort.Ints(pages)
	buf := make([]byte, len(pages)*ps)
	if err := e.files[e.gen].ReadPages(pages, buf); err != nil {
		return 0, err
	}
	pageAt := make(map[int][]byte, len(pages))
	for i, p := range pages {
		pageAt[p] = buf[i*ps : (i+1)*ps]
	}
	u32At := func(off int64) uint32 {
		return binary.LittleEndian.Uint32(pageAt[int(off/int64(ps))][off%int64(ps):])
	}
	// One arena holds every list, so the lists outlive the call.
	var edges int
	for _, v := range verts {
		edges += int(idx[v].deg)
	}
	nbrArena := make([]uint32, edges)
	var wArena []uint32
	if e.weighted {
		wArena = make([]uint32, edges)
	}
	at := 0
	for _, v := range verts {
		ent := idx[v]
		end := at + int(ent.deg)
		nbrs := nbrArena[at:end:end]
		var weights []uint32
		if e.weighted {
			weights = wArena[at:end:end]
		}
		at = end
		for j := uint32(0); j < ent.deg; j++ {
			nbrs[j] = u32At(ent.off + int64(j)*4)
			if e.weighted {
				weights[j] = u32At(ent.off + int64(ent.deg)*4 + int64(j)*4)
			}
		}
		visit(v, nbrs, weights)
	}
	return len(pages), nil
}

// InvalidateCurrent discards the current generation: the index empties
// and the backing file truncates (which also drops any cached pages), so
// every vertex falls back to canonical CSR loading. This is the heal path
// for a corrupt edge-log page — the log is a redundant adjacency cache,
// so dropping a generation costs extra CSR reads but never correctness.
// Logging into the *next* generation is unaffected.
func (e *EdgeLog) InvalidateCurrent() error {
	e.index[e.gen] = make(map[uint32]entry)
	return e.files[e.gen].Truncate()
}

// Dump visits every vertex in the current generation in ascending vertex
// order with its logged neighbors (and weights, for weighted logs),
// reading the covering pages in one batch. Checkpointing uses it to
// serialize the generation that will serve the next superstep. Returns
// the number of pages read.
func (e *EdgeLog) Dump(visit func(v uint32, nbrs, weights []uint32)) (int, error) {
	idx := e.index[e.gen]
	if len(idx) == 0 {
		return 0, nil
	}
	verts := make([]uint32, 0, len(idx))
	for v := range idx {
		verts = append(verts, v)
	}
	sort.Slice(verts, func(i, j int) bool { return verts[i] < verts[j] })
	return e.Load(verts, visit)
}

// EndSuperstep flushes the next generation to the device and swaps
// generations; the old current generation is truncated for reuse.
func (e *EdgeLog) EndSuperstep() error {
	// Tid 3 is the edge-log unit's trace timeline (engine stages own tid 1,
	// the multi-log unit tid 2).
	sp := e.tr.BeginTid("elog", "end-superstep", 3)
	sp.Arg("logged_bytes", e.written)
	sp.Arg("logged_verts", int64(len(e.index[1-e.gen])))
	defer sp.End()
	if err := e.writer.Close(); err != nil {
		return err
	}
	old := e.gen
	e.gen = 1 - e.gen
	e.index[old] = make(map[uint32]entry)
	if err := e.files[old].Truncate(); err != nil {
		return err
	}
	e.writer = ssd.NewWriter(e.files[old])
	e.written = 0
	return nil
}
