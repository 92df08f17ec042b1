// Package grafboost is the GraFBoost baseline engine (Jun et al., the
// paper's [11]) reimplemented in software on the shared device model: a
// single append-only message log per superstep, externally sorted by
// destination at the start of the next superstep with the program's
// combine operator applied during run generation and merge.
//
// Two properties from the paper are reproduced:
//
//   - GraFBoost requires associative/commutative updates; Run rejects
//     programs without a vc.Combiner unless Adapted is set, which keeps
//     every record through the external sort (the "adapted GraFBoost"
//     the paper builds for graph coloring, §VIII).
//   - GraFBoost does not load only active graph data: every superstep
//     streams the whole out-CSR (and, for aux programs, in-CSR and aux
//     state) from the device.
package grafboost

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"multilogvc/internal/bitset"
	"multilogvc/internal/csr"
	"multilogvc/internal/extsort"
	"multilogvc/internal/metrics"
	"multilogvc/internal/obsv"
	"multilogvc/internal/pagecache"
	"multilogvc/internal/sendstage"
	"multilogvc/internal/ssd"
	"multilogvc/internal/vc"
)

// Config tunes the baseline.
type Config struct {
	// MemoryBudget bounds the external sort's in-memory run size;
	// defaults to 64 MiB.
	MemoryBudget int64
	// MaxSupersteps defaults to 15.
	MaxSupersteps int
	// Workers is the vertex-processing parallelism; defaults to
	// runtime.GOMAXPROCS(0).
	Workers int
	// Adapted keeps all messages through the external sort instead of
	// combining, enabling non-combinable programs at high sort cost.
	Adapted bool
	// StopAfter ends the run after the superstep for which it returns
	// true.
	StopAfter func(superstep int, cumProcessed uint64) bool
	// Context, when non-nil, aborts the run at the next superstep boundary
	// once cancelled or past its deadline. The baseline has no checkpoint
	// machinery, so the run just stops with the context's error wrapped.
	Context context.Context
	// Cache is the page cache attached to the device, if any; the engine
	// only reads its counters for per-superstep reporting. The caller owns
	// attachment and lifecycle.
	Cache *pagecache.Cache
}

func (c Config) withDefaults() Config {
	if c.MemoryBudget <= 0 {
		c.MemoryBudget = 64 << 20
	}
	if c.MaxSupersteps <= 0 {
		c.MaxSupersteps = 15
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Engine is a single-log external-sort engine over a CSR graph.
type Engine struct {
	g   *csr.Graph
	cfg Config
}

// New creates the engine over an opened CSR graph (shared with the
// MultiLogVC engine, so graph IO costs are comparable).
func New(g *csr.Graph, cfg Config) *Engine {
	return &Engine{g: g, cfg: cfg.withDefaults()}
}

// Result carries the run report and final vertex values.
type Result struct {
	Report *metrics.Report
	Values []uint32
}

// ErrNeedsCombiner is returned for non-combinable programs without
// Adapted mode — GraFBoost's documented limitation.
var ErrNeedsCombiner = fmt.Errorf("grafboost: program has no combiner (set Adapted to force single-log operation)")

// Run executes prog to convergence or the superstep cap.
func (e *Engine) Run(prog vc.Program) (*Result, error) {
	cfg := e.cfg
	g := e.g
	dev := g.Device()
	n := g.NumVertices()
	name := g.Name()

	combiner, hasCombiner := prog.(vc.Combiner)
	if !hasCombiner && !cfg.Adapted {
		return nil, ErrNeedsCombiner
	}
	var combineFn func(a, b uint32) uint32
	if hasCombiner && !cfg.Adapted {
		combineFn = combiner.Combine
	}

	report := &metrics.Report{Engine: "grafboost", App: prog.Name(), Graph: name}
	if cfg.Adapted {
		report.Engine = "grafboost-adapted"
	}
	wallStart := time.Now()

	if cfg.Context != nil {
		// Let the device's retry backoff observe cancellation too.
		dev.SetRunContext(cfg.Context)
		defer dev.SetRunContext(nil)
	}

	buildS, buildIv := dev.SetStage(obsv.StageBuild, -1)
	values, err := csr.CreateValuesFunc(dev, name+".gb.values", n, func(v uint32) uint32 {
		return prog.InitValue(v, n)
	})
	if err != nil {
		dev.SetStage(buildS, buildIv)
		return nil, err
	}
	var aux *csr.Aux
	auxUser, isAux := prog.(vc.AuxUser)
	if isAux {
		aux, err = csr.CreateAux(g, prog.Name()+".gb", auxUser.AuxInit(n))
		if err != nil {
			dev.SetStage(buildS, buildIv)
			return nil, err
		}
	}
	dev.SetStage(buildS, buildIv)

	logF, err := dev.OpenOrCreate(name + ".gb.log")
	if err != nil {
		return nil, err
	}
	if err := logF.Truncate(); err != nil {
		return nil, err
	}
	logW := ssd.NewWriter(logF)
	var logCount uint64

	carry := bitset.New(int(n))
	is := prog.InitActive(n)
	if is.All {
		for v := uint32(0); v < n; v++ {
			carry.Set(int(v))
		}
	} else {
		for _, v := range is.Verts {
			carry.Set(int(v))
		}
	}

	var sends sendstage.Buffers[extsort.Record]
	var cumProcessed uint64
	converged := false
	for step := 0; step < cfg.MaxSupersteps; step++ {
		if !carry.Any() && logCount == 0 {
			converged = true
			break
		}
		if cfg.Context != nil {
			if err := cfg.Context.Err(); err != nil {
				return nil, fmt.Errorf("grafboost: run aborted at superstep %d: %w", step, err)
			}
		}
		stepStart := time.Now()
		devBefore := dev.Stats()
		var cacheBefore pagecache.Stats
		if cfg.Cache != nil {
			cacheBefore = cfg.Cache.Stats()
		}
		ss := metrics.SuperstepStats{Superstep: step}

		// Externally sort the single log into memory-bounded groups.
		// The sorted stream arrives in destination order; group it.
		// GraFBoost keeps one global log, so the sort phase carries no
		// interval attribution.
		prevS, prevIv := dev.SetStage(obsv.StageSortGroup, -1)
		if err := logW.Close(); err != nil {
			dev.SetStage(prevS, prevIv)
			return nil, err
		}
		var sorted []extsort.Record
		readLog := func(yield func(extsort.Record) error) error {
			r := ssd.NewReader(logF, 64)
			var rec [extsort.RecordBytes]byte
			for i := uint64(0); i < logCount; i++ {
				if err := r.ReadFull(rec[:]); err != nil {
					return err
				}
				if err := yield(extsort.Record{
					Dst:  le32(rec[0:]),
					Src:  le32(rec[4:]),
					Data: le32(rec[8:]),
				}); err != nil {
					return err
				}
			}
			return nil
		}
		_, err := extsort.Sort(dev, name+".gb.sort", readLog, 0, n, cfg.MemoryBudget,
			combineFn, func(r extsort.Record) error {
				sorted = append(sorted, r)
				return nil
			})
		dev.SetStage(prevS, prevIv)
		if err != nil {
			return nil, err
		}
		ss.MsgsDelivered = uint64(len(sorted))

		// Fresh log for the next superstep.
		if err := logF.Truncate(); err != nil {
			return nil, err
		}
		logW = ssd.NewWriter(logF)
		logCount = 0
		appendLog := func(r extsort.Record) error {
			logCount++
			if err := logW.WriteU32(r.Dst); err != nil {
				return err
			}
			if err := logW.WriteU32(r.Src); err != nil {
				return err
			}
			return logW.WriteU32(r.Data)
		}

		// Stream the whole graph interval by interval; GraFBoost cannot
		// restrict loads to the active set.
		pos := 0
		for iv := range g.Intervals() {
			if err := e.processInterval(&ivRun{
				prog: prog, values: values, aux: aux, isAux: isAux,
				iv: iv, step: step, carry: carry, sorted: sorted,
				pos: &pos, appendLog: appendLog, sends: &sends, ss: &ss,
			}); err != nil {
				return nil, err
			}
		}

		devDelta := dev.Stats().Sub(devBefore)
		ss.Stages = metrics.StagesFromDevice(devDelta)
		ss.PagesRead = devDelta.PagesRead
		ss.PagesWritten = devDelta.PagesWritten
		ss.StorageTime = devDelta.StorageTime()
		ss.ReadBatchPages = devDelta.ReadBatchPages
		ss.WriteBatchPages = devDelta.WriteBatchPages
		ss.ReadLatencyUS = devDelta.ReadLatencyUS
		ss.WriteLatencyUS = devDelta.WriteLatencyUS
		ss.ComputeTime = time.Since(stepStart)
		ss.MsgsSent = logCount
		if cache := cfg.Cache; cache != nil {
			cd := cache.Stats().Sub(cacheBefore)
			ss.CacheHits = cd.Hits
			ss.CacheMisses = cd.Misses
			ss.CacheEvictions = cd.Evictions
			ss.PrefetchInserts = cd.PrefetchInserts
			ss.PrefetchHits = cd.PrefetchHits
			ss.PrefetchDropped = cd.PrefetchDropped
		}
		cumProcessed += ss.Active
		report.Supersteps = append(report.Supersteps, ss)

		if cfg.StopAfter != nil && cfg.StopAfter(step, cumProcessed) {
			break
		}
	}
	if !converged {
		converged = !carry.Any() && logCount == 0
	}
	report.Converged = converged
	report.WallTime = time.Since(wallStart)
	report.Finish()

	finalValues, err := values.LoadAll()
	if err != nil {
		return nil, err
	}
	return &Result{Report: report, Values: finalValues}, nil
}

type ivRun struct {
	prog      vc.Program
	values    *csr.Values
	aux       *csr.Aux
	isAux     bool
	iv        int
	step      int
	carry     *bitset.Set
	sorted    []extsort.Record
	pos       *int
	appendLog func(r extsort.Record) error
	sends     *sendstage.Buffers[extsort.Record] // per-worker, reused
	ss        *metrics.SuperstepStats
}

func (e *Engine) processInterval(ir *ivRun) error {
	g := e.g
	interval := g.Intervals()[ir.iv]
	// The whole-graph streaming scan, value loads, and message-log appends
	// are vertex-processing IO on this interval.
	prevS, prevIv := g.Device().SetStage(obsv.StageVertex, ir.iv)
	defer g.Device().SetStage(prevS, prevIv)

	// Stream the interval's full adjacency (whole-graph scan).
	allVerts := make([]uint32, 0, interval.Len())
	for v := interval.Lo; v < interval.Hi; v++ {
		allVerts = append(allVerts, v)
	}
	adj := make(map[uint32][]uint32, len(allVerts))
	var adjW map[uint32][]uint32
	if g.HasWeights() {
		adjW = make(map[uint32][]uint32, len(allVerts))
	}
	if _, err := g.LoadOutEdgesFull(ir.iv, allVerts, func(v uint32, nbrs, weights []uint32, _, _ int32) {
		cp := make([]uint32, len(nbrs))
		copy(cp, nbrs)
		adj[v] = cp
		if adjW != nil {
			wcp := make([]uint32, len(weights))
			copy(wcp, weights)
			adjW[v] = wcp
		}
	}); err != nil {
		return err
	}

	// Message ranges for this interval from the sorted stream.
	msgStart := *ir.pos
	for *ir.pos < len(ir.sorted) && ir.sorted[*ir.pos].Dst < interval.Hi {
		*ir.pos++
	}
	msgs := ir.sorted[msgStart:*ir.pos]

	// Active set: message destinations plus carried vertices.
	var verts []uint32
	mi := 0
	ir.carry.RangeInRange(int(interval.Lo), int(interval.Hi), func(i int) bool {
		verts = append(verts, uint32(i))
		return true
	})
	for mi < len(msgs) {
		dst := msgs[mi].Dst
		verts = append(verts, dst)
		for mi < len(msgs) && msgs[mi].Dst == dst {
			mi++
		}
	}
	verts = dedupSorted(verts)
	if len(verts) == 0 {
		return nil
	}
	ir.ss.Active += uint64(len(verts))

	vb, _, err := ir.values.LoadForVerts(verts)
	if err != nil {
		return err
	}
	var auxBatch *csr.AuxBatch
	inSources := make(map[uint32][]uint32)
	if ir.isAux {
		auxBatch, _, err = ir.aux.LoadBatch(ir.iv, verts)
		if err != nil {
			return err
		}
		if _, err := g.LoadInEdges(ir.iv, verts, func(v uint32, srcs []uint32) {
			cp := make([]uint32, len(srcs))
			copy(cp, srcs)
			inSources[v] = cp
		}); err != nil {
			return err
		}
	}

	// Per-vertex message ranges.
	ranges := make([][2]int, len(verts))
	p := 0
	for i, v := range verts {
		for p < len(msgs) && msgs[p].Dst < v {
			p++
		}
		start := p
		for p < len(msgs) && msgs[p].Dst == v {
			p++
		}
		ranges[i] = [2]int{start, p}
	}

	workers := e.cfg.Workers
	if workers > len(verts) {
		workers = len(verts)
	}
	halted := make([]bool, len(verts))
	// Sends are staged per worker and replayed in worker order — vertex
	// order — after the pass, so the log (and the runs its external sort
	// cuts and combines) is the same at any worker count.
	ir.sends.Reset(workers)
	var wg sync.WaitGroup
	chunk := (len(verts) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(verts) {
			hi = len(verts)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			ctx := &gbCtx{eng: e, ir: ir, vb: vb, adj: adj, adjW: adjW, auxBatch: auxBatch, inSources: inSources,
				sends: ir.sends.Worker(w)}
			var msgBuf []vc.Msg
			for i := lo; i < hi; i++ {
				v := verts[i]
				msgBuf = msgBuf[:0]
				for k := ranges[i][0]; k < ranges[i][1]; k++ {
					msgBuf = append(msgBuf, vc.Msg{Src: msgs[k].Src, Data: msgs[k].Data})
				}
				ctx.vertex = v
				ctx.haltedFlag = &halted[i]
				ir.prog.Process(ctx, msgBuf)
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, staged := range ir.sends.Staged() {
		for _, r := range staged {
			if err := ir.appendLog(r); err != nil {
				return err
			}
		}
	}

	for i, v := range verts {
		ir.carry.SetTo(int(v), !halted[i])
	}
	if _, err := vb.Flush(); err != nil {
		return err
	}
	if auxBatch != nil {
		if _, err := auxBatch.Flush(); err != nil {
			return err
		}
	}
	return nil
}

type gbCtx struct {
	eng       *Engine
	ir        *ivRun
	vb        *csr.ValueBatch
	adj       map[uint32][]uint32
	adjW      map[uint32][]uint32 // nil for unweighted graphs
	auxBatch  *csr.AuxBatch
	inSources map[uint32][]uint32
	sends     *[]extsort.Record

	vertex     uint32
	haltedFlag *bool
}

func (c *gbCtx) Superstep() int      { return c.ir.step }
func (c *gbCtx) NumVertices() uint32 { return c.eng.g.NumVertices() }
func (c *gbCtx) Vertex() uint32      { return c.vertex }
func (c *gbCtx) Value() uint32       { return c.vb.Get(c.vertex) }
func (c *gbCtx) SetValue(v uint32)   { c.vb.Set(c.vertex, v) }
func (c *gbCtx) VoteToHalt()         { *c.haltedFlag = true }
func (c *gbCtx) OutEdges() []uint32  { return c.adj[c.vertex] }
func (c *gbCtx) OutWeights() []uint32 {
	if c.adjW == nil {
		return nil
	}
	return c.adjW[c.vertex]
}
func (c *gbCtx) Send(dst, data uint32) {
	*c.sends = append(*c.sends, extsort.Record{Dst: dst, Src: c.vertex, Data: data})
}
func (c *gbCtx) InEdgeSources() []uint32 { return c.inSources[c.vertex] }
func (c *gbCtx) Aux() []uint32 {
	if c.auxBatch == nil {
		return nil
	}
	return c.auxBatch.Get(c.vertex)
}

func dedupSorted(s []uint32) []uint32 {
	if len(s) == 0 {
		return s
	}
	sortU32(s)
	w := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			s[w] = s[i]
			w++
		}
	}
	return s[:w]
}

func sortU32(s []uint32) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
