// Package core implements the MultiLogVC engine: the paper's primary
// contribution. It runs vc.Programs out-of-core over an interval-
// partitioned CSR graph (internal/csr), exchanging messages through the
// multi-log update unit (internal/mlog), sorting and grouping them with
// interval fusing (internal/sortgroup), and reducing adjacency read
// amplification with the edge-log optimizer (internal/edgelog).
//
// One superstep follows Algorithm 1 of the paper:
//
//	for each (fused) vertex interval:
//	    load its update log, sort by destination, extract active vertices
//	    load the active vertices' values, adjacency (CSR pages or edge
//	    log), and aux state
//	    process each active vertex, in rounds bounded by the multi-log
//	    budget; each worker stages its sends, and the round's sends are
//	    replayed into the next-generation logs in vertex order
//	    log out-edges of predicted-active vertices on inefficient pages
//	flush next-generation logs; swap generations
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"multilogvc/internal/bitset"
	"multilogvc/internal/ckpt"
	"multilogvc/internal/csr"
	"multilogvc/internal/edgelog"
	"multilogvc/internal/metrics"
	"multilogvc/internal/mlog"
	"multilogvc/internal/obsv"
	"multilogvc/internal/pagecache"
	"multilogvc/internal/sendstage"
	"multilogvc/internal/sortgroup"
	"multilogvc/internal/ssd"
	"multilogvc/internal/vc"
)

// ErrCorruptData is returned when the engine hits corrupt vital data
// (message-log, value, CSR, or aux pages) it cannot recover from: either
// checkpointing is off, or rollback attempts were exhausted. Redundant
// data (edge-log pages) never surfaces this — it is healed from CSR.
var ErrCorruptData = errors.New("core: corrupt data beyond recovery")

// ErrInterrupted is returned when Config.Interrupt fires. The engine
// commits a checkpoint at the superstep boundary before returning, so an
// interrupted run is always resumable with Config.Resume.
var ErrInterrupted = errors.New("core: run interrupted; checkpoint committed")

// ErrDeadline is returned when the run context passed to RunCtx expires.
// A deadline observed at a superstep boundary commits a checkpoint first
// (the same graceful path as ErrInterrupted); one observed mid-superstep —
// by the device retry layer or the prefetcher wait — surfaces without one,
// but the newest periodic checkpoint (if any) remains valid for Resume.
var ErrDeadline = errors.New("core: run deadline exceeded")

// ErrPanic is returned when a panic escapes the engine — a vertex
// worker's Process call or any stage on the run goroutine. The engine
// contains it instead of letting it kill the process: deferred cleanup
// (ephemeral scratch sweep, run-context reset) runs during unwinding, so
// a long-lived host (the serving daemon) survives a panicking program
// with nothing leaked. The panic value and location are preserved in the
// wrapping message.
var ErrPanic = errors.New("core: panic during run")

// maxRollbacks bounds how many times one Run re-executes from the newest
// checkpoint after hitting corrupt vital data. Transiently-planted
// corruption (an injected flip on data that is rewritten, like value or
// mlog pages) clears on the first rollback; corruption that survives
// rollback (a damaged CSR page) re-fails each attempt and surfaces as
// ErrCorruptData after the budget.
const maxRollbacks = 3

// Config tunes the engine. The memory budget is split exactly as Fig 4 of
// the paper: SortPct (X%) for the sort-and-group unit, MLogPct (A%) for
// the multi-log buffers, ELogPct (B%) for the edge-log buffer.
type Config struct {
	// MemoryBudget in bytes; defaults to 64 MiB.
	MemoryBudget int64
	// SortPct defaults to 75 (the paper's X%).
	SortPct int
	// MLogPct defaults to 5 (the paper's A%).
	MLogPct int
	// ELogPct defaults to 5 (the paper's B%).
	ELogPct int
	// MaxSupersteps defaults to 15, the paper's evaluation cap.
	MaxSupersteps int
	// Workers is the vertex-processing parallelism; defaults to
	// runtime.GOMAXPROCS(0). Results, page counts and virtual device time
	// do not depend on it: sends are staged per worker and replayed in
	// vertex order.
	Workers int
	// DisableEdgeLog turns the edge-log optimizer off (ablation).
	DisableEdgeLog bool
	// DisableCombiner ignores programs' Combiner even when present
	// (ablation).
	DisableCombiner bool
	// DisableFusing processes every vertex interval's log separately
	// instead of fusing small consecutive logs into one sort batch
	// (ablation of §V-A2).
	DisableFusing bool
	// Async selects the asynchronous computation model (§V-F): an update
	// sent to a vertex interval that has not been processed yet in the
	// current superstep is delivered within this superstep; updates to
	// already-processed intervals arrive next superstep. Fixpoint
	// algorithms (BFS, SSSP, WCC, PageRank) converge in fewer supersteps;
	// phase-structured algorithms (MIS) require the synchronous model.
	Async bool
	// UtilThreshold is the inefficient-page utilization threshold;
	// defaults to 0.10.
	UtilThreshold float64
	// StopAfter, when non-nil, is consulted after every superstep with
	// the cumulative number of vertex activations; returning true ends
	// the run (used by the BFS traversal-fraction experiments).
	StopAfter func(superstep int, cumProcessed uint64) bool
	// Trace, when non-nil, receives begin/end spans for every superstep
	// and per-batch stage (load+sort, value/adjacency loads, vertex
	// processing, edge-log relog, flushes). A nil Trace costs one pointer
	// test per stage.
	Trace *obsv.Trace
	// Cache is the buffer pool attached to the graph's device, when one
	// is (nil = uncached, the paper-faithful default). The device serves
	// cached reads on its own; the engine uses this handle for
	// per-superstep counter deltas and live gauges.
	Cache *pagecache.Cache
	// Prefetcher, when non-nil (requires Cache), warms the next
	// interval's message-log and CSR pages in the background while the
	// current batch computes. The engine cancels pending work at every
	// superstep boundary and releases pin epochs one batch after their
	// pages are consumed. The caller owns the prefetcher's lifecycle.
	Prefetcher *pagecache.Prefetcher
	// CheckpointEvery commits a checkpoint to the device every K superstep
	// boundaries (see internal/ckpt). 0 disables checkpointing.
	// Checkpoint IO is charged to the device like any other IO and
	// reported per superstep (SuperstepStats.Checkpoint*).
	CheckpointEvery int
	// Resume restarts from the latest valid checkpoint on the device
	// instead of superstep 0. With no checkpoint present the run starts
	// fresh; a checkpoint whose every slot is torn or corrupt is an error
	// (ckpt.ErrCorrupt).
	Resume bool
	// Interrupt, when non-nil, requests graceful shutdown: at the next
	// superstep boundary after the channel closes (or receives), the
	// engine commits a checkpoint — even when CheckpointEvery is 0 — and
	// returns ErrInterrupted, so the run can be finished later with
	// Resume.
	Interrupt <-chan struct{}
	// SortBudget overrides the sort-and-group budget in bytes (0 derives
	// it from MemoryBudget×SortPct, the paper's split). An interval log
	// exceeding the budget no longer over-allocates: it spills through
	// sortgroup's chunked external sort-group, trading extra device IO for
	// a hard memory bound, with results identical to the in-memory path.
	SortBudget int64
	// RunTag namespaces the run's scratch files (values, message logs,
	// edge log, spill runs, checkpoints) as "<graph>.<RunTag>.*" instead
	// of "<graph>.*", so concurrent runs over one resident graph never
	// collide. Empty keeps the historical names.
	RunTag string
	// Ephemeral marks a transient query run (the serving daemon's mode):
	// an interrupt or deadline at a superstep boundary returns without
	// committing a checkpoint, and every scratch file is removed when the
	// run returns, success or not. Requires RunTag (the cleanup sweep is
	// prefix-based) and is incompatible with CheckpointEvery and Resume.
	Ephemeral bool
	// Scope, when non-nil, attributes the run's device IO to a per-run
	// ssd.IOScope: stage tags, the retry-layer run context, and the
	// stats/interval counters the engine reads per superstep all resolve
	// against the scope instead of the device-global slots. Required for
	// correct attribution when several runs share one device; checkpoint
	// slot IO (ckpt files are not scoped) still lands device-global.
	Scope *ssd.IOScope
}

func (c Config) withDefaults() Config {
	if c.MemoryBudget <= 0 {
		c.MemoryBudget = 64 << 20
	}
	if c.SortPct <= 0 {
		c.SortPct = 75
	}
	if c.MLogPct <= 0 {
		c.MLogPct = 5
	}
	if c.ELogPct <= 0 {
		c.ELogPct = 5
	}
	if c.MaxSupersteps <= 0 {
		c.MaxSupersteps = 15
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.UtilThreshold <= 0 {
		c.UtilThreshold = edgelog.DefaultThreshold
	}
	return c
}

// reclaimState tracks what the run can safely give back under disk
// pressure: the consumed intervals of the message-log generation being
// drained (marked after each batch finishes) and the stale slot of the
// newest committed checkpoint. The engine updates it at batch and boundary
// transitions; the device calls reclaim from whichever goroutine's write
// hit the quota.
type reclaimState struct {
	mu      sync.Mutex
	dev     *ssd.Device
	prefix  string
	log     *mlog.Log
	newest  uint64
	hasCkpt bool
	// ckptBusy suppresses checkpoint GC while a checkpoint write is in
	// flight: the write targets exactly the slot the bookkeeping calls
	// stale, so a reclaim triggered from inside it (a quota hit on the
	// slot's own pages) would self-deadlock trying to remove the file the
	// writer holds locked.
	ckptBusy bool
}

func (r *reclaimState) setLog(l *mlog.Log) {
	r.mu.Lock()
	r.log = l
	r.mu.Unlock()
}

func (r *reclaimState) noteCheckpoint(seq uint64) {
	r.mu.Lock()
	r.newest, r.hasCkpt = seq, true
	r.mu.Unlock()
}

func (r *reclaimState) setCkptBusy(busy bool) {
	r.mu.Lock()
	r.ckptBusy = busy
	r.mu.Unlock()
}

// reclaim is the registered device hook. Best-effort: errors are dropped —
// a sweep that frees nothing leaves the retried reservation to fail
// classified as ssd.ErrNoSpace, which is the honest outcome.
func (r *reclaimState) reclaim() {
	r.mu.Lock()
	log, newest, has := r.log, r.newest, r.hasCkpt && !r.ckptBusy
	r.mu.Unlock()
	if log != nil {
		_ = log.ReclaimConsumed()
	}
	if has {
		_ = ckpt.GCStale(r.dev, r.prefix, newest)
	}
}

// Engine runs vertex-centric programs with the MultiLogVC architecture.
type Engine struct {
	g   *csr.Graph
	cfg Config
	io  runIO
}

// New creates an engine over an opened CSR graph. With Config.Scope set,
// the engine works through a scoped view of the graph so all its CSR and
// scratch IO is attributed to the scope.
func New(g *csr.Graph, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{g: g.View(cfg.Scope), cfg: cfg, io: runIO{dev: g.Device(), sc: cfg.Scope}}
}

// runIO resolves where the run's ambient stage tag, stats, and interval
// counters live: its IOScope when configured, else the device's global
// slots (the pre-scope behavior).
type runIO struct {
	dev *ssd.Device
	sc  *ssd.IOScope
}

func (r runIO) SetStage(s obsv.Stage, iv int) (obsv.Stage, int) {
	if r.sc != nil {
		return r.sc.SetStage(s, iv)
	}
	return r.dev.SetStage(s, iv)
}

func (r runIO) Stats() ssd.Stats {
	if r.sc != nil {
		return r.sc.Stats()
	}
	return r.dev.Stats()
}

func (r runIO) IntervalIO() map[int]uint64 {
	if r.sc != nil {
		return r.sc.IntervalIO()
	}
	return r.dev.IntervalIO()
}

func (r runIO) SetRunContext(ctx context.Context) {
	if r.sc != nil {
		r.sc.SetRunContext(ctx)
		return
	}
	r.dev.SetRunContext(ctx)
}

// Result carries the run report and final vertex values. For a
// lane-batched program (vc.LaneProgram with K > 1 lanes) Values holds
// n×K slots laid out v*K+lane; apps.LaneResult extracts one query's view.
type Result struct {
	Report *metrics.Report
	Values []uint32
}

// Run executes prog to convergence or the superstep cap. When the run
// fails on a corrupt page and checkpointing is armed, Run rolls back: it
// re-executes from the newest valid checkpoint (or from scratch when none
// committed yet), up to maxRollbacks times. Corruption that persists
// through rollback — or strikes with checkpointing off — surfaces as
// ErrCorruptData wrapping the page-level failure.
func (e *Engine) Run(prog vc.Program) (*Result, error) {
	return e.RunCtx(context.Background(), prog)
}

// RunCtx is Run bounded by a context. The context reaches every layer that
// can stall: the superstep loop checks it at each boundary (committing a
// checkpoint before returning ErrDeadline, like an interrupt), the device
// retry layer abandons its backoff schedule when it expires, and the
// prefetcher wait is cut short. A deadline expiry anywhere surfaces
// classified as ErrDeadline.
func (e *Engine) RunCtx(ctx context.Context, prog vc.Program) (res *Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Contain panics from the run goroutine (engine stages, program
	// callbacks reached outside the worker pool). Deferred cleanup below
	// this frame — the ephemeral scratch sweep, SetRunContext(nil) — has
	// already run by the time the recover fires, so the device is left
	// exactly as a failed run leaves it.
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%w: %v", ErrPanic, r)
		}
	}()
	e.io.SetRunContext(ctx)
	defer e.io.SetRunContext(nil)

	res, err = e.runOnce(ctx, prog, e.cfg.Resume, 0)
	if err != nil && errors.Is(err, ssd.ErrCorruptPage) && !errors.Is(err, ErrInterrupted) {
		live := obsv.Live()
		for rollbacks := 1; e.cfg.CheckpointEvery > 0 && rollbacks <= maxRollbacks; rollbacks++ {
			live.Rollbacks.Add(1)
			res, err = e.runOnce(ctx, prog, true, rollbacks)
			if err == nil || !errors.Is(err, ssd.ErrCorruptPage) {
				break
			}
		}
		if err != nil && errors.Is(err, ssd.ErrCorruptPage) {
			return nil, fmt.Errorf("%w: %w", ErrCorruptData, err)
		}
	}
	// Deadline expiry below a boundary (device retry, prefetcher wait)
	// propagates as a raw context error; classify it like the boundary path.
	if err != nil && errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, ErrDeadline) {
		err = fmt.Errorf("%w: %w", ErrDeadline, err)
	}
	return res, err
}

// runOnce is one execution attempt: resume selects the starting point and
// rollbacks records how many rollback re-executions preceded this one.
func (e *Engine) runOnce(ctx context.Context, prog vc.Program, resume bool, rollbacks int) (*Result, error) {
	cfg := e.cfg
	cfg.Resume = resume
	g := e.g
	dev := g.Device()
	n := g.NumVertices()
	ivs := g.Intervals()
	name := g.Name()

	// RunTag namespaces every scratch file so concurrent runs over one
	// resident graph never collide.
	base := name
	auxName := prog.Name()
	if cfg.RunTag != "" {
		base = name + "." + cfg.RunTag
		auxName = prog.Name() + "." + cfg.RunTag
	}

	// Lane-batched programs fan K point queries into one execution. Lanes
	// rule out checkpoint/resume (snapshots are single-lane) and Combiner
	// (messages of different lanes must never merge).
	lanes := 1
	laneProg, _ := prog.(vc.LaneProgram)
	if laneProg != nil {
		if lanes = laneProg.Lanes(); lanes < 1 {
			lanes = 1
		}
	}
	if lanes > 1 {
		if cfg.CheckpointEvery > 0 || cfg.Resume {
			return nil, fmt.Errorf("core: lane-batched program %q does not support checkpointing or resume", prog.Name())
		}
		if _, ok := prog.(vc.Combiner); ok {
			return nil, fmt.Errorf("core: lane-batched program %q must not implement vc.Combiner", prog.Name())
		}
	}

	if cfg.Ephemeral {
		if cfg.RunTag == "" {
			return nil, fmt.Errorf("core: Ephemeral requires RunTag (scratch cleanup sweeps the run's name prefix)")
		}
		if cfg.CheckpointEvery > 0 || cfg.Resume {
			return nil, fmt.Errorf("core: Ephemeral is incompatible with checkpointing and resume")
		}
		// Leave nothing behind, success or failure: the run's scratch
		// namespace (values, message logs, edge log, spill runs) and any
		// aux arrays are swept when the run returns.
		defer func() {
			_, _ = dev.RemovePrefix(base + ".")
			_, _ = dev.RemovePrefix(fmt.Sprintf("%s.aux.%s.", name, auxName))
		}()
	}

	report := &metrics.Report{Engine: "multilogvc", App: prog.Name(), Graph: name}
	report.Rollbacks = rollbacks
	wallStart := time.Now()

	// Resume: load the newest committed checkpoint before creating any
	// run state, so every unit below initializes straight from it. A
	// missing checkpoint degrades to a fresh start; a corrupt one (every
	// slot torn or CRC-invalid) is an error the caller can distinguish
	// via ckpt.ErrCorrupt.
	ckptPrefix := base + "." + prog.Name()
	var rst *ckpt.State
	var ckptSeq uint64
	startStep := 0
	if cfg.Resume {
		prevS, prevIv := e.io.SetStage(obsv.StageCheckpoint, -1)
		st, err := ckpt.Load(dev, ckptPrefix)
		e.io.SetStage(prevS, prevIv)
		switch {
		case errors.Is(err, ckpt.ErrNoCheckpoint):
			// Nothing to resume from: run from superstep 0.
		case err != nil:
			return nil, err
		case st.App != prog.Name() || st.Graph != name || st.NumVertices != n:
			return nil, fmt.Errorf("core: checkpoint is for %s/%s (%d vertices), run is %s/%s (%d vertices)",
				st.App, st.Graph, st.NumVertices, prog.Name(), name, n)
		default:
			rst = st
			startStep = st.Step
			ckptSeq = st.Seq + 1
		}
	}

	initLane := func(v uint32, lane int) uint32 {
		if laneProg != nil {
			return laneProg.InitValueLane(v, lane, n)
		}
		return prog.InitValue(v, n)
	}
	if rst != nil { // resume implies lanes == 1
		initLane = func(v uint32, _ int) uint32 { return rst.Values[v] }
	}
	values, err := csr.CreateValuesLanesFunc(dev, base+".values", n, lanes, cfg.Scope, initLane)
	if err != nil {
		return nil, err
	}

	var aux *csr.Aux
	auxUser, isAux := prog.(vc.AuxUser)
	if isAux {
		aux, err = csr.CreateAux(g, auxName, auxUser.AuxInit(n))
		if err != nil {
			return nil, err
		}
	}

	var combiner vc.Combiner
	if c, ok := prog.(vc.Combiner); ok && !cfg.DisableCombiner {
		combiner = c
	}

	mlogBudget := cfg.MemoryBudget * int64(cfg.MLogPct) / 100
	sortBudget := cfg.MemoryBudget * int64(cfg.SortPct) / 100
	if cfg.SortBudget > 0 {
		sortBudget = cfg.SortBudget
	}
	sortOpts := sortgroup.Options{SortBudget: sortBudget, NoFuse: cfg.DisableFusing}
	// The run owns the sort-group's scratch: every batch's load reads and
	// sorts into it, and it is dropped when the run returns.
	sortScratch := new(sortgroup.Scratch)
	tr := cfg.Trace
	curLog, err := mlog.New(dev, base+".mlog.0", len(ivs), mlogBudget)
	if err != nil {
		return nil, err
	}
	nextLog, err := mlog.New(dev, base+".mlog.1", len(ivs), mlogBudget)
	if err != nil {
		return nil, err
	}
	curLog.SetTracer(tr)
	nextLog.SetTracer(tr)
	curLog.SetScope(cfg.Scope)
	nextLog.SetScope(cfg.Scope)

	var elog *edgelog.EdgeLog
	var pred *edgelog.Predictor
	if !cfg.DisableEdgeLog {
		elog, err = edgelog.New(dev, base+".elog", g.HasWeights())
		if err != nil {
			return nil, err
		}
		elog.SetTracer(tr)
		elog.SetScope(cfg.Scope)
		pred = edgelog.NewPredictor(n, dev.PageSize(), cfg.UtilThreshold)
	}
	elogBudget := cfg.MemoryBudget * int64(cfg.ELogPct) / 100

	// carry holds vertices that are live without needing a message
	// (processed last superstep and did not vote to halt); messages in
	// the current log activate the rest.
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

	// Space governance: register what this run can give back when a write
	// hits the disk quota — consumed intervals of the previous-generation
	// message log and the stale checkpoint slot. The device runs these
	// hooks and retries the failing write once before surfacing ErrNoSpace.
	rcl := &reclaimState{dev: dev, prefix: ckptPrefix}
	rcl.setLog(curLog)
	if rst != nil {
		rcl.noteCheckpoint(rst.Seq)
	}
	unregister := dev.AddReclaimer(rcl.reclaim)
	defer unregister()

	// Hoisted prefetcher cleanup: every early return below (load error,
	// batch error, checkpoint error, context expiry) must drop the pin
	// epochs covering in-flight batches, or the pinned frames would stay
	// unevictable for the life of the cache.
	if pf := cfg.Prefetcher; pf != nil {
		defer func() {
			pf.CancelPending()
			pf.WaitIdle()
			pf.ReleaseAll()
		}()
	}

	var sends sendstage.Buffers[mlog.Update]
	var mutBufs sendstage.Buffers[vc.Mutation]
	var msgBufs sendstage.Buffers[vc.Msg]
	var cumProcessed uint64
	converged := false
	live := obsv.Live()
	live.Runs.Add(1)

	if rst != nil {
		prevS, prevIv := e.io.SetStage(obsv.StageCheckpoint, -1)
		err := restoreState(rst, carry, aux, curLog, elog, pred, report)
		e.io.SetStage(prevS, prevIv)
		if err != nil {
			return nil, err
		}
		cumProcessed = rst.CumProcessed
		live.Resumes.Add(1)
	}

	for step := startStep; step < cfg.MaxSupersteps; step++ {
		select {
		case <-cfg.Interrupt:
			// Graceful shutdown: the boundary state is consistent, so
			// commit it — regardless of CheckpointEvery — and classify the
			// exit so the caller knows a resume will pick up here. An
			// ephemeral run has nothing worth resuming: it returns
			// immediately and its scratch is swept by the deferred cleanup.
			if cfg.Ephemeral {
				return nil, fmt.Errorf("%w at superstep %d", ErrInterrupted, step)
			}
			rcl.setCkptBusy(true)
			err := e.writeCheckpoint(ckptPrefix, ckptSeq, step, cumProcessed,
				values, carry, aux, isAux, curLog, elog, pred, report, nil)
			rcl.setCkptBusy(false)
			if err != nil {
				return nil, fmt.Errorf("core: interrupt checkpoint: %w", err)
			}
			return nil, fmt.Errorf("%w at superstep %d", ErrInterrupted, step)
		case <-ctx.Done():
			// Deadline or cancellation: same graceful boundary exit as an
			// interrupt, classified so the caller can tell them apart.
			cause := ErrInterrupted
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				cause = ErrDeadline
			}
			if cfg.Ephemeral {
				return nil, fmt.Errorf("%w at superstep %d", cause, step)
			}
			rcl.setCkptBusy(true)
			err := e.writeCheckpoint(ckptPrefix, ckptSeq, step, cumProcessed,
				values, carry, aux, isAux, curLog, elog, pred, report, nil)
			rcl.setCkptBusy(false)
			if err != nil {
				return nil, fmt.Errorf("core: deadline checkpoint: %w", err)
			}
			return nil, fmt.Errorf("%w at superstep %d (checkpoint committed)", cause, step)
		default:
		}
		var stepMuts []vc.Mutation
		if !carry.Any() && curLog.Total() == 0 {
			converged = true
			break
		}
		stepStart := time.Now()
		devBefore := e.io.Stats()
		ivBefore := e.io.IntervalIO()
		var cacheBefore pagecache.Stats
		if cache := cfg.Cache; cache != nil {
			cacheBefore = cache.Stats()
		}
		ss := metrics.SuperstepStats{Superstep: step}
		ss.MsgSkew = intervalSkew(curLog, len(ivs))
		stepSpan := tr.Begin("engine", "superstep")
		stepSpan.Arg("step", int64(step))

		pf := cfg.Prefetcher
		var pfEpoch uint64 // pins covering the batch about to be processed
		for ivStart := 0; ivStart < len(ivs); {
			loadSpan := tr.Begin("engine", "load+sort")
			loadBefore := e.io.Stats()
			batch, err := sortgroup.Load(curLog, ivs, ivStart, sortOpts, sortScratch)
			if err != nil {
				return nil, err
			}
			loadSpan.Arg("pages_read", int64(e.io.Stats().Sub(loadBefore).PagesRead))
			loadSpan.Arg("first_iv", int64(batch.FirstIv))
			loadSpan.Arg("last_iv", int64(batch.LastIv))
			loadSpan.Arg("records", int64(len(batch.Recs)))
			if batch.Spilled {
				loadSpan.Arg("spill_bytes", batch.SpillBytes())
				ss.Spills++
				ss.SpillBytes += uint64(batch.SpillBytes())
			}
			loadSpan.End()

			// Warm the next batch's first interval in the background while
			// this batch computes: its message-log pages plus the value and
			// CSR pages of its predicted-active vertices.
			var nextEpoch uint64
			if pf != nil {
				if nextIv := batch.LastIv + 1; nextIv < len(ivs) {
					pfSpan := tr.Begin("engine", "prefetch-submit")
					nextEpoch = pf.BeginEpoch()
					jobs := e.planPrefetch(nextIv, curLog, values, carry, pred, elog)
					pf.Submit(nextEpoch, jobs...)
					pfSpan.Arg("iv", int64(nextIv))
					pfSpan.Arg("jobs", int64(len(jobs)))
					pfSpan.End()
				}
			}

			// A spilled batch arrives in destination-aligned chunks, each
			// within the sort budget; an in-memory batch is one chunk. The
			// chunks tile the interval's vertex range, so every vertex —
			// message-activated or carry-only — is processed exactly once.
			procSpan := tr.Begin("engine", "process-batch")
			procSpan.Arg("first_iv", int64(batch.FirstIv))
			procBefore := e.io.Stats()
			for err == nil {
				if err = e.processBatch(&batchRun{
					prog: prog, combiner: combiner, aux: aux, isAux: isAux,
					values: values, batch: batch, carry: carry, step: step,
					elog: elog, pred: pred, elogBudget: elogBudget,
					nextLog: nextLog, curLog: curLog, ss: &ss,
					muts: &stepMuts, sends: &sends, mutBufs: &mutBufs, msgBufs: &msgBufs, lanes: lanes,
				}); err != nil {
					break
				}
				more, cerr := batch.NextChunk()
				if cerr != nil || !more {
					err = cerr
					break
				}
			}
			batch.Close()
			if err != nil {
				return nil, err
			}
			procDelta := e.io.Stats().Sub(procBefore)
			procSpan.Arg("pages_read", int64(procDelta.PagesRead))
			procSpan.Arg("pages_written", int64(procDelta.PagesWritten))
			procSpan.End()
			// The batch is fully drained: its intervals are never re-read
			// this generation, so the device may reclaim their log pages
			// under disk pressure.
			curLog.MarkConsumed(batch.FirstIv, batch.LastIv)
			if pf != nil {
				// The pages pinned for this batch have been consumed; the
				// ones pinned for the next batch stay until it finishes.
				if pfEpoch != 0 {
					pf.ReleaseEpoch(pfEpoch)
				}
				pfEpoch = nextEpoch
			}
			ivStart = batch.LastIv + 1
		}
		if pf != nil {
			// Superstep boundary: stale predictions are worthless and the
			// graph may mutate below — cancel queued jobs, wait out the one
			// in flight (bounded by the run context), and drop every
			// remaining pin.
			pf.CancelPending()
			waitErr := pf.WaitIdleCtx(ctx)
			pf.ReleaseAll()
			if waitErr != nil {
				return nil, waitErr
			}
		}

		// Apply structural mutations at the superstep boundary (§V-E):
		// they become visible at the start of the next superstep.
		if len(stepMuts) > 0 && isAux {
			// Merging rewrites the in-CSR the aux layout mirrors; the aux
			// file would go stale. The paper's aux-state programs (CDLP,
			// GC) do not mutate structure either.
			return nil, fmt.Errorf("core: structural mutation is not supported for programs with per-in-edge aux state")
		}
		if len(stepMuts) > 0 && cfg.CheckpointEvery > 0 {
			// Checkpoints snapshot run state, not the CSR itself; a
			// mutated graph would not match the snapshot on resume.
			return nil, fmt.Errorf("core: structural mutation is not supported with checkpointing enabled")
		}
		if len(stepMuts) > 0 {
			// One batch per boundary: a single WAL group commit and a
			// single published epoch cover the whole superstep's mutations.
			ms := make([]csr.Mutation, len(stepMuts))
			for i, m := range stepMuts {
				ms[i] = csr.Mutation{Del: !m.Add, Src: m.Src, Dst: m.Dst, Weight: m.Weight}
			}
			if err := g.ApplyMutations(ms, 0); err != nil {
				return nil, err
			}
		}

		flushSpan := tr.Begin("engine", "flush-logs")
		// The boundary flush drains message-log pages the vertex stage
		// produced; it belongs to the same traffic class as the in-batch
		// Send evictions.
		prevS, prevIv := e.io.SetStage(obsv.StageVertex, -1)
		err := nextLog.FlushAll()
		e.io.SetStage(prevS, prevIv)
		if err != nil {
			return nil, err
		}
		if elog != nil {
			st := pred.EndSuperstep()
			ss.InefficientPages = st.InefficientPages
			ss.PredictedIneff = st.PredictedIneff
			ss.CorrectPredicted = st.Correct
			ss.UtilPagesTouched = st.PagesTouched
			prevS, prevIv := e.io.SetStage(obsv.StageRelog, -1)
			err := elog.EndSuperstep()
			e.io.SetStage(prevS, prevIv)
			if err != nil {
				return nil, err
			}
		}

		curLog, nextLog = nextLog, curLog
		rcl.setLog(curLog)
		if err := nextLog.ResetAll(); err != nil {
			return nil, err
		}
		flushSpan.End()

		devDelta := e.io.Stats().Sub(devBefore)
		ss.Stages = metrics.StagesFromDevice(devDelta)
		// Interval-level IO skew: how unevenly this superstep's tagged
		// device traffic spread over the vertex intervals. The histogram
		// keeps the shape; IOSkew (busiest/mean) flags stragglers that
		// message-count skew alone can miss (a hot interval whose log is
		// small but whose spill or CSR traffic is not).
		var maxIvP, sumIvP uint64
		var nIv int
		for iv, p := range e.io.IntervalIO() {
			d := p - ivBefore[iv]
			if d == 0 {
				continue
			}
			ss.IntervalPages.Observe(d)
			sumIvP += d
			nIv++
			if d > maxIvP {
				maxIvP = d
			}
		}
		if sumIvP > 0 {
			ss.IOSkew = float64(maxIvP) * float64(nIv) / float64(sumIvP)
		}
		ss.PagesRead = devDelta.PagesRead
		ss.PagesWritten = devDelta.PagesWritten
		ss.StorageTime = devDelta.StorageTime()
		ss.ComputeTime = time.Since(stepStart)
		ss.ReadBatchPages = devDelta.ReadBatchPages
		ss.WriteBatchPages = devDelta.WriteBatchPages
		ss.ReadLatencyUS = devDelta.ReadLatencyUS
		ss.WriteLatencyUS = devDelta.WriteLatencyUS
		ss.TransientFaults = devDelta.TransientFaults
		ss.Retries = devDelta.Retries
		ss.RetryBackoff = devDelta.RetryBackoff
		ss.RetriesExhausted = devDelta.RetriesExhausted
		ss.CorruptPages = devDelta.CorruptPages
		ss.NoSpaceFaults = devDelta.NoSpaceFaults
		ss.Reclaims = devDelta.Reclaims
		ss.ReclaimedBytes = devDelta.ReclaimedBytes
		if cache := cfg.Cache; cache != nil {
			cd := cache.Stats().Sub(cacheBefore)
			ss.CacheHits = cd.Hits
			ss.CacheMisses = cd.Misses
			ss.CacheEvictions = cd.Evictions
			ss.PrefetchInserts = cd.PrefetchInserts
			ss.PrefetchHits = cd.PrefetchHits
			ss.PrefetchDropped = cd.PrefetchDropped
			live.CacheHitRate.Set(cd.HitRate())
			live.CacheResident.Set(int64(cache.Resident()))
			live.PrefetchAcc.Set(cd.PrefetchAccuracy())
			stepSpan.Arg("cache_hits", int64(cd.Hits))
			stepSpan.Arg("cache_misses", int64(cd.Misses))
			stepSpan.Arg("prefetch_warmed", int64(cd.PrefetchInserts))
		}
		cumProcessed += ss.Active

		// Checkpoint at the boundary every K supersteps. The snapshot's
		// IO is charged to the device and folded into this superstep's
		// stats, so checkpoint overhead shows up in per-step exports and
		// report totals.
		if k := cfg.CheckpointEvery; k > 0 && (step+1)%k == 0 {
			ckSpan := tr.Begin("engine", "checkpoint")
			ckSpan.Arg("step", int64(step+1))
			ckBefore := e.io.Stats()
			var ckCacheBefore pagecache.Stats
			if cache := cfg.Cache; cache != nil {
				ckCacheBefore = cache.Stats()
			}
			rcl.setCkptBusy(true)
			err := e.writeCheckpoint(ckptPrefix, ckptSeq, step+1, cumProcessed,
				values, carry, aux, isAux, curLog, elog, pred, report, &ss)
			rcl.setCkptBusy(false)
			if err != nil {
				return nil, err
			}
			rcl.noteCheckpoint(ckptSeq)
			ckptSeq++
			ckDelta := e.io.Stats().Sub(ckBefore)
			ss.Stages = metrics.MergeStages(ss.Stages, metrics.StagesFromDevice(ckDelta))
			if cache := cfg.Cache; cache != nil {
				// The snapshot reads go through the cache too; fold their
				// hit/miss delta in so the stage rows' cache counters keep
				// summing to the superstep totals.
				ckCd := cache.Stats().Sub(ckCacheBefore)
				ss.CacheHits += ckCd.Hits
				ss.CacheMisses += ckCd.Misses
				ss.CacheEvictions += ckCd.Evictions
			}
			ss.Checkpoints = 1
			ss.CheckpointPages = ckDelta.PagesRead + ckDelta.PagesWritten
			ss.CheckpointTime = ckDelta.StorageTime()
			ss.PagesRead += ckDelta.PagesRead
			ss.PagesWritten += ckDelta.PagesWritten
			ss.StorageTime += ckDelta.StorageTime()
			ss.TransientFaults += ckDelta.TransientFaults
			ss.Retries += ckDelta.Retries
			ss.RetryBackoff += ckDelta.RetryBackoff
			ss.RetriesExhausted += ckDelta.RetriesExhausted
			ss.CorruptPages += ckDelta.CorruptPages
			ss.NoSpaceFaults += ckDelta.NoSpaceFaults
			ss.Reclaims += ckDelta.Reclaims
			ss.ReclaimedBytes += ckDelta.ReclaimedBytes
			live.Checkpoints.Add(1)
			ckSpan.Arg("pages", int64(ss.CheckpointPages))
			ckSpan.End()
		}

		report.Supersteps = append(report.Supersteps, ss)

		stepSpan.Arg("active", int64(ss.Active))
		stepSpan.Arg("msgs_sent", int64(ss.MsgsSent))
		stepSpan.Arg("pages_read", int64(ss.PagesRead))
		stepSpan.Arg("pages_written", int64(ss.PagesWritten))
		stepSpan.End()
		publishLive(live, &ss)

		if cfg.StopAfter != nil && cfg.StopAfter(step, cumProcessed) {
			break
		}
	}
	if !converged {
		converged = !carry.Any() && curLog.Total() == 0
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

// writeCheckpoint snapshots the run state at the boundary after superstep
// step-1 (so step is the next superstep to execute) and commits it with
// ckpt.Save. All reads it issues (value pages, message-log pages, edge-log
// pages, aux pages) go through the device and are charged as checkpoint
// overhead by the caller.
// ss is the in-progress superstep to include in the snapshot's report
// history; nil (the interrupt path) snapshots completed supersteps only.
func (e *Engine) writeCheckpoint(prefix string, seq uint64, step int, cumProcessed uint64,
	values *csr.Values, carry *bitset.Set, aux *csr.Aux, isAux bool,
	curLog *mlog.Log, elog *edgelog.EdgeLog, pred *edgelog.Predictor,
	report *metrics.Report, ss *metrics.SuperstepStats) error {

	// All snapshot IO — the state reads below and ckpt.Save's slot writes —
	// is checkpoint overhead, tagged here so every call site (periodic,
	// interrupt, deadline) attributes identically.
	prevS, prevIv := e.io.SetStage(obsv.StageCheckpoint, -1)
	defer e.io.SetStage(prevS, prevIv)

	st := &ckpt.State{
		App:          report.App,
		Graph:        report.Graph,
		Seq:          seq,
		Step:         step,
		NumVertices:  e.g.NumVertices(),
		CumProcessed: cumProcessed,
		Carry:        carry.Words(),
	}
	var err error
	if st.Values, err = values.LoadAll(); err != nil {
		return err
	}
	st.Msgs = make([][]ckpt.MsgRec, curLog.NumIntervals())
	for iv := range st.Msgs {
		recs := make([]ckpt.MsgRec, 0, curLog.Count(iv))
		if err := curLog.Read(iv, func(dst, src, data uint32) {
			recs = append(recs, ckpt.MsgRec{Dst: dst, Src: src, Data: data})
		}); err != nil {
			return err
		}
		st.Msgs[iv] = recs
	}
	if elog != nil {
		if _, err := elog.Dump(func(v uint32, nbrs, weights []uint32) {
			ent := ckpt.ElogEntry{V: v, Nbrs: append([]uint32(nil), nbrs...)}
			if weights != nil {
				ent.Weights = append([]uint32(nil), weights...)
			}
			st.Elog = append(st.Elog, ent)
		}); err != nil {
			if !errors.Is(err, ssd.ErrCorruptPage) {
				return err
			}
			// A corrupt edge-log page under the checkpointer: the log is
			// redundant with CSR, so heal — drop the generation and
			// snapshot without it — rather than fail the checkpoint.
			st.Elog = nil
			if ierr := elog.InvalidateCurrent(); ierr != nil {
				return ierr
			}
			if ss != nil {
				ss.ElogHealed++
			}
		}
	}
	if pred != nil {
		st.PredActive, st.PredIneff = pred.History()
	}
	if isAux {
		if st.Aux, err = aux.DumpAll(); err != nil {
			return err
		}
	}
	// Completed supersteps including the current one; its Checkpoint*
	// fields are zero in the snapshot (the cost is only known after Save).
	st.Supersteps = append([]metrics.SuperstepStats(nil), report.Supersteps...)
	if ss != nil {
		st.Supersteps = append(st.Supersteps, *ss)
	}
	return ckpt.Save(e.g.Device(), prefix, st)
}

// restoreState rehydrates every engine unit from a loaded checkpoint: the
// carry bitset, aux files, the current-generation message log, the edge
// log (replayed into the next generation, then swapped current), the
// predictor's history, and the report's completed supersteps.
func restoreState(rst *ckpt.State, carry *bitset.Set, aux *csr.Aux,
	curLog *mlog.Log, elog *edgelog.EdgeLog, pred *edgelog.Predictor,
	report *metrics.Report) error {

	carry.SetWords(rst.Carry)
	if aux != nil && rst.Aux != nil {
		if err := aux.RestoreAll(rst.Aux); err != nil {
			return err
		}
	}
	if len(rst.Msgs) != curLog.NumIntervals() {
		return fmt.Errorf("core: checkpoint has %d message-log intervals, graph has %d",
			len(rst.Msgs), curLog.NumIntervals())
	}
	for iv, recs := range rst.Msgs {
		for _, r := range recs {
			if err := curLog.Append(iv, r.Dst, r.Src, r.Data); err != nil {
				return err
			}
		}
	}
	// The edge log is an adjacency cache: replay only when the optimizer
	// is still on; dropping it costs CSR reads, never correctness.
	if elog != nil && len(rst.Elog) > 0 {
		for _, ent := range rst.Elog {
			if err := elog.LogEdges(ent.V, ent.Nbrs, ent.Weights); err != nil {
				return err
			}
		}
		if err := elog.EndSuperstep(); err != nil {
			return err
		}
	}
	if pred != nil && rst.PredActive != nil {
		pred.RestoreHistory(rst.PredActive, rst.PredIneff)
	}
	report.Supersteps = append(report.Supersteps, rst.Supersteps...)
	report.Resumed = true
	report.ResumeStep = rst.Step
	return nil
}

// maxPrefetchVerts caps how many predicted-active vertices one prefetch
// plan expands into page sets, bounding plan time on dense intervals.
const maxPrefetchVerts = 1 << 16

// planPrefetch builds the warm jobs for interval nextIv, to run while the
// current batch computes. The prediction is the same signal the edge-log
// optimizer uses: a vertex is expected active next if it carried over
// live or its activity history predicts it (Predictor.PredictActive).
// Three page families are warmed, all pinned until the consuming batch
// releases the epoch:
//
//  1. the interval's message-log pages (sortgroup will read them whole),
//  2. the value pages of the predicted vertices,
//  3. their CSR pages — row-pointer pages up front (pure arithmetic),
//     column-index pages via a second-stage Expand that reads the row
//     entries through the now-warm cache on the prefetch worker.
//
// Everything here runs on the engine goroutine except the Expand closure,
// which touches only thread-safe state (device files and the graph's
// immutable layout).
func (e *Engine) planPrefetch(nextIv int, curLog *mlog.Log, values *csr.Values,
	carry *bitset.Set, pred *edgelog.Predictor, elog *edgelog.EdgeLog) []pagecache.Job {

	var jobs []pagecache.Job
	if f, pages := curLog.FilePages(nextIv); f != nil {
		jobs = append(jobs, pagecache.Job{File: f, Pages: pages, Pin: true})
	}

	iv := e.g.Intervals()[nextIv]
	verts := make([]uint32, 0, 256)
	for v := iv.Lo; v < iv.Hi && len(verts) < maxPrefetchVerts; v++ {
		if carry.Test(int(v)) || (pred != nil && pred.PredictActive(v)) {
			verts = append(verts, v)
		}
	}
	if len(verts) == 0 {
		return jobs
	}

	if pages := values.PagesForVerts(verts); len(pages) > 0 {
		jobs = append(jobs, pagecache.Job{File: values.File(), Pages: pages, Pin: true})
	}

	// Adjacency: only vertices the edge log will not serve read CSR pages.
	csrVerts := verts
	if elog != nil {
		csrVerts = make([]uint32, 0, len(verts))
		for _, v := range verts {
			if !elog.Has(v) {
				csrVerts = append(csrVerts, v)
			}
		}
	}
	if rowF, rowPages := e.g.OutRowPages(nextIv, csrVerts); rowF != nil && len(rowPages) > 0 {
		jobs = append(jobs, pagecache.Job{
			File: rowF, Pages: rowPages, Pin: true,
			Expand: func() ([]pagecache.Job, error) {
				colF, colPages, err := e.g.OutColPages(nextIv, csrVerts)
				if err != nil {
					return nil, err
				}
				if colF == nil || len(colPages) == 0 {
					return nil, nil
				}
				return []pagecache.Job{{File: colF, Pages: colPages, Pin: true}}, nil
			},
		})
	}
	return jobs
}

// batchRun bundles the state of one fused-interval batch.
type batchRun struct {
	prog       vc.Program
	combiner   vc.Combiner
	aux        *csr.Aux
	isAux      bool
	values     *csr.Values
	batch      *sortgroup.Batch
	carry      *bitset.Set
	step       int
	elog       *edgelog.EdgeLog
	pred       *edgelog.Predictor
	elogBudget int64
	nextLog    *mlog.Log
	curLog     *mlog.Log
	ss         *metrics.SuperstepStats
	muts       *[]vc.Mutation
	// sends and mutBufs are the run's per-worker staging buffers, and
	// msgBufs the workers' message scratch, all reused by every round.
	sends   *sendstage.Buffers[mlog.Update]
	mutBufs *sendstage.Buffers[vc.Mutation]
	msgBufs *sendstage.Buffers[vc.Msg]
	// lanes is the program's lane count: a lane-batched vertex may send
	// along each out-edge once per lane.
	lanes int
}

// adjEntry is one active vertex's adjacency, plus where it came from.
// processBatch keeps one per active vertex, parallel to the batch's
// vertices; the lists alias the arenas of the loads that decoded them.
type adjEntry struct {
	nbrs      []uint32
	weights   []uint32 // nil for unweighted graphs
	fromElog  bool
	pageIneff bool // any covering CSR page measured inefficient now
	interval  int32
	firstPage int32
	lastPage  int32
}

func (e *Engine) processBatch(br *batchRun) error {
	batch := br.batch
	// Everything this batch touches — value pages, adjacency, aux, and the
	// message-log evictions its replayed sends trigger — is vertex-processing
	// IO on the batch's interval range. Workers issue no device IO: their
	// sends are staged and replayed on this goroutine under this tag.
	prevS, prevIv := e.io.SetStage(obsv.StageVertex, batch.FirstIv)
	defer e.io.SetStage(prevS, prevIv)
	recs := batch.Recs
	verts, msgRange := activeVertices(recs, br.carry, batch.Lo, batch.Hi)
	if len(verts) == 0 {
		return nil
	}
	br.ss.Active += uint64(len(verts))
	br.ss.MsgsDelivered += uint64(len(batch.Recs))
	if br.pred != nil {
		for _, v := range verts {
			br.pred.NoteActive(v)
		}
	}

	tr := e.cfg.Trace

	// Load values for exactly the covering pages of the active set.
	valSpan := tr.Begin("engine", "load-values")
	valSpan.Arg("verts", int64(len(verts)))
	vb, _, err := br.values.LoadForVerts(verts)
	if err != nil {
		return err
	}
	valSpan.End()

	// Split adjacency sources: edge log vs CSR, then load both. Each load
	// visits its vertices in ascending order, a subsequence of verts, so
	// entry binds each visit to its slot by advancing a cursor.
	adjSpan := tr.Begin("engine", "load-adjacency")
	adj := make([]adjEntry, len(verts))
	cursor := 0
	entry := func(v uint32) *adjEntry {
		for verts[cursor] != v {
			cursor++
		}
		cursor++
		return &adj[cursor-1]
	}
	var fromLog []uint32
	if br.elog != nil {
		for i, v := range verts {
			if br.elog.Has(v) {
				fromLog = append(fromLog, v)
				adj[i].fromElog = true
			}
		}
	}
	if len(fromLog) > 0 {
		pages, err := br.elog.Load(fromLog, func(v uint32, nbrs, weights []uint32) {
			a := entry(v)
			a.nbrs, a.weights = nbrs, weights
		})
		switch {
		case errors.Is(err, ssd.ErrCorruptPage):
			// Self-healing: the edge log is a redundant adjacency cache, so
			// a corrupt page costs the whole current generation — never
			// correctness. Load batches all its page reads before the first
			// visit, so no partial adjacency was delivered; reroute every
			// log-resident vertex to canonical CSR loading below.
			if ierr := br.elog.InvalidateCurrent(); ierr != nil {
				return ierr
			}
			br.ss.ElogHealed++
			for i := range adj {
				adj[i].fromElog = false
			}
			fromLog = nil
		case err != nil:
			return err
		default:
			br.ss.EdgeLogPagesRead += uint64(pages)
		}
	}
	csrVerts := verts
	if len(fromLog) > 0 {
		csrVerts = make([]uint32, 0, len(verts)-len(fromLog))
		for i, v := range verts {
			if !adj[i].fromElog {
				csrVerts = append(csrVerts, v)
			}
		}
	}
	// Per-interval loads take runs of the ascending CSR-served vertices.
	cursor = 0
	for lo := 0; lo < len(csrVerts); {
		iv, hi := e.intervalRun(csrVerts, lo)
		first := cursor
		stats, err := e.g.LoadOutEdgesFull(iv, csrVerts[lo:hi], func(v uint32, nbrs, weights []uint32, fp, lp int32) {
			*entry(v) = adjEntry{nbrs: nbrs, weights: weights, interval: int32(iv), firstPage: fp, lastPage: lp}
		})
		if err != nil {
			return err
		}
		br.ss.ColIdxPagesRead += uint64(stats.ColIdxPages)
		if br.pred != nil {
			br.pred.NotePageUtils(stats.PageUtils)
			// Mark vertices whose pages measured inefficient this
			// superstep; the edge-log decision reads this below.
			for i := first; i < cursor; i++ {
				a := &adj[i]
				if a.fromElog {
					continue
				}
				for p := a.firstPage; p <= a.lastPage; p++ {
					if br.pred.PageIneffNow(csr.PageKey{Side: 0, Interval: a.interval, Page: p}) {
						a.pageIneff = true
						break
					}
				}
			}
		}
		lo = hi
	}

	adjSpan.Arg("from_elog", int64(len(fromLog)))
	adjSpan.Arg("from_csr", int64(len(csrVerts)))
	adjSpan.End()

	// Aux state for AuxUser programs: per-vertex aux slices and in-edge
	// sources, parallel to verts like adj.
	var auxSpan obsv.Span
	var auxBatches []*csr.AuxBatch
	var auxOf, inSources [][]uint32
	if br.isAux {
		auxSpan = tr.Begin("engine", "load-aux")
		auxOf = make([][]uint32, len(verts))
		inSources = make([][]uint32, len(verts))
		for lo := 0; lo < len(verts); {
			iv, hi := e.intervalRun(verts, lo)
			group := verts[lo:hi]
			ab, _, err := br.aux.LoadBatch(iv, group)
			if err != nil {
				return err
			}
			auxBatches = append(auxBatches, ab)
			for j, v := range group {
				auxOf[lo+j] = ab.Get(v)
			}
			j := lo
			if _, err := e.g.LoadInEdges(iv, group, func(_ uint32, srcs []uint32) {
				inSources[j] = srcs
				j++
			}); err != nil {
				return err
			}
			lo = hi
		}
	}
	auxSpan.End()

	// Process the vertices in rounds. A round closes once its vertices'
	// out-degrees (+1 each, times the lane count for lane-batched
	// programs) reach the multi-log buffer budget in records, which bounds
	// the sends staged before the round is replayed into the logs. Cuts
	// depend only on the input, and the replay appends in vertex order
	// whatever the cuts, so rounds never change the logs.
	procSpan := tr.Begin("engine", "process-vertices")
	procSpan.Arg("verts", int64(len(verts)))
	halted := make([]bool, len(verts))
	proto := engineCtx{eng: e, br: br, vb: vb, adj: adj, inSources: inSources, aux: auxOf,
		verts: verts, msgRange: msgRange, halted: halted}
	roundRecs := int(br.nextLog.Budget() / mlog.RecordBytes)
	for lo := 0; lo < len(verts); {
		hi, deg := lo, 0
		for hi < len(verts) && deg < roundRecs {
			deg += 1 + len(adj[hi].nbrs)*br.lanes
			hi++
		}
		if err := e.processRound(proto, lo, hi); err != nil {
			return err
		}
		lo = hi
	}
	procSpan.End()

	// Update the carry set: processed vertices stay live unless halted.
	for i, v := range verts {
		br.carry.SetTo(int(v), !halted[i])
	}

	// Edge-log decisions (single-threaded; the log writer is not
	// concurrent): log CSR-served vertices predicted active whose pages
	// were inefficient, within the edge-log buffer budget.
	if br.elog != nil {
		relogSpan := tr.Begin("engine", "edgelog-relog")
		e.io.SetStage(obsv.StageRelog, batch.FirstIv)
		for i, v := range verts {
			a := &adj[i]
			if a.fromElog || len(a.nbrs) == 0 || !a.pageIneff {
				continue
			}
			if !br.pred.PredictActive(v) {
				continue
			}
			if br.elog.LoggedBytes() >= br.elogBudget {
				break
			}
			if err := br.elog.LogEdges(v, a.nbrs, a.weights); err != nil {
				return err
			}
			br.ss.EdgeLogPagesWrite++ // approximate: accounted precisely at flush
		}
		relogSpan.Arg("logged_bytes", br.elog.LoggedBytes())
		relogSpan.End()
		e.io.SetStage(obsv.StageVertex, batch.FirstIv)
	}

	// Write dirty value pages and aux pages back.
	flushSpan := tr.Begin("engine", "flush-values")
	if _, err := vb.Flush(); err != nil {
		return err
	}
	for _, ab := range auxBatches {
		if _, err := ab.Flush(); err != nil {
			return err
		}
	}
	flushSpan.End()
	return nil
}

// activeVertices returns the batch's active set — message destinations ∪
// carried-live vertices in [lo, hi), ascending — with each vertex's
// message range in recs, which are sorted by destination. It is one merge
// of the two ascending sequences (the paper's ExtractActiveVert).
func activeVertices(recs []sortgroup.Rec, carry *bitset.Set, lo, hi uint32) (verts []uint32, msgRange [][2]int) {
	pos := 0
	group := func(v uint32) {
		start := pos
		for pos < len(recs) && recs[pos].Dst == v {
			pos++
		}
		verts = append(verts, v)
		msgRange = append(msgRange, [2]int{start, pos})
	}
	carry.RangeInRange(int(lo), int(hi), func(i int) bool {
		for pos < len(recs) && recs[pos].Dst < uint32(i) {
			group(recs[pos].Dst)
		}
		group(uint32(i))
		return true
	})
	for pos < len(recs) {
		group(recs[pos].Dst)
	}
	return verts, msgRange
}

// intervalRun returns the interval holding vs[lo] and the end hi of the
// run vs[lo:hi] that lies in it; vs ascends.
func (e *Engine) intervalRun(vs []uint32, lo int) (iv, hi int) {
	iv = e.g.IntervalOf(vs[lo])
	end := e.g.Intervals()[iv].Hi
	hi = lo + 1
	for hi < len(vs) && vs[hi] < end {
		hi++
	}
	return iv, hi
}

// processRound runs one round — the batch's active vertices [lo, hi),
// with their message ranges and halt flags — on the worker pool. Each
// worker takes a contiguous chunk and a copy of proto, the batch's
// context, and stages its sends and mutations in its own buffers; the
// buffers are then replayed in worker order — global vertex order — into
// the message logs on this goroutine. The logs, and the device IO their
// evictions issue, are therefore those of a one-worker run at any Workers
// or GOMAXPROCS.
func (e *Engine) processRound(proto engineCtx, lo, hi int) error {
	br := proto.br
	workers := min(e.cfg.Workers, hi-lo)
	br.sends.Reset(workers)
	br.mutBufs.Reset(workers)
	br.msgBufs.Reset(workers)
	recs := br.batch.Recs
	// Panic capture: a program's Process panic on a worker goroutine would
	// otherwise kill the whole process (the serving daemon included). The
	// first panic wins; wg.Wait() publishes the write.
	var panicOnce sync.Once
	var panicErr error
	var wg sync.WaitGroup
	chunk := (hi - lo + workers - 1) / workers
	for w := 0; w < workers; w++ {
		wlo := lo + w*chunk
		whi := min(wlo+chunk, hi)
		if wlo >= whi {
			continue
		}
		wg.Add(1)
		go func(w, wlo, whi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() {
						panicErr = fmt.Errorf("%w: vertex worker: %v", ErrPanic, r)
					})
				}
			}()
			ctx := proto
			ctx.sends, ctx.muts = br.sends.Worker(w), br.mutBufs.Worker(w)
			buf := br.msgBufs.Worker(w)
			for i := wlo; i < whi; i++ {
				r := ctx.msgRange[i]
				msgs := (*buf)[:0]
				for k := r[0]; k < r[1]; k++ {
					msgs = append(msgs, vc.Msg{Src: recs[k].Src, Data: recs[k].Data})
				}
				*buf = msgs
				if br.combiner != nil && len(msgs) > 1 {
					acc := msgs[0].Data
					for _, m := range msgs[1:] {
						acc = br.combiner.Combine(acc, m.Data)
					}
					msgs[0].Data = acc
					msgs = msgs[:1]
				}
				ctx.idx, ctx.vertex = i, ctx.verts[i]
				br.prog.Process(&ctx, msgs)
			}
		}(w, wlo, whi)
	}
	wg.Wait()
	if panicErr != nil {
		return panicErr
	}
	for _, wm := range br.mutBufs.Staged() {
		*br.muts = append(*br.muts, wm...)
	}
	br.ss.MsgsSent += uint64(br.sends.Len())
	// Asynchronous model: forward sends (to intervals processed later this
	// superstep) stay in the current generation.
	cur, fwdFrom := (*mlog.Log)(nil), int32(math.MaxInt32)
	if e.cfg.Async {
		cur, fwdFrom = br.curLog, int32(br.batch.LastIv+1)
	}
	return mlog.Replay(br.nextLog, cur, fwdFrom, br.sends.Staged()...)
}

// engineCtx implements vc.Context for one worker. The per-vertex state of
// the batch — adjacency, in-edge sources, aux slices, message ranges and
// halt flags — is held in slices parallel to verts, indexed by idx, the
// processed vertex's position in the batch.
type engineCtx struct {
	eng       *Engine
	br        *batchRun
	vb        *csr.ValueBatch
	verts     []uint32
	msgRange  [][2]int
	halted    []bool
	adj       []adjEntry
	inSources [][]uint32 // nil unless the program uses aux state
	aux       [][]uint32 // nil unless the program uses aux state
	sends     *[]mlog.Update

	idx    int
	vertex uint32
	muts   *[]vc.Mutation
}

func (c *engineCtx) Superstep() int      { return c.br.step }
func (c *engineCtx) NumVertices() uint32 { return c.eng.g.NumVertices() }
func (c *engineCtx) Vertex() uint32      { return c.vertex }
func (c *engineCtx) Value() uint32       { return c.vb.Get(c.vertex) }
func (c *engineCtx) SetValue(v uint32)   { c.vb.Set(c.vertex, v) }
func (c *engineCtx) VoteToHalt()         { c.halted[c.idx] = true }

// ValueLane and SetValueLane implement vc.LaneContext: lane-batched
// programs address the lane-strided value slots of the processed vertex.
// Distinct (vertex, lane) slots are written by at most one worker, so the
// ValueBatch's concurrency contract holds.
func (c *engineCtx) ValueLane(lane int) uint32 { return c.vb.GetLane(c.vertex, lane) }

func (c *engineCtx) SetValueLane(lane int, v uint32) { c.vb.SetLane(c.vertex, lane, v) }

func (c *engineCtx) OutEdges() []uint32 { return c.adj[c.idx].nbrs }

func (c *engineCtx) OutWeights() []uint32 { return c.adj[c.idx].weights }

// Send stages the update in the worker's buffer; processRound replays it
// into the logs after the round.
func (c *engineCtx) Send(dst, data uint32) {
	iv := int32(c.eng.g.IntervalOf(dst))
	*c.sends = append(*c.sends, mlog.Update{Dst: dst, Src: c.vertex, Data: data, Iv: iv})
}

func (c *engineCtx) InEdgeSources() []uint32 {
	if c.inSources == nil {
		return nil
	}
	return c.inSources[c.idx]
}

// AddEdge implements vc.Mutator: the edge appears next superstep.
func (c *engineCtx) AddEdge(src, dst, weight uint32) {
	*c.muts = append(*c.muts, vc.Mutation{Add: true, Src: src, Dst: dst, Weight: weight})
}

// RemoveEdge implements vc.Mutator: the removal applies next superstep.
func (c *engineCtx) RemoveEdge(src, dst uint32) {
	*c.muts = append(*c.muts, vc.Mutation{Src: src, Dst: dst})
}

func (c *engineCtx) Aux() []uint32 {
	if c.aux == nil {
		return nil
	}
	return c.aux[c.idx]
}

// intervalSkew measures how unevenly the superstep's incoming messages
// spread over the vertex intervals: the busiest interval's log volume over
// the mean across all intervals. 1.0 is perfectly balanced; 0 means no
// messages flowed (a carry-only superstep).
func intervalSkew(log *mlog.Log, numIntervals int) float64 {
	var maxC, sumC uint64
	for iv := 0; iv < numIntervals; iv++ {
		c := log.Count(iv)
		sumC += c
		if c > maxC {
			maxC = c
		}
	}
	if sumC == 0 {
		return 0
	}
	return float64(maxC) * float64(numIntervals) / float64(sumC)
}

// publishLive pushes the finished superstep onto the process-wide expvar
// gauges — a handful of atomic stores, cheap enough to run unconditionally
// so a debug listener attached mid-run sees live state.
func publishLive(live *obsv.LiveVars, ss *metrics.SuperstepStats) {
	live.Superstep.Set(int64(ss.Superstep))
	live.Active.Set(int64(ss.Active))
	live.PagesRead.Add(int64(ss.PagesRead))
	live.PagesWritten.Add(int64(ss.PagesWritten))
	live.MsgsSent.Add(int64(ss.MsgsSent))
	live.MsgSkew.Set(ss.MsgSkew)
	if adj := ss.ColIdxPagesRead + ss.EdgeLogPagesRead; adj > 0 {
		live.EdgeLogHitRate.Set(float64(ss.EdgeLogPagesRead) / float64(adj))
	}
	if ss.TransientFaults > 0 {
		live.TransientFaults.Add(int64(ss.TransientFaults))
		live.Retries.Add(int64(ss.Retries))
	}
	if ss.CorruptPages > 0 {
		live.CorruptPages.Add(int64(ss.CorruptPages))
	}
	if ss.ElogHealed > 0 {
		live.ElogHeals.Add(int64(ss.ElogHealed))
	}
	if ss.Spills > 0 {
		live.Spills.Add(int64(ss.Spills))
		live.SpillBytes.Add(int64(ss.SpillBytes))
	}
	if ss.NoSpaceFaults > 0 || ss.Reclaims > 0 {
		live.NoSpaceFaults.Add(int64(ss.NoSpaceFaults))
		live.Reclaims.Add(int64(ss.Reclaims))
		live.ReclaimedBytes.Add(int64(ss.ReclaimedBytes))
	}
	for _, st := range ss.Stages {
		if st.PagesRead > 0 {
			live.StagePagesRead.Add(st.Stage, int64(st.PagesRead))
		}
		if st.PagesWritten > 0 {
			live.StagePagesWritten.Add(st.Stage, int64(st.PagesWritten))
		}
	}
}
