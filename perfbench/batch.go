package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"multilogvc/internal/apps"
	"multilogvc/internal/core"
	"multilogvc/internal/csr"
	"multilogvc/internal/gen"
	"multilogvc/internal/graphio"
	"multilogvc/internal/metrics"
	"multilogvc/internal/obsv"
	"multilogvc/internal/ssd"
	"multilogvc/internal/vc"
)

// Device geometry and memory budget of the batch workloads: the
// experiment harness's defaults at medium size, where both graphs floor
// the budget at 64 KiB (about 2% of the edge bytes is less than that).
const (
	batchPageSize  = 4096
	batchChannels  = 8
	batchMemBudget = 64 << 10
)

// batchSpec describes one batch workload: a seeded graph and a pool of
// programs that the measured window cycles through.
type batchSpec struct {
	graph    func(seed int64) ([]graphio.Edge, uint32, error)
	programs func(seed int64, n uint32) []vc.Program
	maxSteps int
}

// cfMiniMedium is the com-friendster analog at medium size: R-MAT scale
// 15, edge factor 12, symmetrized (32,768 vertices, about 680K edges).
func cfMiniMedium(seed int64) ([]graphio.Edge, uint32, error) {
	edges, err := gen.RMAT(gen.DefaultRMAT(15, 12, seed))
	return edges, 1 << 15, err
}

// webFrontierMedium is the small-world BFS-depth analog at medium size: a
// 256×256 grid with 512 random shortcuts (65,536 vertices, about 262K
// edges), whose BFS runs for tens of thin-frontier supersteps.
func webFrontierMedium(seed int64) ([]graphio.Edge, uint32, error) {
	const side = 256
	edges, err := gen.SmallWorld(side, side, side*side/128, seed)
	return edges, side * side, err
}

var prDense = batchSpec{
	graph: cfMiniMedium,
	programs: func(int64, uint32) []vc.Program {
		return []vc.Program{&apps.PageRank{}}
	},
	maxSteps: 15,
}

// bfsSources is how many seeded BFS sources bfs-sparse cycles through.
// Each is checked against the reference once; repeats are compared with
// that reference result.
const bfsSources = 16

var bfsSparse = batchSpec{
	graph: webFrontierMedium,
	programs: func(seed int64, n uint32) []vc.Program {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		progs := make([]vc.Program, bfsSources)
		for i := range progs {
			progs[i] = &apps.BFS{Source: uint32(rng.Intn(int(n)))}
		}
		return progs
	},
	// A full traversal: far above the graph's BFS depth, so every run
	// ends by convergence, not by the cap.
	maxSteps: 10000,
}

func runPRDense(cfg config) (*result, error)   { return runBatch(prDense, cfg) }
func runBFSSparse(cfg config) (*result, error) { return runBatch(bfsSparse, cfg) }

type batchEnv struct {
	edges []graphio.Edge
	n     uint32
	g     *csr.Graph
}

// buildBatch generates the graph and builds its CSR on a fresh in-memory
// device, the way the experiment harness prepares an environment.
func buildBatch(spec batchSpec, seed int64) (*batchEnv, error) {
	edges, n, err := spec.graph(seed)
	if err != nil {
		return nil, err
	}
	dev, err := ssd.Open(ssd.Config{PageSize: batchPageSize, Channels: batchChannels})
	if err != nil {
		return nil, err
	}
	g, err := csr.Build(dev, "g", edges, csr.BuildOptions{
		NumVertices:    n,
		IntervalBudget: batchMemBudget * 75 / 100,
	})
	if err != nil {
		return nil, err
	}
	return &batchEnv{edges: edges, n: n, g: g}, nil
}

// runOne is one engine run, timed from outside around RunCtx.
type runOne struct {
	wall   time.Duration
	cpu    time.Duration
	report *metrics.Report
	values []uint32
}

func (env *batchEnv) run(spec batchSpec, prog vc.Program, tr *obsv.Trace) (runOne, error) {
	eng := core.New(env.g, core.Config{
		MemoryBudget:  batchMemBudget,
		MaxSupersteps: spec.maxSteps,
		Trace:         tr,
	})
	cpu := cpuTime()
	start := time.Now()
	res, err := eng.RunCtx(context.Background(), prog)
	wall := time.Since(start)
	cpu = cpuTime() - cpu
	if err != nil {
		return runOne{}, fmt.Errorf("%s: %w", prog.Name(), err)
	}
	return runOne{wall: wall, cpu: cpu, report: res.Report, values: res.Values}, nil
}

func runBatch(spec batchSpec, cfg config) (*result, error) {
	env, setupS, err := timedSetup(func() (*batchEnv, error) { return buildBatch(spec, cfg.seed) })
	if err != nil {
		return nil, err
	}
	progs := spec.programs(cfg.seed, env.n)
	res := &result{Correct: true}
	if !cfg.trace {
		res.set("setup_s", "s", setupS)
	}

	// Reference values, one per program of the pool, from the in-memory
	// engine on the same edges.
	ref := vc.NewRef(env.edges, env.n)
	want := make([][]uint32, len(progs))
	for i, p := range progs {
		want[i] = ref.Run(p, spec.maxSteps).Values
	}
	check := func(i int, r runOne) {
		if !slices.Equal(r.values, want[i%len(progs)]) {
			res.Correct = false
			res.Failed++
		}
	}

	if cfg.trace {
		return res, traceBatch(spec, cfg, env, progs, res, check)
	}

	var wall, cpu, device, read, written []float64
	heap := startHeapSampler()
	deadline := time.Now().Add(cfg.duration)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		r, err := env.run(spec, progs[i%len(progs)], nil)
		if err != nil {
			heap.Stop()
			return nil, err
		}
		res.Attempted++
		check(i, r)
		wall = append(wall, r.wall.Seconds()*1000)
		cpu = append(cpu, r.cpu.Seconds())
		device = append(device, r.report.StorageTime.Seconds())
		read = append(read, float64(r.report.PagesRead))
		written = append(written, float64(r.report.PagesWritten))
	}
	res.set("heap_live_p90_mib", "MiB", heap.Stop())
	res.set("latency_p50_ms", "ms", median(wall))
	res.set("latency_tail_ms", "ms", quantile(wall, tailQuantile(len(wall))))
	res.set("cpu_s", "s", median(cpu))
	res.set("device_s", "s", median(device))
	res.set("pages_read", "count", median(read))
	res.set("pages_written", "count", median(written))
	res.set("ok_ratio", "ratio", float64(res.Attempted-res.Failed)/float64(res.Attempted))
	return res, nil
}

// traceBatch alternates untraced and traced runs of the same program until
// the window ends. Every traced run must reproduce the untraced run's
// values and page counts; the per-layer metrics are means per traced run.
func traceBatch(spec batchSpec, cfg config, env *batchEnv, progs []vc.Program, res *result, check func(int, runOne)) error {
	var plain, traced []float64
	var pr probe
	var agg layerAgg
	goBefore := readGoCounters()
	deadline := time.Now().Add(cfg.duration)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		p := progs[i%len(progs)]
		a, err := env.run(spec, p, nil)
		if err != nil {
			return err
		}
		tr := obsv.NewTrace()
		b, err := env.run(spec, wrapProgram(p, &pr), tr)
		if err != nil {
			return err
		}
		res.Attempted += 2
		check(i, a)
		check(i, b)
		if !slices.Equal(a.values, b.values) ||
			a.report.PagesRead != b.report.PagesRead || a.report.PagesWritten != b.report.PagesWritten {
			res.Correct = false
			res.Failed++
		}
		plain = append(plain, a.wall.Seconds())
		traced = append(traced, b.wall.Seconds())
		agg.add(b.report, sumSpans(tr.Events()))
	}
	runs := len(traced)
	res.setGo(goBefore, 2*runs)
	res.set("trace.overhead_ratio", "ratio", median(traced)/median(plain))
	res.set("vc.process_s", "s", pr.processSeconds()/float64(runs))
	res.set("mlog.send_s", "s", pr.sendSeconds()/float64(runs))
	agg.report(res, runs)
	return nil
}

// layerAgg sums what the engine reports about each traced run.
type layerAgg struct {
	spans                                            spanTotals
	active, sent, delivered, colidx, elogRead, ineff uint64
	predicted, correct, spillBytes                   uint64
	stages                                           []metrics.StageIO
	readBatch                                        obsv.Hist
	skewSum                                          float64
	skewSteps                                        int
}

func (a *layerAgg) add(r *metrics.Report, sp spanTotals) {
	if a.spans.self == nil {
		a.spans = sp
	} else {
		for k, v := range sp.self {
			a.spans.self[k] += v
		}
		for k, v := range sp.total {
			a.spans.total[k] += v
		}
		for k, v := range sp.args {
			a.spans.args[k] += v
		}
	}
	for _, s := range r.Supersteps {
		a.active += s.Active
		a.sent += s.MsgsSent
		a.delivered += s.MsgsDelivered
		a.colidx += s.ColIdxPagesRead
		a.elogRead += s.EdgeLogPagesRead
		a.ineff += s.InefficientPages
		a.predicted += s.PredictedIneff
		a.correct += s.CorrectPredicted
		a.readBatch.Add(s.ReadBatchPages)
		if s.IOSkew > 0 {
			a.skewSum += s.IOSkew
			a.skewSteps++
		}
	}
	a.spillBytes += r.SpillBytes
	a.stages = metrics.MergeStages(a.stages, r.Stages)
}

func (a *layerAgg) report(res *result, runs int) {
	per := func(v uint64) float64 { return float64(v) / float64(runs) }
	sec := func(d time.Duration) float64 { return d.Seconds() / float64(runs) }
	self := a.spans.self
	res.set("vc.active", "count", per(a.active))
	res.set("mlog.flush_s", "s", sec(self["flush-logs"]))
	res.set("mlog.evict_s", "s", sec(a.spans.total["evict"]))
	res.set("mlog.msgs_sent", "count", per(a.sent))
	res.set("mlog.msgs_delivered", "count", per(a.delivered))
	res.set("sortgroup.load_sort_s", "s", sec(self["load+sort"]))
	res.set("sortgroup.records", "count", float64(a.spans.args["load+sort/records"])/float64(runs))
	res.set("sortgroup.pages_read", "count", float64(a.spans.args["load+sort/pages_read"])/float64(runs))
	res.set("sortgroup.spill_bytes", "bytes", per(a.spillBytes))
	res.set("engine.process_vertices_s", "s", sec(self["process-vertices"]))
	res.set("csr.load_adjacency_s", "s", sec(self["load-adjacency"]))
	res.set("csr.load_values_s", "s", sec(self["load-values"]))
	res.set("csr.flush_values_s", "s", sec(self["flush-values"]))
	res.set("csr.colidx_pages_read", "count", per(a.colidx))
	res.set("edgelog.relog_s", "s", sec(self["edgelog-relog"]))
	res.set("edgelog.pages_read", "count", per(a.elogRead))
	res.set("edgelog.inefficient_pages", "count", per(a.ineff))
	prec := 0.0
	if a.predicted > 0 {
		prec = float64(a.correct) / float64(a.predicted)
	}
	res.set("edgelog.prediction_precision", "ratio", prec)
	rows := map[string]metrics.StageIO{}
	for _, s := range a.stages {
		rows[s.Stage] = s
	}
	for _, name := range stageMetrics {
		s := rows[name]
		res.set("ssd."+name+".pages_read", "count", per(s.PagesRead))
		res.set("ssd."+name+".pages_written", "count", per(s.PagesWritten))
		res.set("ssd."+name+".device_s", "s", sec(s.Time))
	}
	res.set("sortgroup.device_s", "s", sec(rows["sortgroup"].Time))
	res.set("edgelog.pages_written", "count", per(rows["relog"].PagesWritten))
	skew := 0.0
	if a.skewSteps > 0 {
		skew = a.skewSum / float64(a.skewSteps)
	}
	res.set("ssd.io_skew", "ratio", skew)
	res.set("ssd.read_batch_pages_p50", "count", float64(a.readBatch.Quantile(0.5)))
}

// stageMetrics are the device stages whose rows the per-layer output
// carries; checkpoint, scrub and build never move inside a measured run.
var stageMetrics = []string{"other", "vertex", "sortgroup", "relog", "prefetch", "spill", "ingest"}
