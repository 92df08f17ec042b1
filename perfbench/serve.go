package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"time"

	"multilogvc/internal/apps"
	"multilogvc/internal/csr"
	"multilogvc/internal/gen"
	"multilogvc/internal/graphio"
	"multilogvc/internal/metrics"
	"multilogvc/internal/pagecache"
	"multilogvc/internal/serve"
	"multilogvc/internal/ssd"
	"multilogvc/internal/vc"
)

// serve-mixed: an open loop of independent users against serve.Server,
// called in process through ServeHTTP. Arrivals are Poisson at serveRate;
// a share mutateShare of them are /mutate batches of mutateBatch edge
// mutations (a delta merge every 32 batches at the default threshold of
// 4096 side entries), the rest BFS point queries. The graph is the cf-mini
// analog at small size (R-MAT scale 13, 8,192 vertices), opened for
// WAL-durable ingest, and the page cache holds serveCacheMB, less than the
// graph's CSR files plus the per-query scratch the engine writes.
const (
	serveScale    = 13
	servePageSize = 4096
	serveChannels = 8
	serveCacheMB  = 1
	serveRate     = 20.0
	mutateShare   = 0.2
	mutateBatch   = 64
	// walFlush is the WAL group-commit window, the serving daemon's default.
	walFlush = 2 * time.Millisecond
	// warmQueries BFS queries run one at a time before the measured load.
	warmQueries = 32
	// checkQueries is how many seeded BFS queries are checked against the
	// reference once the load has finished.
	checkQueries = 4
	// serveMaxSteps is the server's default superstep cap per execution.
	serveMaxSteps = 100
	// lateLimit is how far behind schedule the generator may send its
	// tail request (tailQuantile of the lateness sample) before the run is
	// invalid: past it the latencies measure the generator, not the server.
	lateLimit = 20 * time.Millisecond
)

type serveEnv struct {
	edges []graphio.Edge
	n     uint32
	dev   *ssd.Device
	cache *pagecache.Cache
	g     *csr.Graph
	srv   *serve.Server
}

func (e *serveEnv) close() error {
	e.srv.Close()
	return e.g.CloseIngest()
}

// buildServe generates the graph, builds it on a fresh device with the
// cache attached, reopens it for durable ingest and starts a server with
// the daemon's defaults except the per-execution memory budget.
func buildServe(seed int64) (*serveEnv, error) {
	edges, err := gen.RMAT(gen.DefaultRMAT(serveScale, 12, seed))
	if err != nil {
		return nil, err
	}
	n := uint32(1) << serveScale
	dev, err := ssd.Open(ssd.Config{PageSize: servePageSize, Channels: serveChannels})
	if err != nil {
		return nil, err
	}
	cache := pagecache.FromMB(serveCacheMB, servePageSize)
	dev.AttachCache(cache)
	// The harness's budget rule: about 2% of the edge bytes, floored at
	// 64 KiB, three quarters of it per interval. Executions get the same
	// budget, so each interval is its own batch and the prefetcher has a
	// next batch to warm; with the daemon's 64 MiB every interval fuses
	// into one batch and the prefetcher never runs.
	budget := int64(len(edges)) * 4 * 2 / 100
	if budget < 64<<10 {
		budget = 64 << 10
	}
	if _, err := csr.Build(dev, "g", edges, csr.BuildOptions{NumVertices: n, IntervalBudget: budget * 75 / 100}); err != nil {
		return nil, err
	}
	g, err := csr.OpenIngest(dev, "g", csr.IngestOptions{WAL: true, FlushEvery: walFlush, MaxPending: 1 << 20})
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{Graph: g, Cache: cache, EnableIngest: true, MemoryBudget: budget})
	if err != nil {
		return nil, err
	}
	return &serveEnv{edges: edges, n: n, dev: dev, cache: cache, g: g, srv: srv}, nil
}

// request is one scheduled request of the open loop.
type request struct {
	at     time.Duration // due time from the start of the load
	source uint32        // BFS source, when muts is nil
	muts   []mutation
}

type mutation struct {
	Op  string `json:"op"`
	Src uint32 `json:"src"`
	Dst uint32 `json:"dst"`
}

// schedule draws the request stream: round(serveRate×d) arrivals at
// uniform random times, which is a Poisson process conditioned on its
// count, with exactly mutateShare of them mutation batches. Fixing the
// counts fixes how many delta merges a run triggers, which would otherwise
// swing page counts from seed to seed.
//
// Every mutation touches a distinct edge: adds are edges absent from the
// base graph, deletes are base edges. The final graph therefore depends
// only on which batches were acknowledged, not on the order concurrent
// batches were applied in.
func schedule(seed int64, d time.Duration, base []graphio.Edge, n uint32) []request {
	rng := rand.New(rand.NewSource(seed ^ 0x10ad))
	total := int(math.Round(serveRate * d.Seconds()))
	reqs := make([]request, total)
	for i := range reqs {
		reqs[i].at = time.Duration(rng.Int63n(int64(d)))
	}
	slices.SortFunc(reqs, func(a, b request) int { return int(a.at - b.at) })

	key := func(s, t uint32) uint64 { return uint64(s)<<32 | uint64(t) }
	used := make(map[uint64]bool, len(base))
	for _, e := range base {
		used[key(e.Src, e.Dst)] = true
	}
	delOrder := rng.Perm(len(base))
	mutates := rng.Perm(total)[:int(math.Round(mutateShare*float64(total)))]
	for _, i := range mutates {
		muts := make([]mutation, 0, mutateBatch)
		for len(muts) < mutateBatch {
			if len(muts)%2 == 0 && len(delOrder) > 0 {
				e := base[delOrder[0]]
				delOrder = delOrder[1:]
				muts = append(muts, mutation{Op: "del", Src: e.Src, Dst: e.Dst})
				continue
			}
			s, t := uint32(rng.Intn(int(n))), uint32(rng.Intn(int(n)))
			if s == t || used[key(s, t)] {
				continue
			}
			used[key(s, t)] = true
			muts = append(muts, mutation{Op: "add", Src: s, Dst: t})
		}
		reqs[i].muts = muts
	}
	for i := range reqs {
		if reqs[i].muts == nil {
			reqs[i].source = uint32(rng.Intn(int(n)))
		}
	}
	return reqs
}

// outcome is what one request saw.
type outcome struct {
	late    time.Duration // send time minus due time
	latency time.Duration // response time minus due time
	status  int
	point   pointReply
	mutate  mutateReply
}

type pointReply struct {
	BatchSize      int      `json:"batch_size"`
	Isolated       bool     `json:"isolated"`
	BatchPagesRead uint64   `json:"batch_pages_read"`
	AllValues      []uint32 `json:"all_values"`
}

type mutateReply struct {
	Acked   int  `json:"acked"`
	Pending int  `json:"pending"`
	Durable bool `json:"durable"`
}

func call(h http.Handler, path string, body any, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
	if rec.Code/100 == 2 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			return rec.Code, fmt.Errorf("%s: decode reply: %w", path, err)
		}
	}
	return rec.Code, nil
}

// drive sends every request at its due time, each from its own goroutine,
// and returns once every response has arrived.
func drive(h http.Handler, reqs []request) ([]outcome, error) {
	outs := make([]outcome, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		due := start.Add(reqs[i].at)
		time.Sleep(time.Until(due))
		outs[i].late = time.Since(due)
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			o := &outs[i]
			if r := reqs[i]; r.muts != nil {
				o.status, errs[i] = call(h, "/mutate", map[string]any{"mutations": r.muts}, &o.mutate)
			} else {
				o.status, errs[i] = call(h, "/query/bfs", map[string]any{"source": r.source}, &o.point)
			}
			o.latency = time.Since(due)
		}(i, due)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

func runServeMixed(cfg config) (*result, error) {
	if p, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); p > n {
		return nil, fmt.Errorf("GOMAXPROCS %d exceeds the %d CPUs available; the generator would compete with itself", p, n)
	}
	var prev *serveEnv
	env, setupS, err := timedSetup(func() (*serveEnv, error) {
		if prev != nil {
			if err := prev.close(); err != nil {
				return nil, err
			}
		}
		var err error
		prev, err = buildServe(cfg.seed)
		return prev, err
	})
	if err != nil {
		return nil, err
	}
	reqs := schedule(cfg.seed, cfg.duration, env.edges, env.n)

	// Warm up before the window, so that it starts with the page cache and
	// the heap in their steady state rather than cold.
	rng := rand.New(rand.NewSource(cfg.seed ^ 0xc4ec))
	for i := 0; i < warmQueries; i++ {
		status, err := call(env.srv, "/query/bfs", map[string]any{"source": rng.Intn(int(env.n))}, &pointReply{})
		if err != nil {
			return nil, err
		}
		if status/100 != 2 {
			return nil, fmt.Errorf("warm-up query failed with status %d", status)
		}
	}

	res := &result{Correct: true}
	if !cfg.trace {
		res.set("setup_s", "s", setupS)
	}
	devBefore := env.dev.Stats()
	cacheBefore := env.cache.Stats()
	goBefore := readGoCounters()
	heap := startHeapSampler()
	cpu := cpuTime()
	outs, err := drive(env.srv, reqs)
	cpu = cpuTime() - cpu
	heapLive := heap.Stop()
	if err != nil {
		return nil, err
	}
	dev := env.dev.Stats().Sub(devBefore)
	cache := env.cache.Stats().Sub(cacheBefore)
	if !cfg.trace {
		res.set("heap_live_p90_mib", "MiB", heapLive)
	} else {
		res.setGo(goBefore, len(reqs))
	}

	late := make([]float64, len(outs))
	var bfsMS, mutMS []float64
	var served, batchSum, shed, isolated, pendingPeak int
	var pagesPerQuery float64
	final := map[uint64]graphio.Edge{}
	for _, e := range env.edges {
		final[uint64(e.Src)<<32|uint64(e.Dst)] = e
	}
	for i, o := range outs {
		late[i] = ms(o.late)
		ok := o.status/100 == 2
		lat := ms(o.latency)
		if !ok {
			res.Failed++
			lat = math.Inf(1) // a refused request misses every latency limit
			if o.status == http.StatusServiceUnavailable {
				shed++
			}
		}
		res.Attempted++
		if muts := reqs[i].muts; muts != nil {
			mutMS = append(mutMS, lat)
			if ok {
				pendingPeak = max(pendingPeak, o.mutate.Pending)
				for _, m := range muts {
					k := uint64(m.Src)<<32 | uint64(m.Dst)
					if m.Op == "add" {
						final[k] = graphio.Edge{Src: m.Src, Dst: m.Dst}
					} else {
						delete(final, k)
					}
				}
			}
			continue
		}
		bfsMS = append(bfsMS, lat)
		if ok {
			served++
			batchSum += o.point.BatchSize
			pagesPerQuery += float64(o.point.BatchPagesRead) / float64(o.point.BatchSize)
			if o.point.Isolated {
				isolated++
			}
		}
	}
	lateQ := tailQuantile(len(late))
	if l := quantile(late, lateQ); l > ms(lateLimit) {
		return nil, fmt.Errorf("invalid run: the generator sent its p%.1f request %.1f ms late (limit %v)", 100*lateQ, l, lateLimit)
	}

	// Correctness: once the load has drained, seeded BFS queries must
	// match the reference engine over the base edges plus every
	// acknowledged mutation.
	edges := make([]graphio.Edge, 0, len(final))
	for _, e := range final {
		edges = append(edges, e)
	}
	ref := vc.NewRef(edges, env.n)
	for i := 0; i < checkQueries; i++ {
		src := uint32(rng.Intn(int(env.n)))
		var reply pointReply
		status, err := call(env.srv, "/query/bfs", map[string]any{"source": src, "values": true}, &reply)
		if err != nil {
			return nil, err
		}
		res.Attempted++
		want := ref.Run(&apps.BFS{Source: src}, serveMaxSteps).Values
		if status/100 != 2 || !slices.Equal(reply.AllValues, want) {
			res.Correct = false
			res.Failed++
		}
	}
	ist := env.g.IngestStats()
	if err := env.close(); err != nil {
		return nil, err
	}

	perReq := func(v float64) float64 { return v / float64(len(reqs)) }
	if !cfg.trace {
		q := tailQuantile(len(bfsMS))
		res.set("latency_p50_ms", "ms", median(bfsMS))
		res.set("latency_tail_ms", "ms", quantile(bfsMS, q))
		res.set("cpu_s", "s", perReq(cpu.Seconds()))
		res.set("device_s", "s", perReq(dev.StorageTime().Seconds()))
		res.set("pages_read", "count", perReq(float64(dev.PagesRead)))
		res.set("pages_written", "count", perReq(float64(dev.PagesWritten)))
		res.set("ok_ratio", "ratio", float64(res.Attempted-res.Failed)/float64(res.Attempted))
		return res, nil
	}

	res.set("trace.overhead_ratio", "ratio", 1)
	res.set("loadgen.late_ms", "ms", quantile(late, lateQ))
	res.set("loadgen.offered_qps", "1/s", float64(len(reqs))/cfg.duration.Seconds())
	res.set("serve.mutate_p50_ms", "ms", median(mutMS))
	res.set("serve.mutate_tail_ms", "ms", quantile(mutMS, tailQuantile(len(mutMS))))
	res.set("serve.batch_size_mean", "count", float64(batchSum)/float64(max(served, 1)))
	res.set("serve.pages_per_query", "count", pagesPerQuery/float64(max(served, 1)))
	res.set("serve.shed", "count", float64(shed))
	res.set("serve.isolated", "count", float64(isolated))
	res.set("pagecache.hit_ratio", "ratio", cache.HitRate())
	res.set("pagecache.evictions", "count", float64(cache.Evictions))
	res.set("pagecache.prefetch_precision", "ratio", cache.PrefetchAccuracy())
	res.set("pagecache.prefetch_dropped", "count", float64(cache.PrefetchDropped))
	res.set("wal.flushes", "count", float64(ist.WAL.Flushes))
	framesPerFlush := 0.0
	if ist.WAL.Flushes > 0 {
		framesPerFlush = float64(ist.WAL.FlushedFrames) / float64(ist.WAL.Flushes)
	}
	res.set("wal.frames_per_flush", "count", framesPerFlush)
	res.set("csr.ingest.merges", "count", float64(ist.Merges))
	res.set("csr.ingest.pending_peak", "count", float64(pendingPeak))
	for _, s := range metrics.StagesFromDevice(dev) {
		if slices.Contains(stageMetrics, s.Stage) {
			res.set("ssd."+s.Stage+".pages_read", "count", perReq(float64(s.PagesRead)))
			res.set("ssd."+s.Stage+".pages_written", "count", perReq(float64(s.PagesWritten)))
			res.set("ssd."+s.Stage+".device_s", "s", perReq(s.Time.Seconds()))
		}
	}
	res.set("ssd.read_batch_pages_p50", "count", float64(dev.ReadBatchPages.Quantile(0.5)))
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
