// Command perfbench is the repository's end-to-end benchmark. It generates
// seeded inputs, drives one workload through the public entry points of
// the engine, storage and serving layers, checks every output against the
// in-memory reference engine, and prints one JSON result line.
//
//	perfbench --workload pr-dense --seed 1 --seconds 55 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics from a traced run (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// defaultSeed is the seed the recorded figures in README.md were taken
// with; any other seed gives another graph of the same shape.
const defaultSeed = 1

// setupRepeats is how many times a run repeats its set-up (generate the
// graph, build or open it) so that setup_s is a median, not one sample.
const setupRepeats = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what a workload receives from the command line.
type config struct {
	seed     int64
	duration time.Duration
	trace    bool
}

type workload func(cfg config) (*result, error)

var workloads = map[string]workload{
	"pr-dense":    runPRDense,
	"bfs-sparse":  runBFSSparse,
	"serve-mixed": runServeMixed,
}

func main() {
	name := flag.String("workload", "", "workload: pr-dense, bfs-sparse or serve-mixed")
	seed := flag.Int64("seed", defaultSeed, "seed for graph generation, sources and the request stream")
	seconds := flag.Float64("seconds", 55, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	want, err := declared(*trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res, err := w(config{
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err := res.conform(want, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// declared returns the metrics BENCHMARK.json, in the working directory,
// declares for this mode, name to unit: end_to_end for an untraced run,
// per_layer for a traced one.
func declared(traced bool) (map[string]string, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("read metric declarations: %w", err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	list := b.EndToEnd
	if traced {
		list = b.PerLayer
	}
	want := make(map[string]string, len(list))
	for _, m := range list {
		want[m.Name] = m.Unit
	}
	return want, nil
}

// conform checks the result against the declared metrics. A per-layer
// metric the workload does not exercise (the page cache of an uncached
// batch run, the span timings of the serving workload, whose engine runs
// are not traceable from outside) reads 0.
func (r *result) conform(want map[string]string, traced bool) error {
	for name, unit := range want {
		if _, ok := r.Metrics[name]; !ok && traced {
			r.set(name, unit, 0)
		}
	}
	for name, m := range r.Metrics {
		if unit, ok := want[name]; !ok || unit != m.Unit {
			return fmt.Errorf("metric %q (%s) is not declared for this mode", name, m.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %q is %v", name, m.Value)
		}
	}
	if len(r.Metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, declared %d", len(r.Metrics), len(want))
	}
	return nil
}

// set records one metric on the result.
func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// timedSetup runs fn setupRepeats times and returns the last result with
// the median wall time of the repeats in seconds.
func timedSetup[T any](fn func() (T, error)) (T, float64, error) {
	var out T
	times := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		start := time.Now()
		v, err := fn()
		if err != nil {
			return out, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		out = v
	}
	return out, median(times), nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the nearest-rank q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tailQuantile picks the highest percentile of a fixed grid that leaves at
// least ten samples beyond it, falling back to the median for small
// samples. The grid keeps the chosen percentile the same from run to run
// when the sample count is.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9, 0.8} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}

// heapSampler records the live heap as marked by each garbage collection,
// polling runtime/metrics, which does not stop the world. The live heap is
// what the program retains; the heap between collections also holds
// garbage, whose size moves with collection timing rather than with the
// program.
type heapSampler struct {
	stop    chan struct{}
	done    sync.WaitGroup
	samples []float64 // MiB, one per collection seen; read after Stop
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
		metrics.Read(s)
		cycles := s[1].Value.Uint64()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
			metrics.Read(s)
			if c := s[1].Value.Uint64(); c != cycles {
				cycles = c
				h.samples = append(h.samples, float64(s[0].Value.Uint64())/(1<<20))
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the 90th percentile of the live heap over
// the collections seen: a high-water mark that, unlike the maximum, does
// not hinge on whether one collection landed at the program's fullest
// moment. With no collection in the window it returns the live heap now.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	h.done.Wait()
	if len(h.samples) == 0 {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		return float64(s[0].Value.Uint64()) / (1 << 20)
	}
	return quantile(h.samples, 0.9)
}

// cpuTime returns the user plus system CPU time of the whole process.
// The kernel accounts time stolen by the hypervisor separately, so this
// moves less than wall time when the machine is shared.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // RUSAGE_SELF cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// goCounters is a snapshot of the runtime's allocation and GC counters.
type goCounters struct {
	allocBytes uint64
	gcCycles   uint64
}

func readGoCounters() goCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return goCounters{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

// setGo records the runtime counters spent since before, per operation.
func (r *result) setGo(before goCounters, ops int) {
	after := readGoCounters()
	r.set("go.alloc_mib", "MiB", float64(after.allocBytes-before.allocBytes)/(1<<20)/float64(ops))
	r.set("go.gc_cycles", "count", float64(after.gcCycles-before.gcCycles)/float64(ops))
}
