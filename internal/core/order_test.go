package core

import (
	"reflect"
	"testing"

	"multilogvc/internal/bitset"
	"multilogvc/internal/pagecache"
	"multilogvc/internal/sortgroup"
	"multilogvc/internal/vc"
)

// orderProg is order-sensitive on purpose: every superstep each vertex
// folds the sources of the first orderK messages it received, in arrival
// order, into its value, then sends along every out-edge. Two engines
// agree on its values only if they deliver each vertex's messages in the
// same order. It has no Combiner, so no engine may reorder or merge them.
type orderProg struct{}

const orderK = 4

func (orderProg) Name() string                   { return "order" }
func (orderProg) InitValue(v, n uint32) uint32   { return v }
func (orderProg) InitActive(n uint32) vc.InitSet { return vc.InitSet{All: true} }
func (orderProg) Process(ctx vc.Context, msgs []vc.Msg) {
	h := ctx.Value()
	for _, m := range msgs[:min(len(msgs), orderK)] {
		h = (h ^ m.Src) * 16777619
	}
	ctx.SetValue(h)
	for _, dst := range ctx.OutEdges() {
		ctx.Send(dst, h)
	}
}

const orderSteps = 5

// TestMessageOrderMatchesReference: the engine delivers each vertex's
// messages in ascending sender order, then send order — the reference
// engine's order — at any worker count, cached or not, and through the
// spill path's external sort.
func TestMessageOrderMatchesReference(t *testing.T) {
	edges, n := rmatEdges(t, 9, 8, 29)
	want := vc.NewRef(edges, n).Run(orderProg{}, orderSteps).Values
	cases := []struct {
		name  string
		cfg   Config
		cache bool
	}{
		{name: "uncached"},
		{name: "cached", cache: true},
		// Far below one interval's log (~2 KiB): every batch spills.
		{name: "spill", cfg: Config{SortBudget: 240}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 8} {
			g := buildGraph(t, edges, n, 2048)
			cfg := tc.cfg
			cfg.MaxSupersteps = orderSteps
			cfg.Workers = workers
			if tc.cache {
				cache := pagecache.NewSharded((8<<20)/g.Device().PageSize(), g.Device().PageSize(), 4)
				g.Device().AttachCache(cache)
				pf := pagecache.NewPrefetcher(8)
				defer pf.Close()
				cfg.Cache, cfg.Prefetcher = cache, pf
			}
			res, err := New(g, cfg).Run(orderProg{})
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", tc.name, workers, err)
			}
			if tc.cfg.SortBudget > 0 && res.Report.Spills == 0 {
				t.Fatalf("%s/workers=%d: no batch spilled", tc.name, workers)
			}
			for v := range want {
				if res.Values[v] != want[v] {
					t.Fatalf("%s/workers=%d: value[%d] = %#x, reference %#x", tc.name, workers, v, res.Values[v], want[v])
				}
			}
		}
	}
}

// TestMessagePlaneWorkersIndependent: values, page counts and virtual
// device time are the same at any worker count, synchronous or
// asynchronous (§V-F forward sends replay into the current generation in
// the same order as the rest).
func TestMessagePlaneWorkersIndependent(t *testing.T) {
	edges, n := rmatEdges(t, 9, 8, 37)
	for _, async := range []bool{false, true} {
		var first *Result
		for _, workers := range []int{1, 2, 8} {
			g := buildGraph(t, edges, n, 2048)
			// Per-interval batches, so async forward delivery happens.
			res, err := New(g, Config{
				MaxSupersteps: orderSteps, Workers: workers, Async: async, DisableFusing: true,
			}).Run(orderProg{})
			if err != nil {
				t.Fatalf("async=%v workers=%d: %v", async, workers, err)
			}
			if first == nil {
				first = res
				continue
			}
			for v := range first.Values {
				if res.Values[v] != first.Values[v] {
					t.Fatalf("async=%v: workers=%d value[%d] = %#x, workers=1 %#x",
						async, workers, v, res.Values[v], first.Values[v])
				}
			}
			a, b := first.Report, res.Report
			if a.PagesRead != b.PagesRead || a.PagesWritten != b.PagesWritten || a.StorageTime != b.StorageTime {
				t.Fatalf("async=%v: workers=%d IO %d/%d pages %v, workers=1 %d/%d pages %v", async, workers,
					b.PagesRead, b.PagesWritten, b.StorageTime, a.PagesRead, a.PagesWritten, a.StorageTime)
			}
		}
	}
}

// TestActiveVertices: the active set is the sorted destinations merged
// with the carried-live vertices in range, each once, and every vertex's
// message range covers exactly its records (empty for a carried vertex
// without messages).
func TestActiveVertices(t *testing.T) {
	var recs []sortgroup.Rec
	for _, dst := range []uint32{13, 13, 15, 17, 17, 17} {
		recs = append(recs, sortgroup.Rec{Dst: dst})
	}
	carry := bitset.New(32)
	for _, v := range []int{5, 11, 13, 16, 19, 25} { // 5 and 25 are out of range
		carry.Set(v)
	}
	verts, ranges := activeVertices(recs, carry, 10, 20)
	if want := []uint32{11, 13, 15, 16, 17, 19}; !reflect.DeepEqual(verts, want) {
		t.Fatalf("active = %v, want %v", verts, want)
	}
	if want := [][2]int{{0, 0}, {0, 2}, {2, 3}, {3, 3}, {3, 6}, {6, 6}}; !reflect.DeepEqual(ranges, want) {
		t.Fatalf("message ranges = %v, want %v", ranges, want)
	}
	if verts, _ := activeVertices(nil, bitset.New(32), 0, 32); len(verts) != 0 {
		t.Fatalf("empty batch: active = %v", verts)
	}
}
