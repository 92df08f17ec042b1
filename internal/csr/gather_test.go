package csr

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"multilogvc/internal/gen"
	"multilogvc/internal/graphio"
	"multilogvc/internal/ssd"
)

func TestPlanPages(t *testing.T) {
	// 16-byte pages. Ranges: two sharing page 1, an empty one, one
	// spanning pages 2-4, and a duplicate of it.
	ranges := [][2]int64{{4, 20}, {20, 30}, {30, 30}, {40, 70}, {40, 70}}
	plan, err := planPages(16, len(ranges), func(i int) (int64, int64) { return ranges[i][0], ranges[i][1] })
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(plan.pages, want) {
		t.Fatalf("pages = %v, want %v", plan.pages, want)
	}
	if want := []int32{12, 4 + 10, 2 * 8, 2 * 16, 2 * 6}; !reflect.DeepEqual(plan.used, want) {
		t.Fatalf("used = %v, want %v", plan.used, want)
	}
	if want := []int32{0, 1, -1, 2, 2}; !reflect.DeepEqual(plan.first, want) {
		t.Fatalf("first = %v, want %v", plan.first, want)
	}
	// Views are contiguous slices of the gathered pages.
	buf := make([]byte, len(plan.pages)*16)
	for i := range buf {
		buf[i] = byte(i) // page k holds bytes 16k.., as if read in place
	}
	for i, r := range ranges {
		v := plan.view(buf, i, r[0], r[1])
		if int64(len(v)) != r[1]-r[0] || (len(v) > 0 && int64(v[0]) != r[0]) {
			t.Fatalf("range %d view = %v", i, v)
		}
	}

	// Gaps between ranges skip pages; a range that steps back is an error.
	plan, err = planPages(16, 2, func(i int) (int64, int64) { return int64(i) * 100, int64(i)*100 + 4 })
	if err != nil || !reflect.DeepEqual(plan.pages, []int{0, 6}) {
		t.Fatalf("gapped plan = %v, %v", plan.pages, err)
	}
	if _, err := planPages(16, 2, func(i int) (int64, int64) { return int64(1-i) * 32, int64(1-i)*32 + 4 }); err == nil {
		t.Fatal("descending ranges planned without error")
	}
}

func TestLoadRejectsDescendingVerts(t *testing.T) {
	g, err := Build(testDev(t), "paper", paperEdges(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.LoadOutEdges(0, []uint32{3, 1}, func(uint32, []uint32) {}); err == nil {
		t.Fatal("LoadOutEdges accepted descending vertices")
	}
	if _, err := g.LoadOutEdges(0, []uint32{1, 1, 3}, func(uint32, []uint32) {}); err != nil {
		t.Fatalf("repeated vertex: %v", err)
	}
}

// pageRecorder is a page cache that never hits and records every page a
// read asks it for, per file: the exact pages a load fetches.
type pageRecorder struct {
	mu  sync.Mutex
	got map[uint32][]int
}

func (r *pageRecorder) reset() {
	r.mu.Lock()
	r.got = map[uint32][]int{}
	r.mu.Unlock()
}

func (r *pageRecorder) pages(f *ssd.File) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.got[f.ID()]
}

func (r *pageRecorder) Get(fid uint32, page int, _ []byte) bool {
	r.mu.Lock()
	r.got[fid] = append(r.got[fid], page)
	r.mu.Unlock()
	return false
}
func (r *pageRecorder) Put(uint32, int, []byte, bool) bool { return false }
func (r *pageRecorder) Contains(uint32, int) bool          { return false }
func (r *pageRecorder) Write(uint32, int, []byte)          {}
func (r *pageRecorder) Pin(uint32, int) bool               { return false }
func (r *pageRecorder) Unpin(uint32, int)                  {}
func (r *pageRecorder) InvalidateFile(uint32)              {}

type wedge struct{ nb, w uint32 }

// Property, over random graphs and random ascending vertex subsets with
// structural deltas pending: the prefetch planners name exactly the pages
// the demand load reads, and the loaded adjacency — out and in, weights
// included — equals the in-memory edge list with the mutations applied,
// and stays valid after the load returns.
func TestQuickPlannersMatchDemandLoad(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := uint32(40 + rng.Intn(300))
		weighted := seed%2 == 0
		// Distinct base edges, so a delete names one instance unambiguously.
		seen := map[graphio.Edge]bool{}
		var base []graphio.WeightedEdge
		for i := 0; i < int(n)*(1+rng.Intn(8)); i++ {
			e := graphio.Edge{Src: uint32(rng.Intn(int(n))), Dst: uint32(rng.Intn(int(n)))}
			if rng.Intn(4) == 0 {
				e.Src = uint32(rng.Intn(4)) // a few hubs span several pages
			}
			if !seen[e] {
				seen[e] = true
				base = append(base, graphio.WeightedEdge{Src: e.Src, Dst: e.Dst, Weight: uint32(1 + rng.Intn(9))})
			}
		}
		dev := ssd.MustOpen(ssd.Config{PageSize: 64 << rng.Intn(3), Channels: 4})
		opts := BuildOptions{NumVertices: n, IntervalBudget: int64(12 * (20 + rng.Intn(200)))}
		var g *Graph
		var err error
		if weighted {
			g, err = BuildWeighted(dev, "g", base, opts)
		} else {
			g, err = Build(dev, "g", graphio.Strip(base), opts)
		}
		if err != nil {
			t.Fatal(err)
		}

		// The oracle: per-vertex out and in lists, base first, then the
		// pending mutations in order (a delete drops the newest instance).
		out, in := map[uint32][]wedge{}, map[uint32][]wedge{}
		for _, e := range base {
			w := e.Weight
			if !weighted {
				w = 0
			}
			out[e.Src] = append(out[e.Src], wedge{e.Dst, w})
			in[e.Dst] = append(in[e.Dst], wedge{e.Src, w})
		}
		drop := func(l []wedge, id uint32) []wedge {
			for i := len(l) - 1; i >= 0; i-- {
				if l[i].nb == id {
					return slices.Delete(l, i, i+1)
				}
			}
			return l
		}
		var muts []Mutation
		for i := 0; i < rng.Intn(60); i++ {
			m := Mutation{Src: uint32(rng.Intn(int(n))), Dst: uint32(rng.Intn(int(n))), Weight: uint32(1 + rng.Intn(9))}
			if rng.Intn(3) == 0 && len(base) > 0 {
				e := base[rng.Intn(len(base))]
				m = Mutation{Del: true, Src: e.Src, Dst: e.Dst}
			}
			muts = append(muts, m)
			if m.Del {
				out[m.Src], in[m.Dst] = drop(out[m.Src], m.Dst), drop(in[m.Dst], m.Src)
				continue
			}
			w := m.Weight
			if !weighted {
				w = 0
			}
			out[m.Src] = append(out[m.Src], wedge{m.Dst, w})
			in[m.Dst] = append(in[m.Dst], wedge{m.Src, w})
		}
		if err := g.ApplyMutations(muts, 1<<30); err != nil {
			t.Fatal(err)
		}
		if len(muts) > 0 && g.PendingUpdates() == 0 {
			t.Fatalf("seed %d: mutations were merged, want them pending", seed)
		}

		rec := &pageRecorder{}
		dev.AttachCache(rec)
		for iv, interval := range g.Intervals() {
			var verts []uint32
			p := rng.Float64()
			for v := interval.Lo; v < interval.Hi; v++ {
				if rng.Float64() < p {
					verts = append(verts, v)
				}
			}
			if len(verts) == 0 {
				continue
			}
			for side, want := range []map[uint32][]wedge{out, in} {
				got := map[uint32][]wedge{}
				lists := map[uint32][2][]uint32{}
				visit := func(v uint32, nbrs, weights []uint32, _, _ int32) {
					lists[v] = [2][]uint32{nbrs, weights}
				}
				rec.reset()
				var stats LoadStats
				if side == 0 {
					stats, err = g.LoadOutEdgesFull(iv, verts, visit)
				} else {
					stats, err = g.LoadInEdgesFull(iv, verts, visit)
				}
				if err != nil {
					t.Fatal(err)
				}
				// Lists are read after the load returned: they must still
				// hold what the load decoded.
				for v, l := range lists {
					if weighted != (l[1] != nil) {
						t.Fatalf("seed %d: weights %v on a weighted=%v graph", seed, l[1], weighted)
					}
					got[v] = []wedge{}
					for j, nb := range l[0] {
						w := uint32(0)
						if weighted {
							w = l[1][j]
						}
						got[v] = append(got[v], wedge{nb, w})
					}
				}
				for _, v := range verts {
					a, b := slices.Clone(got[v]), slices.Clone(want[v])
					cmp := func(x, y wedge) int {
						if x.nb != y.nb {
							return int(x.nb) - int(y.nb)
						}
						return int(x.w) - int(y.w)
					}
					slices.SortFunc(a, cmp)
					slices.SortFunc(b, cmp)
					if len(a) != len(b) || (len(a) > 0 && !reflect.DeepEqual(a, b)) {
						t.Fatalf("seed %d side %d vertex %d: loaded %v, want %v", seed, side, v, a, b)
					}
				}
				if side == 1 {
					continue
				}
				rowRead, colRead := rec.pages(g.outRow[iv]), rec.pages(g.outCol[iv])
				if stats.RowPtrPages != len(rowRead) || stats.ColIdxPages != len(colRead) {
					t.Fatalf("seed %d: stats %d/%d pages, read %d/%d", seed, stats.RowPtrPages, stats.ColIdxPages, len(rowRead), len(colRead))
				}
				if _, rowPlan := g.OutRowPages(iv, verts); !slices.Equal(rowPlan, rowRead) {
					t.Fatalf("seed %d interval %d: OutRowPages %v, demand load read %v", seed, iv, rowPlan, rowRead)
				}
				colF, colPlan, err := g.OutColPages(iv, verts)
				if err != nil {
					t.Fatal(err)
				}
				if len(colRead) > 0 && (colF != g.outCol[iv] || !slices.Equal(colPlan, colRead)) {
					t.Fatalf("seed %d interval %d: OutColPages %v, demand load read %v", seed, iv, colPlan, colRead)
				}
				if len(colRead) == 0 && len(colPlan) != 0 {
					t.Fatalf("seed %d interval %d: OutColPages %v for edgeless vertices", seed, iv, colPlan)
				}
			}
		}
	}
}

// A load's allocations do not grow with how many vertices or edges it
// serves: every page list, buffer and arena is allocated once per call.
func TestLoadOutEdgesFullAllocsFlat(t *testing.T) {
	edges, err := gen.RMAT(gen.DefaultRMAT(10, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, weighted := range []bool{false, true} {
		dev := ssd.MustOpen(ssd.Config{PageSize: 256, Channels: 4})
		opts := BuildOptions{NumVertices: 1 << 10, IntervalBudget: 1 << 30} // one interval
		var g *Graph
		if weighted {
			wedges := make([]graphio.WeightedEdge, len(edges))
			for i, e := range edges {
				wedges[i] = graphio.WeightedEdge{Src: e.Src, Dst: e.Dst, Weight: uint32(i)}
			}
			g, err = BuildWeighted(dev, "g", wedges, opts)
		} else {
			g, err = Build(dev, "g", edges, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		all := make([]uint32, g.NumVertices())
		for i := range all {
			all[i] = uint32(i)
		}
		edgesSeen := 0
		visit := func(_ uint32, nbrs, _ []uint32, _, _ int32) { edgesSeen += len(nbrs) }
		allocs := func(verts []uint32) float64 {
			return testing.AllocsPerRun(10, func() {
				if _, err := g.LoadOutEdgesFull(0, verts, visit); err != nil {
					t.Fatal(err)
				}
			})
		}
		few, many := allocs(all[:2]), allocs(all)
		if edgesSeen < 10*len(all) {
			t.Fatalf("the full load saw only %d edges", edgesSeen)
		}
		if many > few {
			t.Fatalf("weighted=%v: %.0f allocations loading 2 vertices, %.0f loading %d", weighted, few, many, len(all))
		}
	}
}
