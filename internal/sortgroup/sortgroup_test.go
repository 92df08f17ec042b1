package sortgroup

import (
	"errors"
	"math/rand"
	"testing"

	"multilogvc/internal/csr"
	"multilogvc/internal/extsort"
	"multilogvc/internal/mlog"
	"multilogvc/internal/ssd"
	"multilogvc/internal/vc"
)

func fixture(t *testing.T) (*mlog.Log, []csr.Interval) {
	t.Helper()
	dev := ssd.MustOpen(ssd.Config{PageSize: 120, Channels: 2})
	ivs := []csr.Interval{{Lo: 0, Hi: 10}, {Lo: 10, Hi: 20}, {Lo: 20, Hi: 30}}
	l, err := mlog.New(dev, "log", len(ivs), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return l, ivs
}

func TestLoadFusedSingleInterval(t *testing.T) {
	l, ivs := fixture(t)
	// Fill every interval beyond the tiny budget so no fusing happens.
	for i := uint32(0); i < 30; i++ {
		l.Append(int(i/10), i, 99, i*2)
	}
	l.FlushAll()
	// Budget fits exactly one interval's log: no room to fuse, no spill.
	b, err := Load(l, ivs, 0, Options{SortBudget: 10 * mlog.RecordBytes}, new(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	if b.Spilled {
		t.Fatal("a log exactly at the budget must not spill")
	}
	if b.FirstIv != 0 || b.LastIv != 0 {
		t.Fatalf("fused [%d,%d], want [0,0]", b.FirstIv, b.LastIv)
	}
	if len(b.Recs) != 10 {
		t.Fatalf("recs = %d, want 10", len(b.Recs))
	}
	for i := 1; i < len(b.Recs); i++ {
		if b.Recs[i-1].Dst > b.Recs[i].Dst {
			t.Fatal("records not sorted by dst")
		}
	}
}

func TestLoadFusedMergesSmallLogs(t *testing.T) {
	l, ivs := fixture(t)
	for i := uint32(0); i < 30; i++ {
		l.Append(int(i/10), i, 0, 0)
	}
	l.FlushAll()
	// Budget fits everything: all three logs fuse into one batch.
	b, err := Load(l, ivs, 0, Options{SortBudget: 1 << 20}, new(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	if b.FirstIv != 0 || b.LastIv != 2 {
		t.Fatalf("fused [%d,%d], want [0,2]", b.FirstIv, b.LastIv)
	}
	if b.Lo != 0 || b.Hi != 30 {
		t.Fatalf("range [%d,%d)", b.Lo, b.Hi)
	}
	if len(b.Recs) != 30 {
		t.Fatalf("recs = %d", len(b.Recs))
	}
}

func TestLoadFusedPartial(t *testing.T) {
	l, ivs := fixture(t)
	// Interval 0 and 1 small, interval 2 large.
	l.Append(0, 1, 0, 0)
	l.Append(1, 11, 0, 0)
	for i := 0; i < 50; i++ {
		l.Append(2, 21, 0, 0)
	}
	l.FlushAll()
	b, err := Load(l, ivs, 0, Options{SortBudget: 5 * mlog.RecordBytes}, new(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	if b.FirstIv != 0 || b.LastIv != 1 {
		t.Fatalf("fused [%d,%d], want [0,1]", b.FirstIv, b.LastIv)
	}
}

// group is one destination's messages as the engine delivers them.
type group struct {
	dst  uint32
	msgs []vc.Msg
}

// fold groups a loaded batch's records by destination, from the first
// destination >= from, reducing each group to one message when c is
// non-nil: the engine's per-vertex delivery in miniature.
func fold(b *Batch, from uint32, c vc.Combiner) []group {
	var out []group
	for i := 0; i < len(b.Recs); {
		dst := b.Recs[i].Dst
		var msgs []vc.Msg
		for ; i < len(b.Recs) && b.Recs[i].Dst == dst; i++ {
			msgs = append(msgs, vc.Msg{Src: b.Recs[i].Src, Data: b.Recs[i].Data})
		}
		if dst < from {
			continue
		}
		if c != nil {
			for _, m := range msgs[1:] {
				msgs[0].Data = c.Combine(msgs[0].Data, m.Data)
			}
			msgs = msgs[:1]
		}
		out = append(out, group{dst, msgs})
	}
	return out
}

func TestGrouperGroupsByDst(t *testing.T) {
	l, ivs := fixture(t)
	l.Append(0, 2, 10, 100)
	l.Append(0, 2, 11, 200)
	l.Append(0, 4, 12, 300)
	l.FlushAll()
	b, _ := Load(l, ivs, 0, Options{SortBudget: 1 << 20}, new(Scratch))
	gs := fold(b, 0, nil)

	if len(gs) < 1 || gs[0].dst != 2 || len(gs[0].msgs) != 2 {
		t.Fatalf("first group %+v", gs)
	}
	msgs := gs[0].msgs
	total := msgs[0].Data + msgs[1].Data
	if total != 300 {
		t.Fatalf("group payloads = %v", msgs)
	}
	if len(gs) < 2 || gs[1].dst != 4 || len(gs[1].msgs) != 1 || gs[1].msgs[0].Data != 300 {
		t.Fatalf("second group %+v", gs)
	}
	if len(gs) != 2 {
		t.Fatalf("%d groups, want 2", len(gs))
	}
}

type sumCombiner struct{}

func (sumCombiner) Combine(a, b uint32) uint32 { return a + b }

func TestGrouperCombines(t *testing.T) {
	l, ivs := fixture(t)
	l.Append(0, 2, 10, 100)
	l.Append(0, 2, 11, 200)
	l.Append(0, 2, 12, 300)
	l.FlushAll()
	b, _ := Load(l, ivs, 0, Options{SortBudget: 1 << 20}, new(Scratch))
	gs := fold(b, 0, sumCombiner{})
	if len(gs) != 1 || len(gs[0].msgs) != 1 || gs[0].msgs[0].Data != 600 {
		t.Fatalf("combined groups = %+v", gs)
	}
}

func TestGrouperSkipTo(t *testing.T) {
	l, ivs := fixture(t)
	for _, dst := range []uint32{1, 3, 5, 7} {
		l.Append(0, dst, 0, uint32(dst))
	}
	l.FlushAll()
	b, _ := Load(l, ivs, 0, Options{SortBudget: 1 << 20}, new(Scratch))
	if gs := fold(b, 4, nil); len(gs) == 0 || gs[0].dst != 5 {
		t.Fatalf("groups from 4 = %+v, want the first at 5", gs)
	}
}

// Property: grouped output equals a map-based grouping of the input.
func TestGrouperMatchesMapGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	l, ivs := fixture(t)
	ref := make(map[uint32][]vc.Msg)
	for i := 0; i < 500; i++ {
		dst := uint32(rng.Intn(30))
		src := uint32(rng.Intn(30))
		data := rng.Uint32()
		l.Append(int(dst/10), dst, src, data)
		ref[dst] = append(ref[dst], vc.Msg{Src: src, Data: data})
	}
	l.FlushAll()
	b, err := Load(l, ivs, 0, Options{SortBudget: 1 << 20}, new(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	gs := fold(b, 0, nil)
	for _, g := range gs {
		dst, msgs := g.dst, g.msgs
		want := ref[dst]
		if len(msgs) != len(want) {
			t.Fatalf("dst %d: %d msgs, want %d", dst, len(msgs), len(want))
		}
		// Compare as multisets (order is unspecified).
		counts := make(map[vc.Msg]int)
		for _, m := range msgs {
			counts[m]++
		}
		for _, m := range want {
			counts[m]--
		}
		for m, c := range counts {
			if c != 0 {
				t.Fatalf("dst %d: message multiset mismatch at %v", dst, m)
			}
		}
	}
	if len(gs) != len(ref) {
		t.Fatalf("%d groups, want %d", len(gs), len(ref))
	}
}

func TestLoadFusedLastInterval(t *testing.T) {
	l, ivs := fixture(t)
	l.Append(2, 25, 0, 0)
	l.FlushAll()
	b, err := Load(l, ivs, 2, Options{SortBudget: 1 << 20}, new(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	if b.FirstIv != 2 || b.LastIv != 2 || len(b.Recs) != 1 {
		t.Fatalf("batch = %+v", b)
	}
}

func TestGrouperEmptyBatch(t *testing.T) {
	l, ivs := fixture(t)
	b, err := Load(l, ivs, 0, Options{SortBudget: 1 << 20}, new(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Recs) != 0 {
		t.Fatalf("recs = %v", b.Recs)
	}
	if gs := fold(b, 0, nil); len(gs) != 0 {
		t.Fatalf("empty batch folded to %+v", gs)
	}
	if gs := fold(b, 100, nil); len(gs) != 0 { // past every vertex
		t.Fatalf("empty batch from 100 folded to %+v", gs)
	}
}

// A record outside its interval's vertex range is corrupt log content:
// Load reports it as extsort.ErrOutOfRange rather than panicking.
func TestLoadRejectsOutOfRangeRecord(t *testing.T) {
	l, ivs := fixture(t)
	l.Append(0, 3, 0, 0)
	l.Append(0, 25, 0, 0) // interval 0 holds [0, 10)
	l.FlushAll()
	if _, err := Load(l, ivs, 0, Options{SortBudget: 1 << 20, NoFuse: true}, new(Scratch)); !errors.Is(err, extsort.ErrOutOfRange) {
		t.Fatalf("err = %v, want extsort.ErrOutOfRange", err)
	}
}
