package extsort

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"multilogvc/internal/ssd"
)

func dev() *ssd.Device {
	return ssd.MustOpen(ssd.Config{PageSize: 128, Channels: 2})
}

func sliceSource(recs []Record) Source {
	return func(yield func(Record) error) error {
		for _, r := range recs {
			if err := yield(r); err != nil {
				return err
			}
		}
		return nil
	}
}

func randomRecs(rng *rand.Rand, n, dstRange int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Dst:  uint32(rng.Intn(dstRange)),
			Src:  rng.Uint32(),
			Data: uint32(rng.Intn(100)),
		}
	}
	return recs
}

func TestInMemorySort(t *testing.T) {
	d := dev()
	recs := []Record{{Dst: 5}, {Dst: 1}, {Dst: 3}}
	var out []Record
	st, err := Sort(d, "s", sliceSource(recs), 0, 8, 1<<20, nil, func(r Record) error {
		out = append(out, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs != 0 {
		t.Fatalf("in-memory sort spilled %d runs", st.Runs)
	}
	if len(out) != 3 || out[0].Dst != 1 || out[1].Dst != 3 || out[2].Dst != 5 {
		t.Fatalf("out = %v", out)
	}
	if st.Input != 3 || st.Output != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestExternalSortSpillsRuns(t *testing.T) {
	d := dev()
	rng := rand.New(rand.NewSource(1))
	recs := randomRecs(rng, 1000, 500)
	// Budget for ~50 records per run.
	var out []Record
	st, err := Sort(d, "s", sliceSource(recs), 0, 500, 50*RecordBytes, nil, func(r Record) error {
		out = append(out, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs < 2 {
		t.Fatalf("expected multiple runs, got %d", st.Runs)
	}
	if len(out) != 1000 {
		t.Fatalf("output %d records, want 1000", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i-1].Dst > out[i].Dst {
			t.Fatal("output not sorted")
		}
	}
	// Run files cleaned up.
	for _, name := range d.ListFiles() {
		t.Fatalf("leftover file %q", name)
	}
}

func TestSortPreservesMultiset(t *testing.T) {
	d := dev()
	rng := rand.New(rand.NewSource(2))
	recs := randomRecs(rng, 700, 60)
	counts := make(map[Record]int)
	for _, r := range recs {
		counts[r]++
	}
	_, err := Sort(d, "s", sliceSource(recs), 0, 60, 64*RecordBytes, nil, func(r Record) error {
		counts[r]--
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, c := range counts {
		if c != 0 {
			t.Fatalf("record %v count mismatch %d", r, c)
		}
	}
}

func TestCombineInMemory(t *testing.T) {
	d := dev()
	recs := []Record{{Dst: 1, Data: 10}, {Dst: 1, Data: 20}, {Dst: 2, Data: 5}}
	var out []Record
	st, err := Sort(d, "s", sliceSource(recs), 0, 8, 1<<20,
		func(a, b uint32) uint32 { return a + b },
		func(r Record) error { out = append(out, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Data != 30 || out[1].Data != 5 {
		t.Fatalf("out = %v", out)
	}
	if st.Combined != 1 || st.Output != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCombineExternalMatchesSum(t *testing.T) {
	d := dev()
	rng := rand.New(rand.NewSource(3))
	recs := randomRecs(rng, 2000, 30)
	want := make(map[uint32]uint32)
	for _, r := range recs {
		want[r.Dst] += r.Data
	}
	got := make(map[uint32]uint32)
	st, err := Sort(d, "s", sliceSource(recs), 0, 30, 64*RecordBytes,
		func(a, b uint32) uint32 { return a + b },
		func(r Record) error {
			if _, dup := got[r.Dst]; dup {
				t.Fatalf("dst %d emitted twice", r.Dst)
			}
			got[r.Dst] = r.Data
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs < 2 {
		t.Fatalf("expected external sort, runs = %d", st.Runs)
	}
	for dst, sum := range want {
		if got[dst] != sum {
			t.Fatalf("dst %d sum = %d, want %d", dst, got[dst], sum)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	d := dev()
	st, err := Sort(d, "s", sliceSource(nil), 0, 8, 1<<20, nil, func(Record) error {
		t.Fatal("emit on empty input")
		return nil
	})
	if err != nil || st.Input != 0 || st.Output != 0 {
		t.Fatalf("st = %+v err = %v", st, err)
	}
}

// Property: external sort output equals sort.Slice of the input.
func TestQuickSortMatchesStdlib(t *testing.T) {
	f := func(seed int64, budgetRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500)
		recs := randomRecs(rng, n, 50)
		budget := int64(budgetRaw%40+2) * RecordBytes
		var out []Record
		_, err := Sort(dev(), "s", sliceSource(recs), 0, 50, budget, nil, func(r Record) error {
			out = append(out, r)
			return nil
		})
		if err != nil || len(out) != n {
			return false
		}
		want := make([]Record, n)
		copy(want, recs)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Dst < want[j].Dst })
		// Compare dst sequence (full record order within a dst is
		// unspecified) and multiset equality.
		for i := range out {
			if out[i].Dst != want[i].Dst {
				return false
			}
		}
		counts := make(map[Record]int)
		for _, r := range out {
			counts[r]++
		}
		for _, r := range recs {
			counts[r]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// stableRef is the expected stable order: by destination, then input
// position (records carry their input index in Src).
func stableRef(recs []Record) []Record {
	want := append([]Record(nil), recs...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].Dst < want[j].Dst })
	return want
}

func indexed(rng *rand.Rand, n, dstRange int) []Record {
	recs := randomRecs(rng, n, dstRange)
	for i := range recs {
		recs[i].Src = uint32(i)
	}
	return recs
}

// Both sorts are stable: in memory and across spilled runs, equal
// destinations leave in input order.
func TestSortIsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	recs := indexed(rng, 3000, 40) // ~75 records per destination
	want := stableRef(recs)
	for _, budget := range []int64{1 << 20, 100 * RecordBytes} {
		var got []Record
		st, err := Sort(dev(), "s", sliceSource(recs), 0, 40, budget, nil, func(r Record) error {
			got = append(got, r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if budget < 1<<20 && st.Runs < 2 {
			t.Fatalf("budget %d: %d runs, want several", budget, st.Runs)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("budget %d (%d runs): out[%d] = %+v, want %+v", budget, st.Runs, i, got[i], want[i])
			}
		}
	}
}

// SortByDst is stable whether the range is dense or sparse relative to
// the record count, and it rejects a record outside the range with a
// classified error instead of panicking — as do Sort's in-memory and
// spilled paths.
func TestSortByDst(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tc := range []struct {
		name   string
		lo, hi uint32
	}{{"dense", 100, 150}, {"sparse", 100, 1 << 20}} {
		recs := indexed(rng, 500, 50)
		for i := range recs {
			recs[i].Dst += 100
		}
		want := stableRef(recs)
		got, err := SortByDst(recs, tc.lo, tc.hi)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: out[%d] = %+v, want %+v", tc.name, i, got[i], want[i])
			}
		}
	}
	for _, dst := range []uint32{99, 150} {
		recs := []Record{{Dst: 120}, {Dst: dst}}
		if _, err := SortByDst(recs, 100, 150); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("dst %d outside [100, 150): err = %v, want ErrOutOfRange", dst, err)
		}
	}
	if got, err := SortByDst(nil, 0, 10); err != nil || len(got) != 0 {
		t.Fatalf("empty input: %v, %v", got, err)
	}
	recs := []Record{{Dst: 3}, {Dst: 1}, {Dst: 10}}
	for _, budget := range []int64{1 << 20, 2 * RecordBytes} {
		_, err := Sort(dev(), "s", sliceSource(recs), 0, 10, budget, nil, func(Record) error { return nil })
		if !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("Sort budget %d, dst 10 outside [0, 10): err = %v, want ErrOutOfRange", budget, err)
		}
	}
}
