package ssd

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// intDev returns an uncached in-memory device with a small page size.
func intDev(t *testing.T) *Device {
	t.Helper()
	return MustOpen(Config{PageSize: 128, Channels: 4})
}

// writeFile creates name and fills it with n pages whose bytes encode the
// page index, returning the file.
func writeFile(t *testing.T, d *Device, name string, n int) *File {
	t.Helper()
	f, err := d.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	pages := make([][]byte, n)
	for pg := range pages {
		pages[pg] = bytes.Repeat([]byte{byte(pg + 1)}, d.PageSize())
	}
	if err := f.AppendPages(pages); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestChecksumRoundTrip(t *testing.T) {
	d := intDev(t)
	f := writeFile(t, d, "data", 8)
	buf := make([]byte, d.PageSize())
	for pg := 0; pg < 8; pg++ {
		if err := f.ReadPage(pg, buf); err != nil {
			t.Fatalf("page %d: %v", pg, err)
		}
		if !bytes.Equal(buf, bytes.Repeat([]byte{byte(pg + 1)}, d.PageSize())) {
			t.Fatalf("page %d content mismatch", pg)
		}
	}
	if st := d.Stats(); st.CorruptPages != 0 || st.CorruptionsInjected != 0 {
		t.Fatalf("clean round trip charged corruption: %+v", st)
	}
}

func TestCorruptScriptedSticky(t *testing.T) {
	d := intDev(t)
	f := writeFile(t, d, "data", 4)
	buf := make([]byte, d.PageSize())

	d.FailCorruptAt(1) // second physical page read
	if err := f.ReadPage(0, buf); err != nil {
		t.Fatalf("op 0 should be clean: %v", err)
	}
	if err := f.ReadPage(2, buf); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("op 1 err = %v, want ErrCorruptPage", err)
	}

	// Sticky: disarm injection; the stored bits stay flipped and the CRC
	// stays stale, so the same page keeps failing until rewritten.
	d.FailCorruptAt()
	if err := f.ReadPage(2, buf); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("disarmed re-read err = %v, want ErrCorruptPage (sticky)", err)
	}
	if err := f.ReadPage(0, buf); err != nil {
		t.Fatalf("undamaged page errored after disarm: %v", err)
	}

	// Rewriting the page refreshes the checksum and clears the damage.
	if err := f.WritePage(2, bytes.Repeat([]byte{9}, d.PageSize())); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadPage(2, buf); err != nil {
		t.Fatalf("rewritten page still failing: %v", err)
	}

	st := d.Stats()
	if st.CorruptionsInjected != 1 {
		t.Fatalf("CorruptionsInjected = %d, want 1", st.CorruptionsInjected)
	}
	if st.CorruptPages != 2 {
		t.Fatalf("CorruptPages = %d, want 2 (injected read + sticky re-read)", st.CorruptPages)
	}
	if fs := d.StatsByFile()["data"]; fs.CorruptPages != 2 {
		t.Fatalf("per-file CorruptPages = %d, want 2", fs.CorruptPages)
	}
}

func TestCorruptProbDeterministic(t *testing.T) {
	count := func(seed uint64) (uint64, int) {
		d := intDev(t)
		f := writeFile(t, d, "data", 16)
		d.FailCorruptProb(0.3, seed)
		buf := make([]byte, d.PageSize())
		fails := 0
		for pg := 0; pg < 16; pg++ {
			if err := f.ReadPage(pg, buf); errors.Is(err, ErrCorruptPage) {
				fails++
			} else if err != nil {
				t.Fatal(err)
			}
		}
		return d.Stats().CorruptionsInjected, fails
	}
	inj1, f1 := count(7)
	inj2, f2 := count(7)
	if inj1 != inj2 || f1 != f2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", inj1, f1, inj2, f2)
	}
	if inj1 == 0 || inj1 == 16 {
		t.Fatalf("p=0.3 over 16 reads injected %d corruptions — injection not probabilistic", inj1)
	}
}

func TestCorruptOnlyFilterAndOps(t *testing.T) {
	d := intDev(t)
	fa := writeFile(t, d, "clean.dat", 4)
	fb := writeFile(t, d, "target.dat", 4)
	buf := make([]byte, d.PageSize())

	// A filter alone counts matching reads without corrupting anything.
	d.CorruptOnly("target")
	for pg := 0; pg < 4; pg++ {
		if err := fa.ReadPage(pg, buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.CorruptOps(); got != 0 {
		t.Fatalf("non-matching reads counted: CorruptOps = %d", got)
	}
	for pg := 0; pg < 3; pg++ {
		if err := fb.ReadPage(pg, buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.CorruptOps(); got != 3 {
		t.Fatalf("CorruptOps = %d, want 3", got)
	}

	// Script an exact matching read; the filter keeps other files safe.
	d.FailCorruptAt(2)
	if err := fa.ReadPage(0, buf); err != nil {
		t.Fatalf("filtered-out file corrupted: %v", err)
	}
	if err := fb.ReadPage(0, buf); err != nil { // op 0
		t.Fatal(err)
	}
	if err := fb.ReadPage(1, buf); err != nil { // op 1
		t.Fatal(err)
	}
	if err := fb.ReadPage(3, buf); !errors.Is(err, ErrCorruptPage) { // op 2
		t.Fatalf("scripted op err = %v, want ErrCorruptPage", err)
	}
}

func TestCorruptDiskSidecarPersists(t *testing.T) {
	dir := t.TempDir()
	d1 := MustOpen(Config{PageSize: 128, Channels: 2, Dir: dir})
	writeFile(t, d1, "data", 4)
	if err := d1.CorruptStoredPage("data", 2); err != nil {
		t.Fatal(err)
	}

	// A second device adopting the directory sees the checksums — and the
	// damage — planted by the first.
	d2 := MustOpen(Config{PageSize: 128, Channels: 2, Dir: dir})
	for _, name := range d2.ListFiles() {
		if isSidecar(name) {
			t.Fatalf("sidecar %q adopted as a data file", name)
		}
	}
	f, err := d2.OpenFile("data")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, d2.PageSize())
	if err := f.ReadPage(1, buf); err != nil {
		t.Fatalf("clean page failed across re-open: %v", err)
	}
	if err := f.ReadPage(2, buf); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("corrupt page err across re-open = %v, want ErrCorruptPage", err)
	}
}

func TestScrubFindsPlantedCorruption(t *testing.T) {
	d := intDev(t)
	writeFile(t, d, "bad", 4)
	writeFile(t, d, "good", 4)
	if err := d.CorruptStoredPage("bad", 1); err != nil {
		t.Fatal(err)
	}

	before := d.Stats()
	res, err := d.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].File != "bad" || res[1].File != "good" {
		t.Fatalf("scrub results = %+v", res)
	}
	if res[0].OK() || !reflect.DeepEqual(res[0].Corrupt, []int{1}) {
		t.Fatalf("bad file result = %+v, want Corrupt=[1]", res[0])
	}
	if !res[1].OK() || res[1].Pages != 4 {
		t.Fatalf("good file result = %+v", res[1])
	}
	after := d.Stats()
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("scrub charged the device: before %+v after %+v", before, after)
	}

	// Rewriting the damaged page heals it.
	f, _ := d.OpenFile("bad")
	if err := f.WritePage(1, make([]byte, d.PageSize())); err != nil {
		t.Fatal(err)
	}
	res, err = d.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].OK() {
		t.Fatalf("rewritten page still flagged: %+v", res[0])
	}
}

func TestNoVerifySkipsChecksums(t *testing.T) {
	d := MustOpen(Config{PageSize: 128, Channels: 2, NoVerify: true})
	f := writeFile(t, d, "data", 2)
	if err := d.CorruptStoredPage("data", 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, d.PageSize())
	if err := f.ReadPage(0, buf); err != nil {
		t.Fatalf("NoVerify read errored: %v", err)
	}
	if st := d.Stats(); st.CorruptPages != 0 {
		t.Fatalf("NoVerify charged CorruptPages = %d", st.CorruptPages)
	}
}

func TestCorruptStoredPageErrors(t *testing.T) {
	d := intDev(t)
	writeFile(t, d, "data", 2)
	if err := d.CorruptStoredPage("missing", 0); !errors.Is(err, ErrNotExist) {
		t.Fatalf("missing file err = %v", err)
	}
	if err := d.CorruptStoredPage("data", 2); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range err = %v", err)
	}
	if err := d.CorruptStoredPage("data", -1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("negative page err = %v", err)
	}
}

// fillDistinct sets every numeric leaf of v (recursing through structs
// and arrays) to a distinct nonzero value.
func fillDistinct(v reflect.Value, next *uint64) {
	switch v.Kind() {
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		*next += 3
		v.SetUint(*next)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		*next += 3
		v.SetInt(int64(*next))
	case reflect.Float32, reflect.Float64:
		*next += 3
		v.SetFloat(float64(*next))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(v.Field(i), next)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillDistinct(v.Index(i), next)
		}
	default:
		panic("Stats grew a field kind Sub cannot be audited for: " + v.Kind().String())
	}
}

// TestStatsSubComplete locks in the audit that Stats.Sub subtracts every
// field: fill the struct with distinct values, then s-0 must equal s and
// s-s must be zero. A field forgotten in Sub fails one of the two.
func TestStatsSubComplete(t *testing.T) {
	var s Stats
	next := uint64(10)
	fillDistinct(reflect.ValueOf(&s).Elem(), &next)

	var zero Stats
	if got := s.Sub(zero); !reflect.DeepEqual(got, s) {
		t.Fatalf("s.Sub(zero) != s:\n got %+v\nwant %+v", got, s)
	}
	if got := s.Sub(s); !reflect.DeepEqual(got, zero) {
		t.Fatalf("s.Sub(s) != zero: %+v", got)
	}
}
