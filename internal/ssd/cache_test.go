package ssd_test

// End-to-end tests of the device with a real page cache attached. These
// live in an external test package so they can use internal/pagecache
// without an import cycle (ssd only knows the PageCache interface).

import (
	"bytes"
	"errors"
	"testing"

	"multilogvc/internal/pagecache"
	"multilogvc/internal/ssd"
)

const ps = 128

func newCachedDev(t *testing.T, capacityPages int) (*ssd.Device, *pagecache.Cache) {
	t.Helper()
	dev := ssd.MustOpen(ssd.Config{PageSize: ps, Channels: 4})
	c := pagecache.New(capacityPages, ps)
	dev.AttachCache(c)
	return dev, c
}

func fillFile(t *testing.T, dev *ssd.Device, name string, pages int) *ssd.File {
	t.Helper()
	f, err := dev.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]byte, pages)
	for pg := range data {
		data[pg] = bytes.Repeat([]byte{byte(pg)}, ps)
	}
	if err := f.AppendPages(data); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCachedReadChargesOnlyMisses checks the core accounting contract:
// the first read pays the device, the repeat read is free, and a batch
// with a partial hit charges only the missing subset.
func TestCachedReadChargesOnlyMisses(t *testing.T) {
	dev, c := newCachedDev(t, 16)
	f := fillFile(t, dev, "data", 8)
	dev.ResetStats()

	buf := make([]byte, ps)
	if err := f.ReadPage(3, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 3 {
		t.Fatalf("read page 3: got byte %d", buf[0])
	}
	if got := dev.Stats().PagesRead; got != 1 {
		t.Fatalf("first read charged %d pages, want 1", got)
	}

	if err := f.ReadPage(3, buf); err != nil {
		t.Fatal(err)
	}
	st := dev.Stats()
	if st.PagesRead != 1 || st.BatchReads != 1 {
		t.Fatalf("repeat read charged the device: %d pages, %d batches", st.PagesRead, st.BatchReads)
	}

	// Batch of 4 with one page already resident: charge exactly 3.
	dst := make([]byte, 4*ps)
	if err := f.ReadPages([]int{2, 3, 4, 5}, dst); err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats().PagesRead; got != 4 {
		t.Fatalf("partial-hit batch charged %d total pages, want 4 (1 + 3 misses)", got)
	}
	for i, want := range []byte{2, 3, 4, 5} {
		if dst[i*ps] != want {
			t.Fatalf("batch slot %d: got %d, want %d", i, dst[i*ps], want)
		}
	}

	// Fully resident range read: zero device traffic.
	before := dev.Stats()
	if err := f.ReadPageRange(2, 4, dst); err != nil {
		t.Fatal(err)
	}
	if d := dev.Stats().Sub(before); d.PagesRead != 0 || d.BatchReads != 0 {
		t.Fatalf("fully cached range read charged %d pages", d.PagesRead)
	}
	if hits := c.Stats().Hits; hits == 0 {
		t.Fatal("cache recorded no hits")
	}
}

// TestWriteThroughCoherence checks that every write path refreshes the
// cached copy so cached readers never see stale data.
func TestWriteThroughCoherence(t *testing.T) {
	dev, _ := newCachedDev(t, 16)
	f := fillFile(t, dev, "data", 4)

	buf := make([]byte, ps)
	if err := f.ReadPage(1, buf); err != nil { // page 1 now cached
		t.Fatal(err)
	}
	upd := make([]byte, ps)
	for i := range upd {
		upd[i] = 0xAB
	}
	if err := f.WritePage(1, upd); err != nil {
		t.Fatal(err)
	}
	before := dev.Stats()
	if err := f.ReadPage(1, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xAB {
		t.Fatalf("cached read returned stale data after WritePage: %x", buf[0])
	}
	if d := dev.Stats().Sub(before); d.PagesRead != 0 {
		t.Fatal("read after write-through went to the device")
	}

	// Range write over cached pages.
	if err := f.ReadPageRange(2, 2, make([]byte, 2*ps)); err != nil {
		t.Fatal(err)
	}
	upd2 := make([]byte, 2*ps)
	for i := range upd2 {
		upd2[i] = 0xCD
	}
	if err := f.WritePageRange(2, upd2); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadPage(2, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xCD {
		t.Fatalf("cached read returned stale data after WritePageRange: %x", buf[0])
	}
}

// TestTruncateInvalidates checks that recycling a file (the mlog pattern:
// truncate between supersteps) never serves stale cached pages.
func TestTruncateInvalidates(t *testing.T) {
	dev, c := newCachedDev(t, 16)
	f := fillFile(t, dev, "log", 4)
	buf := make([]byte, ps)
	if err := f.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(); err != nil {
		t.Fatal(err)
	}
	if c.Resident() != 0 {
		t.Fatalf("%d pages survived truncate", c.Resident())
	}
	// Rewrite with different content and read through a fresh path.
	upd := make([]byte, ps)
	for i := range upd {
		upd[i] = 0xEE
	}
	if _, err := f.AppendPage(upd); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xEE {
		t.Fatalf("read stale page after truncate+rewrite: %x", buf[0])
	}
}

// TestRemoveInvalidatesAndNoAliasing checks that removing a file drops its
// pages and that a new file reusing the name gets a fresh cache namespace.
func TestRemoveInvalidatesAndNoAliasing(t *testing.T) {
	dev, c := newCachedDev(t, 16)
	f := fillFile(t, dev, "data", 2)
	if err := f.ReadPage(0, make([]byte, ps)); err != nil {
		t.Fatal(err)
	}
	oldID := f.ID()
	if err := dev.Remove("data"); err != nil {
		t.Fatal(err)
	}
	if c.Resident() != 0 {
		t.Fatal("removed file's pages still resident")
	}
	g := fillFile(t, dev, "data", 2)
	if g.ID() == oldID {
		t.Fatal("recreated file reused the old cache namespace")
	}
}

// TestFaultPropagatesThroughCacheMiss checks that an injected device
// failure surfaces on the miss path, while pure cache hits — which touch
// no device — keep succeeding.
func TestFaultPropagatesThroughCacheMiss(t *testing.T) {
	dev, _ := newCachedDev(t, 16)
	f := fillFile(t, dev, "data", 8)
	buf := make([]byte, ps)
	if err := f.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}

	dev.FailAfter(0, nil)
	if err := f.ReadPage(0, buf); err != nil {
		t.Fatalf("cache hit failed under fault injection: %v", err)
	}
	if err := f.ReadPage(1, buf); !errors.Is(err, ssd.ErrInjected) {
		t.Fatalf("cache miss error = %v, want ErrInjected", err)
	}
	if err := f.ReadPages([]int{0, 2}, make([]byte, 2*ps)); !errors.Is(err, ssd.ErrInjected) {
		t.Fatalf("partial-hit batch error = %v, want ErrInjected", err)
	}
	if _, _, err := f.WarmPages([]int{3, 4}, false); !errors.Is(err, ssd.ErrInjected) {
		t.Fatalf("WarmPages error = %v, want ErrInjected", err)
	}
}

// TestWarmPagesChargesAndPins covers the prefetch entry point directly:
// warmed pages are charged once, served for free afterwards, and skipped
// when already resident or out of range.
func TestWarmPagesChargesAndPins(t *testing.T) {
	dev, c := newCachedDev(t, 16)
	f := fillFile(t, dev, "data", 8)
	dev.ResetStats()

	warmed, pinnedPages, err := f.WarmPages([]int{1, 2, 99, -1, 3}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(warmed) != 3 {
		t.Fatalf("warmed %v, want the 3 valid pages", warmed)
	}
	if got := dev.Stats().PagesRead; got != 3 {
		t.Fatalf("warm charged %d pages, want 3", got)
	}

	// Re-warming resident pages is free and returns nothing.
	again, _, err := f.WarmPages([]int{1, 2, 3}, false)
	if err != nil || len(again) != 0 {
		t.Fatalf("re-warm = %v, %v; want empty, nil", again, err)
	}
	if got := dev.Stats().PagesRead; got != 3 {
		t.Fatalf("re-warm charged the device (total %d pages)", got)
	}

	before := dev.Stats()
	if err := f.ReadPages([]int{1, 2, 3}, make([]byte, 3*ps)); err != nil {
		t.Fatal(err)
	}
	if d := dev.Stats().Sub(before); d.PagesRead != 0 {
		t.Fatal("reading warmed pages hit the device")
	}
	if st := c.Stats(); st.PrefetchHits != 3 {
		t.Fatalf("PrefetchHits = %d, want 3", st.PrefetchHits)
	}
	f.UnpinPages(pinnedPages)
}

// TestUncachedPathsUnchanged guards the baseline: with no cache attached
// the device charges every page on every read, as the paper's model does.
func TestUncachedPathsUnchanged(t *testing.T) {
	dev := ssd.MustOpen(ssd.Config{PageSize: ps, Channels: 4})
	f := fillFile(t, dev, "data", 4)
	dev.ResetStats()
	buf := make([]byte, ps)
	for i := 0; i < 3; i++ {
		if err := f.ReadPage(2, buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := dev.Stats().PagesRead; got != 3 {
		t.Fatalf("uncached repeat reads charged %d pages, want 3", got)
	}
	if warmed, _, err := f.WarmPages([]int{0, 1}, true); err != nil || warmed != nil {
		t.Fatalf("WarmPages without cache = %v, %v; want nil, nil", warmed, err)
	}
}
