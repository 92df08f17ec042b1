package pagecache

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"multilogvc/internal/ssd"
)

const testPage = 64

func page(b byte) []byte {
	p := make([]byte, testPage)
	for i := range p {
		p[i] = b
	}
	return p
}

// single-shard cache for deterministic eviction order.
func newTest(capacity int) *Cache { return NewSharded(capacity, testPage, 1) }

func mustGet(t *testing.T, c *Cache, fid uint32, pg int, want byte) {
	t.Helper()
	dst := make([]byte, testPage)
	if !c.Get(fid, pg, dst) {
		t.Fatalf("page (%d,%d) not resident", fid, pg)
	}
	if !bytes.Equal(dst, page(want)) {
		t.Fatalf("page (%d,%d): got %d, want %d", fid, pg, dst[0], want)
	}
}

// TestClockEvictionOrder drives CLOCK second-chance through scripted
// access sequences and checks exactly which pages survive.
func TestClockEvictionOrder(t *testing.T) {
	type op struct {
		kind string // put, get, pin, unpin
		page int
	}
	cases := []struct {
		name     string
		capacity int
		ops      []op
		resident []int
		gone     []int
	}{
		{
			name:     "fifo when nothing is touched",
			capacity: 3,
			// All frames enter hot; the hand clears ref bits in insertion
			// order, so with no touches the oldest page goes first.
			ops:      []op{{"put", 0}, {"put", 1}, {"put", 2}, {"put", 3}},
			resident: []int{1, 2, 3},
			gone:     []int{0},
		},
		{
			name:     "second chance protects a touched page",
			capacity: 3,
			// put 3 sweeps all reference bits clear (evicting page 0).
			// Touching page 1 re-arms its bit, so the next eviction skips
			// it and takes page 2 — the younger but colder page.
			ops: []op{{"put", 0}, {"put", 1}, {"put", 2}, {"put", 3},
				{"get", 1}, {"put", 4}},
			resident: []int{1, 3, 4},
			gone:     []int{0, 2},
		},
		{
			name:     "reference bit grants one lap, not immunity",
			capacity: 2,
			// get 0 sets a bit that was already set; the sweep for put 2
			// clears both bits and still evicts page 0 on the wrap.
			ops:      []op{{"put", 0}, {"put", 1}, {"get", 0}, {"put", 2}, {"put", 3}},
			resident: []int{2, 3},
			gone:     []int{0, 1},
		},
		{
			name:     "pin prevents eviction",
			capacity: 2,
			// Page 0 is pinned; every eviction must take the other frame.
			ops:      []op{{"put", 0}, {"pin", 0}, {"put", 1}, {"put", 2}, {"put", 3}},
			resident: []int{0, 3},
			gone:     []int{1, 2},
		},
		{
			name:     "unpin makes the page evictable again",
			capacity: 2,
			ops: []op{{"put", 0}, {"pin", 0}, {"put", 1}, {"put", 2},
				{"unpin", 0}, {"put", 3}, {"put", 4}},
			resident: []int{3, 4},
			gone:     []int{0, 1, 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newTest(tc.capacity)
			for _, o := range tc.ops {
				switch o.kind {
				case "put":
					if !c.Put(1, o.page, page(byte(o.page)), false) {
						t.Fatalf("demand put of page %d refused", o.page)
					}
				case "get":
					mustGet(t, c, 1, o.page, byte(o.page))
				case "pin":
					if !c.Pin(1, o.page) {
						t.Fatalf("pin of page %d failed", o.page)
					}
				case "unpin":
					c.Unpin(1, o.page)
				}
			}
			for _, pg := range tc.resident {
				if !c.Contains(1, pg) {
					t.Errorf("page %d should be resident", pg)
				}
			}
			for _, pg := range tc.gone {
				if c.Contains(1, pg) {
					t.Errorf("page %d should have been evicted", pg)
				}
			}
		})
	}
}

// TestAllPinnedDemandPutFails checks the sweep guard: when every frame is
// pinned even a demand insert is refused rather than looping forever.
func TestAllPinnedDemandPutFails(t *testing.T) {
	c := newTest(2)
	c.Put(1, 0, page(0), false)
	c.Put(1, 1, page(1), false)
	c.Pin(1, 0)
	c.Pin(1, 1)
	if c.Put(1, 2, page(2), false) {
		t.Fatal("demand put succeeded with every frame pinned")
	}
	if got := c.Stats().PinSkips; got == 0 {
		t.Fatal("expected pin skips to be counted")
	}
	c.Unpin(1, 0)
	if !c.Put(1, 2, page(2), false) {
		t.Fatal("demand put still refused after unpin")
	}
}

// TestPrefetchBackpressure checks that prefetch inserts never evict hot or
// pinned pages: they only claim cold unpinned frames, else are dropped.
func TestPrefetchBackpressure(t *testing.T) {
	c := newTest(2)
	c.Put(1, 0, page(0), false) // hot (demand inserts enter referenced)
	c.Put(1, 1, page(1), false) // hot
	if c.Put(1, 2, page(2), true) {
		t.Fatal("prefetch evicted a hot page")
	}
	if got := c.Stats().PrefetchDropped; got != 1 {
		t.Fatalf("PrefetchDropped = %d, want 1", got)
	}
	if !c.Contains(1, 0) || !c.Contains(1, 1) {
		t.Fatal("hot pages were disturbed by refused prefetch")
	}

	// A demand eviction pass cools the survivors; now prefetch can land.
	c.Put(1, 3, page(3), false) // evicts page 0, cools page 1
	if !c.Put(1, 4, page(4), true) {
		t.Fatal("prefetch refused a cold unpinned frame")
	}
	if c.Contains(1, 3) == c.Contains(1, 1) {
		t.Fatal("exactly one of the two cold pages should have been replaced")
	}

	// Prefetched pages themselves are cold: a second prefetch may replace
	// the first, but never a pinned one.
	c.Pin(1, 4)
	if c.Put(1, 5, page(5), true) && !c.Contains(1, 4) {
		t.Fatal("prefetch evicted a pinned page")
	}
}

// TestPrefetchAccuracy checks the prefetched→demand-hit accounting.
func TestPrefetchAccuracy(t *testing.T) {
	c := newTest(8)
	for pg := 0; pg < 4; pg++ {
		if !c.Put(1, pg, page(byte(pg)), true) {
			t.Fatalf("prefetch put %d refused on empty cache", pg)
		}
	}
	mustGet(t, c, 1, 0, 0)
	mustGet(t, c, 1, 0, 0) // second hit must not double-count
	mustGet(t, c, 1, 2, 2)
	st := c.Stats()
	if st.PrefetchInserts != 4 || st.PrefetchHits != 2 {
		t.Fatalf("inserts/hits = %d/%d, want 4/2", st.PrefetchInserts, st.PrefetchHits)
	}
	if acc := st.PrefetchAccuracy(); acc != 0.5 {
		t.Fatalf("PrefetchAccuracy = %v, want 0.5", acc)
	}
}

// TestWriteCoherence checks that Write updates resident copies in place
// and leaves non-resident pages alone.
func TestWriteCoherence(t *testing.T) {
	c := newTest(4)
	c.Put(1, 0, page(1), false)
	c.Write(1, 0, page(9))
	mustGet(t, c, 1, 0, 9)
	c.Write(1, 7, page(5)) // not resident: must not populate
	if c.Contains(1, 7) {
		t.Fatal("Write populated a non-resident page")
	}
	st := c.Stats()
	if st.Writes != 1 {
		t.Fatalf("Writes = %d, want 1", st.Writes)
	}
}

// TestInvalidateFile checks per-file invalidation across files and pins.
func TestInvalidateFile(t *testing.T) {
	c := newTest(8)
	for pg := 0; pg < 3; pg++ {
		c.Put(1, pg, page(byte(pg)), false)
		c.Put(2, pg, page(byte(pg+10)), false)
	}
	c.Pin(1, 0) // invalidation must clear pins too
	c.InvalidateFile(1)
	for pg := 0; pg < 3; pg++ {
		if c.Contains(1, pg) {
			t.Fatalf("file 1 page %d survived invalidation", pg)
		}
		mustGet(t, c, 2, pg, byte(pg+10))
	}
	if got := c.Stats().Invalidations; got != 3 {
		t.Fatalf("Invalidations = %d, want 3", got)
	}
	// Freed frames are reusable without eviction.
	if !c.Put(1, 5, page(5), true) {
		t.Fatal("prefetch put refused after invalidation freed frames")
	}
}

// TestStatsSub checks delta arithmetic used for per-superstep reporting.
func TestStatsSub(t *testing.T) {
	c := newTest(4)
	c.Put(1, 0, page(0), false)
	before := c.Stats()
	c.Get(1, 0, nil)
	c.Get(1, 1, nil)
	d := c.Stats().Sub(before)
	if d.Hits != 1 || d.Misses != 1 {
		t.Fatalf("delta hits/misses = %d/%d, want 1/1", d.Hits, d.Misses)
	}
	if hr := d.HitRate(); hr != 0.5 {
		t.Fatalf("delta HitRate = %v, want 0.5", hr)
	}
}

// TestFromMB checks the CLI knob sizing and the disabled case.
func TestFromMB(t *testing.T) {
	if FromMB(0, testPage) != nil || FromMB(-3, testPage) != nil {
		t.Fatal("FromMB must return nil for mb <= 0")
	}
	c := FromMB(1, 16384)
	if got := c.CapacityPages(); got != 64 {
		t.Fatalf("1MB of 16K pages = %d frames, want 64", got)
	}
}

// TestConcurrentAccess hammers one cache from many goroutines; run with
// -race. Correctness bar: no races, no lost frames, data read back intact.
func TestConcurrentAccess(t *testing.T) {
	c := New(64, testPage)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]byte, testPage)
			for i := 0; i < 2000; i++ {
				pg := (w*7 + i) % 128
				fid := uint32(1 + i%3)
				switch i % 5 {
				case 0:
					c.Put(fid, pg, page(byte(pg)), i%2 == 0)
				case 1:
					if c.Get(fid, pg, dst) && dst[0] != byte(pg) {
						t.Errorf("torn read: page %d got %d", pg, dst[0])
						return
					}
				case 2:
					if c.Pin(fid, pg) {
						c.Unpin(fid, pg)
					}
				case 3:
					c.Write(fid, pg, page(byte(pg)))
				case 4:
					c.Invalidate(fid, pg)
				}
			}
		}(w)
	}
	wg.Wait()
	if r := c.Resident(); r > c.CapacityPages() {
		t.Fatalf("resident %d exceeds capacity %d", r, c.CapacityPages())
	}
}

// --- Prefetcher tests (need a real device behind the cache) ---

func newDevCache(t *testing.T, capacityPages int) (*ssd.Device, *Cache, *ssd.File) {
	t.Helper()
	dev := ssd.MustOpen(ssd.Config{PageSize: testPage, Channels: 4})
	c := NewSharded(capacityPages, testPage, 1)
	dev.AttachCache(c)
	f, err := dev.Create("data")
	if err != nil {
		t.Fatal(err)
	}
	pages := make([][]byte, 32)
	for pg := range pages {
		pages[pg] = page(byte(pg))
	}
	if err := f.AppendPages(pages); err != nil {
		t.Fatal(err)
	}
	return dev, c, f
}

// TestPrefetcherWarmsAndPins checks the full warm→hit→release cycle: a
// prefetched page is served without device traffic and stays pinned until
// its epoch is released.
func TestPrefetcherWarmsAndPins(t *testing.T) {
	dev, c, f := newDevCache(t, 4)
	p := NewPrefetcher(8)
	defer p.Close()

	ep := p.BeginEpoch()
	p.Submit(ep, Job{File: f, Pages: []int{3, 4, 5}, Pin: true})
	p.WaitIdle()
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().PagesWarmed; got != 3 {
		t.Fatalf("PagesWarmed = %d, want 3", got)
	}

	before := dev.Stats()
	dst := make([]byte, 3*testPage)
	if err := f.ReadPages([]int{3, 4, 5}, dst); err != nil {
		t.Fatal(err)
	}
	if d := dev.Stats().Sub(before); d.PagesRead != 0 {
		t.Fatalf("prefetched read still hit the device: %d pages", d.PagesRead)
	}
	if dst[0] != 3 || dst[testPage] != 4 || dst[2*testPage] != 5 {
		t.Fatal("prefetched pages returned wrong data")
	}
	st := c.Stats()
	if st.PrefetchHits != 3 {
		t.Fatalf("PrefetchHits = %d, want 3", st.PrefetchHits)
	}

	// While the epoch is live the pinned pages must survive cache pressure.
	for pg := 10; pg < 20; pg++ {
		c.Put(f.ID(), pg, page(byte(pg)), false)
	}
	for _, pg := range []int{3, 4, 5} {
		if !c.Contains(f.ID(), pg) {
			t.Fatalf("pinned page %d evicted while epoch live", pg)
		}
	}
	p.ReleaseEpoch(ep)
	for pg := 20; pg < 30; pg++ {
		c.Put(f.ID(), pg, page(byte(pg)), false)
	}
	if c.Contains(f.ID(), 3) && c.Contains(f.ID(), 4) && c.Contains(f.ID(), 5) {
		t.Fatal("released pages survived heavy pressure — pins leaked")
	}
}

// TestPrefetcherExpand checks two-stage jobs: the follow-up pages computed
// by Expand are warmed under the same epoch.
func TestPrefetcherExpand(t *testing.T) {
	_, c, f := newDevCache(t, 8)
	p := NewPrefetcher(8)
	defer p.Close()

	ep := p.BeginEpoch()
	p.Submit(ep, Job{
		File:  f,
		Pages: []int{0},
		Expand: func() ([]Job, error) {
			return []Job{{File: f, Pages: []int{6, 7}}}, nil
		},
	})
	p.WaitIdle()
	for _, pg := range []int{0, 6, 7} {
		if !c.Contains(f.ID(), pg) {
			t.Fatalf("page %d not warmed", pg)
		}
	}
	if got := p.Stats().Jobs; got != 2 {
		t.Fatalf("Jobs = %d, want 2 (parent + expansion)", got)
	}
}

// TestPrefetcherCancel checks that a generation bump skips queued jobs.
func TestPrefetcherCancel(t *testing.T) {
	_, c, f := newDevCache(t, 8)
	p := NewPrefetcher(8)
	defer p.Close()

	// Block the worker with a job whose Expand waits, then queue work and
	// cancel it before the worker can get there.
	started := make(chan struct{})
	release := make(chan struct{})
	ep := p.BeginEpoch()
	p.Submit(ep, Job{Expand: func() ([]Job, error) {
		close(started)
		<-release
		return nil, nil
	}})
	<-started // ensure the blocking job is being processed, not queued
	p.Submit(ep, Job{File: f, Pages: []int{1, 2}})
	p.CancelPending()
	close(release)
	p.WaitIdle()
	if c.Contains(f.ID(), 1) || c.Contains(f.ID(), 2) {
		t.Fatal("cancelled job still warmed pages")
	}
	if got := p.Stats().Skipped; got != 1 {
		t.Fatalf("Skipped = %d, want 1", got)
	}
}

// TestPrefetcherQueueFull checks that Submit never blocks: overflow jobs
// are dropped and counted.
func TestPrefetcherQueueFull(t *testing.T) {
	_, _, f := newDevCache(t, 8)
	p := NewPrefetcher(1)
	defer p.Close()

	release := make(chan struct{})
	ep := p.BeginEpoch()
	p.Submit(ep, Job{Expand: func() ([]Job, error) { <-release; return nil, nil }})
	for i := 0; i < 10; i++ {
		p.Submit(ep, Job{File: f, Pages: []int{i % 8}})
	}
	close(release)
	p.WaitIdle()
	st := p.Stats()
	if st.Dropped == 0 {
		t.Fatal("expected overflow jobs to be dropped")
	}
	if st.Submitted+st.Dropped != 11 {
		t.Fatalf("submitted %d + dropped %d != 11", st.Submitted, st.Dropped)
	}
}

// TestPrefetcherDeviceError checks that injected device failures during
// background prefetch are recorded, not panicked, and the prefetcher keeps
// serving later jobs.
func TestPrefetcherDeviceError(t *testing.T) {
	dev, _, f := newDevCache(t, 8)
	p := NewPrefetcher(8)
	defer p.Close()

	dev.FailAfter(0, nil)
	ep := p.BeginEpoch()
	p.Submit(ep, Job{File: f, Pages: []int{1, 2, 3}, Pin: true})
	p.WaitIdle()
	if err := p.Err(); !errors.Is(err, ssd.ErrInjected) {
		t.Fatalf("Err = %v, want ErrInjected", err)
	}
	if got := p.Stats().Errors; got != 1 {
		t.Fatalf("Errors = %d, want 1", got)
	}

	dev.FailAfter(-1, nil)
	p.Submit(ep, Job{File: f, Pages: []int{4}})
	p.WaitIdle()
	if got := p.Stats().PagesWarmed; got != 1 {
		t.Fatalf("prefetcher did not recover after fault cleared: warmed %d", got)
	}
	p.ReleaseEpoch(ep)
}

// TestPrefetcherLateEpochRelease checks the race where the consuming batch
// releases its epoch before the prefetch lands: late pins must be undone
// immediately so nothing stays pinned forever.
func TestPrefetcherLateEpochRelease(t *testing.T) {
	_, c, f := newDevCache(t, 2)
	p := NewPrefetcher(8)
	defer p.Close()

	gate := make(chan struct{})
	ep := p.BeginEpoch()
	p.Submit(ep, Job{
		Expand: func() ([]Job, error) {
			<-gate // hold the worker until after the release
			return []Job{{File: f, Pages: []int{1}, Pin: true}}, nil
		},
	})
	p.ReleaseEpoch(ep)
	close(gate)
	p.WaitIdle()

	// The page may be resident, but it must not be pinned: two demand
	// inserts must be able to claim both frames.
	c.Put(f.ID(), 10, page(10), false)
	c.Put(f.ID(), 11, page(11), false)
	if !c.Contains(f.ID(), 10) || !c.Contains(f.ID(), 11) {
		t.Fatal("late pin was never released")
	}
}

// TestShardDistribution sanity-checks that multi-shard capacity is fully
// usable: N distinct pages fit into an N-frame sharded cache within a
// small slack (hash skew can overflow individual shards).
func TestShardDistribution(t *testing.T) {
	const frames = 64
	c := NewSharded(frames, testPage, DefaultShards)
	for pg := 0; pg < frames; pg++ {
		c.Put(7, pg, page(byte(pg)), false)
	}
	if r := c.Resident(); r < frames*3/4 {
		t.Fatalf("only %d of %d frames used — shard hash badly skewed", r, frames)
	}
}

func BenchmarkPageCache(b *testing.B) {
	for _, hitPct := range []int{50, 90, 100} {
		b.Run(fmt.Sprintf("hit%d", hitPct), func(b *testing.B) {
			const pages = 256
			c := New(pages, 4096)
			data := make([]byte, 4096)
			for pg := 0; pg < pages; pg++ {
				c.Put(1, pg, data, false)
			}
			dst := make([]byte, 4096)
			b.SetBytes(4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				span := pages * 100 / hitPct
				pg := i % span
				if !c.Get(1, pg, dst) {
					c.Put(1, pg, data, false)
				}
			}
		})
	}
}
