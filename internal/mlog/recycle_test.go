package mlog

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"multilogvc/internal/ssd"
)

// genUpdates returns n staged updates over the given intervals, with
// payloads derived from seed, split into two worker buffers.
func genUpdates(n, intervals int, seed uint32) [][]Update {
	ups := make([]Update, n)
	for i := range ups {
		x := uint32(i)*2654435761 + seed
		ups[i] = Update{Dst: x % 1000, Src: x >> 8, Data: x ^ seed, Iv: int32(x % uint32(intervals))}
	}
	return [][]Update{ups[:n/3], ups[n/3:]}
}

// A generation replayed onto recycled page buffers — pages full of an
// earlier generation's records — stores exactly the bytes and checksums
// a log on fresh buffers stores: flushed partial pages clear the slots
// the old records left.
func TestRecycledGenerationByteIdentical(t *testing.T) {
	// A small budget evicts mid-replay; a large one holds the earlier
	// generation's pages until the flush, so the later generation runs
	// on recycled pages only.
	for _, c := range []struct {
		disk   bool
		budget int64
	}{{false, 2 * 120}, {false, 1 << 20}, {true, 1 << 20}} {
		disk := c.disk
		open := func() (*ssd.Device, string) {
			cfg := ssd.Config{PageSize: 120, Channels: 4} // 9 records, 8-byte tail
			if disk {
				cfg.Dir = t.TempDir()
			}
			return ssd.MustOpen(cfg), cfg.Dir
		}
		want := genUpdates(400, 3, 1)

		freshDev, freshDir := open()
		fresh, err := New(freshDev, "log", 3, c.budget)
		if err != nil {
			t.Fatal(err)
		}
		if err := Replay(fresh, nil, math.MaxInt32, want...); err != nil {
			t.Fatal(err)
		}
		if err := fresh.FlushAll(); err != nil {
			t.Fatal(err)
		}

		recDev, recDir := open()
		rec, err := New(recDev, "log", 3, c.budget)
		if err != nil {
			t.Fatal(err)
		}
		// The earlier generation fills whole pages only (9 records each),
		// so every recycled page carries old records in every slot.
		var old []Update
		for i := uint32(0); i < 3*9*20; i++ {
			old = append(old, Update{Dst: ^i, Src: ^i, Data: ^i, Iv: int32(i % 3)})
		}
		if err := Replay(rec, nil, math.MaxInt32, old); err != nil {
			t.Fatal(err)
		}
		if err := rec.FlushAll(); err != nil {
			t.Fatal(err)
		}
		if err := rec.ResetAll(); err != nil {
			t.Fatal(err)
		}
		if len(rec.free) == 0 {
			t.Fatal("no page buffers were recycled")
		}
		if err := Replay(rec, nil, math.MaxInt32, want...); err != nil {
			t.Fatal(err)
		}
		if err := rec.FlushAll(); err != nil {
			t.Fatal(err)
		}

		for iv := 0; iv < 3; iv++ {
			ff, fp := fresh.FilePages(iv)
			rf, rp := rec.FilePages(iv)
			if len(fp) == 0 || len(fp) != len(rp) {
				t.Fatalf("%+v interval %d: %d pages fresh, %d recycled", c, iv, len(fp), len(rp))
			}
			fb, rb := make([]byte, len(fp)*120), make([]byte, len(rp)*120)
			if err := ff.ReadPages(fp, fb); err != nil {
				t.Fatal(err)
			}
			if err := rf.ReadPages(rp, rb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fb, rb) {
				t.Fatalf("%+v interval %d: recycled pages differ from fresh ones", c, iv)
			}
			if disk {
				// The checksum sidecars hold the recorded CRC32C per page.
				name := ff.Name() + ".mlvc-crc"
				fc, err := os.ReadFile(filepath.Join(freshDir, name))
				if err != nil {
					t.Fatal(err)
				}
				rc, err := os.ReadFile(filepath.Join(recDir, name))
				if err != nil {
					t.Fatal(err)
				}
				if len(fc) == 0 || !bytes.Equal(fc, rc) {
					t.Fatalf("interval %d: recycled checksums differ from fresh ones", iv)
				}
			}
		}
		// Every recorded checksum matches its page on both devices.
		for _, dev := range []*ssd.Device{freshDev, recDev} {
			res, err := dev.Scrub()
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res {
				if !r.OK() {
					t.Fatalf("%+v: scrub found corrupt pages %v in %s", c, r.Corrupt, r.File)
				}
			}
		}
	}
}

// Once a generation has warmed the free list, the read buffer and the
// device pages, a whole further generation — replay with evictions, the
// boundary flush, read-back and reset — allocates nothing.
func TestReplaySteadyStateAllocs(t *testing.T) {
	l, _ := testLog(t, 4, 4*120) // a small budget: evictions fire mid-replay
	staged := genUpdates(600, 4, 7)
	var sum uint32
	read := func(dst, src, data uint32) { sum += dst ^ data }
	generation := func() {
		if err := Replay(l, nil, math.MaxInt32, staged...); err != nil {
			t.Fatal(err)
		}
		if err := l.FlushAll(); err != nil {
			t.Fatal(err)
		}
		for iv := 0; iv < 4; iv++ {
			if err := l.Read(iv, read); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.ResetAll(); err != nil {
			t.Fatal(err)
		}
	}
	generation()
	if allocs := testing.AllocsPerRun(5, generation); allocs != 0 {
		t.Fatalf("a steady-state generation allocates %.1f times, want 0", allocs)
	}
}
