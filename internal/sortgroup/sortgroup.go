// Package sortgroup implements the sort-and-group unit of §V-B: it loads
// the update log of a vertex interval from the device, fuses the logs of
// consecutive intervals while they fit the sort budget (§V-A2), groups the
// records in memory by destination vertex with a stable counting sort over
// the batch's contiguous vertex range, and serves per-vertex message
// groups to the engine. The sort is stable, so each vertex receives its
// messages in log order — the order they were sent in.
//
// The paper sizes intervals so one interval's worst-case log fits the sort
// budget, but at runtime a log can exceed that build-time bound (random
// walk sends multiple walkers per edge; structural updates grow in-degrees
// after intervals are fixed). Rather than over-allocating, an oversized
// interval falls back to a chunked external sort-group built on
// internal/extsort's k-way merge: the log is cut into budget-sized sorted
// runs on the device and served back as destination-aligned chunks, each
// within the budget. Results are identical to the in-memory path — every
// record is delivered to its destination exactly once, and in the same
// per-vertex order.
package sortgroup

import (
	"fmt"

	"multilogvc/internal/csr"
	"multilogvc/internal/extsort"
	"multilogvc/internal/mlog"
	"multilogvc/internal/obsv"
	"multilogvc/internal/ssd"
)

// Rec is one update record read back from a log.
type Rec = extsort.Record

// Batch is the sorted, grouped update set of one or more fused intervals.
// A spilled batch (Spilled true) serves one budget-sized chunk at a time:
// Recs holds the current chunk, NextChunk advances, and Close releases the
// on-device run files.
type Batch struct {
	// FirstIv and LastIv delimit the fused interval range [FirstIv, LastIv].
	FirstIv, LastIv int
	// Lo and Hi delimit the vertex range [Lo, Hi) covered by the current
	// chunk (the whole fused range for in-memory batches).
	Lo, Hi uint32
	// Recs are the updates sorted by destination, in log order within a
	// destination — the current chunk of a spilled batch, or everything
	// for an in-memory one.
	Recs []Rec
	// Spilled reports that the interval's log exceeded the sort budget and
	// is being served through the external sort-group.
	Spilled bool

	spill *spillState
}

// spillState is the external-sort cursor of a spilled batch.
type spillState struct {
	runs       *extsort.Runs
	m          *extsort.Merger
	tag        ssd.Tagger // for tagging merge reads as StageSpill
	budgetRecs int
	next       extsort.Record // lookahead across the chunk boundary
	have       bool
	ivHi       uint32 // owning interval's Hi: the last chunk extends to it
	nextLo     uint32 // vertex range low bound of the next chunk
	bytes      int64  // run bytes written to the device
}

// Options tunes Load.
type Options struct {
	// SortBudget bounds the in-memory record volume in bytes: logs fuse
	// while they fit under it, and a single interval's log exceeding it is
	// spilled through the external sort-group. <= 0 means unbounded (fuse
	// everything, never spill).
	SortBudget int64
	// NoFuse disables fusing of non-empty logs (the §V-A2 ablation)
	// without shrinking the budget — an oversized interval still spills
	// rather than over-allocating. Consecutive empty logs still fuse:
	// they carry no sort work, and batch boundaries between them would
	// only change async forward-delivery cutoffs, not save memory.
	NoFuse bool
}

// Scratch is the reusable memory of the in-memory sort-group: the
// unsorted records read back from the logs, and the counting sort's
// counts and sorted output. An engine run owns one, passes it to every
// Load and drops it when the run ends. It holds about one batch of
// records (at most the sort budget) three times over. Kept for the run,
// together with the message logs' recycled pages and read buffers, it
// raised the repository benchmark's heap_live_p90_mib by 2.7% on
// pr-dense and 3.6% on serve-mixed (medians of 10 runs on a 2-vCPU VM;
// see EXPERIMENTS.md), while pr-dense allocation fell from 698 to
// 164 MiB per run.
type Scratch struct {
	recs []Rec
	sort extsort.SortScratch
}

// Load loads the log of interval startIv and keeps fusing the following
// intervals' logs while the estimated total record volume stays within the
// sort budget (always at least one interval). Records are stably sorted by
// destination with extsort.SortByDst over the batch's vertex range; a
// record outside that range fails the load with extsort.ErrOutOfRange.
// The per-interval record counters provide the first-order size estimate,
// as in the paper. When startIv's log alone exceeds the budget, the batch
// is served through the spill path (see Batch). An in-memory batch reads
// and sorts into sc, so its Recs are valid until the next Load with sc.
func Load(log *mlog.Log, ivs []csr.Interval, startIv int, opts Options, sc *Scratch) (*Batch, error) {
	budget := opts.SortBudget
	total := int64(log.Count(startIv)) * mlog.RecordBytes
	if budget > 0 && total > budget {
		return loadSpilled(log, ivs[startIv], startIv, budget)
	}
	last := startIv
	for last+1 < len(ivs) {
		next := int64(log.Count(last+1)) * mlog.RecordBytes
		if opts.NoFuse {
			if total+next > 0 {
				break // only empty logs fuse under the ablation
			}
		} else if budget > 0 && total+next > budget {
			break
		}
		total += next
		last++
	}

	b := &Batch{
		FirstIv: startIv,
		LastIv:  last,
		Lo:      ivs[startIv].Lo,
		Hi:      ivs[last].Hi,
	}
	recs := sc.recs[:0]
	tag := log.Tagger()
	for iv := startIv; iv <= last; iv++ {
		// Tag per fused interval so interval-level IO skew attributes log
		// read-back to the interval that produced it.
		prevS, prevIv := tag.SetStage(obsv.StageSortGroup, iv)
		err := log.Read(iv, func(dst, src, data uint32) {
			recs = append(recs, Rec{Dst: dst, Src: src, Data: data})
		})
		tag.SetStage(prevS, prevIv)
		if err != nil {
			return nil, err
		}
	}
	sc.recs = recs
	sorted, err := extsort.SortByDst(recs, b.Lo, b.Hi, &sc.sort)
	if err != nil {
		return nil, fmt.Errorf("sortgroup: intervals %d-%d: %w", startIv, last, err)
	}
	b.Recs = sorted
	return b, nil
}

// loadSpilled externally sorts interval ivIdx's oversized log into
// budget-sized runs and primes the first chunk. No records are combined
// here — the engine applies the program's combiner exactly as on the
// in-memory path, so results are identical.
func loadSpilled(log *mlog.Log, iv csr.Interval, ivIdx int, budget int64) (*Batch, error) {
	budgetRecs := int(budget / mlog.RecordBytes)
	if budgetRecs < 1 {
		budgetRecs = 1
	}
	tag := log.Tagger()
	runs := extsort.NewRuns(log.Device(), fmt.Sprintf("%s.%d.spill", log.Prefix(), ivIdx), iv.Lo, iv.Hi, nil)
	runs.SetScope(log.Scope())
	buf := make([]extsort.Record, 0, budgetRecs)
	var flushErr error
	// Log read-back is sort+group work on this interval; the run-file
	// writes it triggers are spill traffic. The tag flips around each
	// flush so the two phases stay separable in the per-stage breakdown.
	prevS, prevIv := tag.SetStage(obsv.StageSortGroup, ivIdx)
	err := log.Read(ivIdx, func(dst, src, data uint32) {
		if flushErr != nil {
			return
		}
		buf = append(buf, extsort.Record{Dst: dst, Src: src, Data: data})
		if len(buf) >= budgetRecs {
			tag.SetStage(obsv.StageSpill, ivIdx)
			flushErr = runs.Flush(buf)
			tag.SetStage(obsv.StageSortGroup, ivIdx)
			buf = buf[:0]
		}
	})
	if err != nil {
		tag.SetStage(prevS, prevIv)
		runs.Remove()
		return nil, err
	}
	tag.SetStage(obsv.StageSpill, ivIdx)
	if flushErr == nil {
		flushErr = runs.Flush(buf)
	}
	tag.SetStage(prevS, prevIv)
	if flushErr != nil {
		runs.Remove()
		return nil, flushErr
	}

	b := &Batch{
		FirstIv: ivIdx, LastIv: ivIdx,
		Lo: iv.Lo, Hi: iv.Hi,
		Spilled: true,
		spill: &spillState{
			runs: runs, tag: tag, budgetRecs: budgetRecs,
			ivHi: iv.Hi, nextLo: iv.Lo,
			bytes: runs.BytesWritten(),
		},
	}
	prevS, prevIv = tag.SetStage(obsv.StageSpill, ivIdx)
	b.spill.m = runs.Merge()
	r, ok, err := b.spill.m.Next()
	tag.SetStage(prevS, prevIv)
	if err != nil {
		b.Close()
		return nil, err
	}
	b.spill.next, b.spill.have = r, ok
	if err := b.fillChunk(); err != nil {
		b.Close()
		return nil, err
	}
	return b, nil
}

// fillChunk replaces Recs with the next destination-aligned chunk. Chunks
// grow to the record budget and then extend to the current destination's
// last record, so no vertex's messages straddle two chunks (one very hot
// destination may exceed the budget — correctness over strictness). The
// chunk's [Lo, Hi) partitions the interval: the engine processes each
// carry-only vertex exactly once, in the chunk covering its ID.
func (b *Batch) fillChunk() error {
	s := b.spill
	// Merge reads pull run pages back from the device: spill traffic,
	// attributed to the owning interval.
	prevS, prevIv := s.tag.SetStage(obsv.StageSpill, b.FirstIv)
	defer s.tag.SetStage(prevS, prevIv)
	b.Recs = b.Recs[:0]
	b.Lo = s.nextLo
	b.Hi = s.ivHi
	if !s.have {
		return nil
	}
	for {
		b.Recs = append(b.Recs, s.next)
		r, ok, err := s.m.Next()
		if err != nil {
			return err
		}
		if !ok {
			s.have = false
			return nil
		}
		prev := s.next
		s.next = r
		if len(b.Recs) >= s.budgetRecs && r.Dst != prev.Dst {
			b.Hi = prev.Dst + 1
			s.nextLo = prev.Dst + 1
			return nil
		}
	}
}

// NextChunk advances a spilled batch to its next chunk, reporting whether
// one was produced. In-memory batches (and exhausted spills) return false.
func (b *Batch) NextChunk() (bool, error) {
	if b.spill == nil || !b.spill.have {
		return false, nil
	}
	if err := b.fillChunk(); err != nil {
		return false, err
	}
	return true, nil
}

// SpillBytes returns the record bytes externally sorted through the device
// for this batch (0 for in-memory batches).
func (b *Batch) SpillBytes() int64 {
	if b.spill == nil {
		return 0
	}
	return b.spill.bytes
}

// Close releases a spilled batch's merge cursor and deletes its on-device
// run files. A no-op for in-memory batches; safe to call more than once.
func (b *Batch) Close() {
	if b.spill != nil {
		b.spill.m.Close()
		b.spill = nil
	}
}
