// Package mlog implements the multi-log update unit of §V-A: one message
// log per destination vertex interval, with page-sized in-memory top
// buffers and batched eviction to the device.
//
// Every update sent between vertices is appended as a 12-byte
// <dst, src, data> record to the log of the destination's interval. Because
// each interval's worst-case incoming volume was bounded at partition time,
// the whole log of one interval fits the engine's sort budget in the next
// superstep — the property that lets MultiLogVC sort in memory and avoid
// GraFBoost's external sort.
//
// A log has a single writer. Vertex workers never append directly: each
// stages its sends as Updates in its own buffer, and the engine goroutine
// replays the buffers in worker order (Replay) once per processing round,
// bounded by the log's buffer budget. Workers own contiguous, ascending
// vertex chunks, so the replay appends in global sender order and every
// log — its record order, its page boundaries and the points at which
// full pages are evicted — is a function of the input alone, identical
// at any worker count or GOMAXPROCS.
//
// The engine owns two Logs (current and next generation) and swaps them at
// superstep boundaries, mirroring the double-buffered message flow of BSP.
package mlog

import (
	"encoding/binary"
	"fmt"
	"sync"

	"multilogvc/internal/obsv"
	"multilogvc/internal/ssd"
)

// RecordBytes is the on-device size of one logged update.
const RecordBytes = 12

// pageHeader is the per-page record-count prefix. It lets a log be read
// back even when partially filled pages were flushed mid-superstep, which
// the asynchronous computation model (§V-F) needs.
const pageHeader = 4

// Update is one staged send: the record <Dst, Src, Data> bound for
// interval Iv's log.
type Update struct {
	Dst, Src, Data uint32
	Iv             int32
}

// Log is one generation of the multi-log: one append-only log file per
// vertex interval. One mutex guards its state. The writer takes it once
// per Replay (dropping it around evictions, which write to the device);
// the other users are the device's space-reclamation hook
// (ReclaimConsumed, which may run on another engine's goroutine when
// runs share a device) and the prefetch planner (FilePages). FlushAll,
// Read and ResetAll are not concurrent with appends.
//
// Page buffers are recycled: a page written to the device goes back to
// the log's free list and becomes a later top page, so a run allocates
// its log pages once, in the first generations, instead of once per
// record page. The log keeps them, and its read-back buffer, until it is
// dropped. A recycled page stores exactly what a fresh one would: every
// page has the same record slots, a full page rewrites all of them, the
// bytes past the last slot are never written, and a partial page's
// unused slots are cleared when it is flushed.
type Log struct {
	dev       *ssd.Device
	prefix    string
	pageSize  int
	recPerPag int
	budget    int64 // multi-log memory buffer size (paper's A%)

	mu       sync.Mutex
	files    []*ssd.File // created lazily
	top      [][]byte    // top (partial) page per interval
	fill     []int       // bytes used in top page
	full     [][][]byte  // completed pages awaiting eviction
	spare    [][][]byte  // an empty full, handed back by the last eviction
	free     [][]byte    // written pages, ready to become top pages
	readBuf  []byte      // Read's page buffer, idle between reads
	count    []uint64    // records per interval
	total    uint64
	buffered int64 // bytes held in completed (evictable) pages
	// consumed marks intervals whose records were fully processed this
	// superstep; ReclaimConsumed (the device's space-reclamation hook)
	// truncates their logs early instead of waiting for the generation
	// swap.
	consumed []bool

	scope *ssd.IOScope // nil = device-global attribution
	tr    *obsv.Trace  // nil = tracing disabled
}

// Device returns the device hosting the log files; Prefix the file-name
// prefix. The spill path (internal/sortgroup) externally sorts an
// oversized interval onto the same device under a derived prefix.
func (l *Log) Device() *ssd.Device { return l.dev }

// Prefix returns the log's device file-name prefix.
func (l *Log) Prefix() string { return l.prefix }

// SetTracer attaches a span tracer; evictions and flushes emit spans on
// it. A nil tracer (the default) disables tracing.
func (l *Log) SetTracer(tr *obsv.Trace) { l.tr = tr }

// SetScope attributes the log's device IO to a per-run ssd.IOScope.
// Must be set before the first Append or Read — interval files are
// created lazily and adopt the scope at creation.
func (l *Log) SetScope(sc *ssd.IOScope) { l.scope = sc }

// Scope returns the log's IO attribution scope (nil = device-global).
func (l *Log) Scope() *ssd.IOScope { return l.scope }

// Tagger returns where readers of this log should set the ambient IO
// stage: the log's scope when one is attached, else the device.
func (l *Log) Tagger() ssd.Tagger {
	if l.scope != nil {
		return l.scope
	}
	return l.dev
}

// New creates a Log with one interval log per interval. prefix names the
// device files ("<prefix>.<interval>"). budget is the in-memory buffer
// size in bytes before completed pages are evicted to the device; it is
// floored at one page per interval, matching the paper's requirement that
// at least one log buffer page exists per interval.
func New(dev *ssd.Device, prefix string, numIntervals int, budget int64) (*Log, error) {
	if numIntervals <= 0 {
		return nil, fmt.Errorf("mlog: numIntervals %d invalid", numIntervals)
	}
	ps := dev.PageSize()
	if min := int64(numIntervals) * int64(ps); budget < min {
		budget = min
	}
	l := &Log{
		dev:       dev,
		prefix:    prefix,
		pageSize:  ps,
		recPerPag: (ps - pageHeader) / RecordBytes,
		budget:    budget,
		files:     make([]*ssd.File, numIntervals),
		top:       make([][]byte, numIntervals),
		fill:      make([]int, numIntervals),
		full:      make([][][]byte, numIntervals),
		count:     make([]uint64, numIntervals),
		consumed:  make([]bool, numIntervals),
	}
	if l.recPerPag == 0 {
		return nil, fmt.Errorf("mlog: page size %d smaller than record", ps)
	}
	return l, nil
}

// NumIntervals returns the number of interval logs.
func (l *Log) NumIntervals() int { return len(l.files) }

// Budget returns the in-memory buffer budget in bytes, after the
// one-page-per-interval floor. The engine bounds a processing round's
// staged sends by it, so staging never holds much more than the log's own
// buffers.
func (l *Log) Budget() int64 { return l.budget }

// Append logs the update <dst, src, data> to interval's log. It is the
// single-record form of Replay (checkpoint restore uses it) and is safe
// for concurrent use.
func (l *Log) Append(interval int, dst, src, data uint32) error {
	l.mu.Lock()
	over := l.put(interval, dst, src, data)
	l.mu.Unlock()
	if over {
		return l.evictFull()
	}
	return nil
}

// Replay appends staged updates in order to next — except the forward
// sends of the asynchronous model (§V-F), those bound for intervals at or
// above fwdFrom, which go to the current generation cur. Synchronous runs
// pass cur nil and fwdFrom math.MaxInt32. Each log's mutex is taken once
// for the whole replay and dropped only around an eviction, which fires at
// exactly the record at which a record-by-record append would fire it — so
// device IO, too, is the same as a single-threaded run's.
func Replay(next, cur *Log, fwdFrom int32, staged ...[]Update) error {
	lock := func() {
		next.mu.Lock()
		if cur != nil && cur != next {
			cur.mu.Lock()
		}
	}
	unlock := func() {
		if cur != nil && cur != next {
			cur.mu.Unlock()
		}
		next.mu.Unlock()
	}
	lock()
	for _, ups := range staged {
		for _, u := range ups {
			l := next
			if u.Iv >= fwdFrom {
				l = cur
			}
			if l.put(int(u.Iv), u.Dst, u.Src, u.Data) {
				unlock()
				if err := l.evictFull(); err != nil {
					return err
				}
				lock()
			}
		}
	}
	unlock()
	return nil
}

// put appends one record to interval's top page, sealing the page when it
// fills, and reports whether completed pages now exceed the budget. The
// caller holds mu.
func (l *Log) put(interval int, dst, src, data uint32) bool {
	if l.top[interval] == nil {
		if n := len(l.free); n > 0 {
			l.top[interval] = l.free[n-1]
			l.free = l.free[:n-1]
		} else {
			l.top[interval] = make([]byte, l.pageSize)
		}
		l.fill[interval] = pageHeader
	}
	page := l.top[interval]
	off := l.fill[interval]
	binary.LittleEndian.PutUint32(page[off:], dst)
	binary.LittleEndian.PutUint32(page[off+4:], src)
	binary.LittleEndian.PutUint32(page[off+8:], data)
	off += RecordBytes
	l.fill[interval] = off
	l.count[interval]++
	l.total++
	if off+RecordBytes <= l.pageSize {
		return false
	}
	sealPage(page, off)
	l.full[interval] = append(l.full[interval], page)
	l.top[interval] = nil
	l.fill[interval] = 0
	l.buffered += int64(l.pageSize)
	return l.buffered > l.budget
}

// evictFull writes every completed page to its interval's file, batching
// the pages of each interval into a single device write. The device writes
// run without mu held: a write that hits the disk quota runs the device's
// reclaim hooks, which may call ReclaimConsumed on this log. The eviction
// takes the whole full table and leaves the spare one in its place, so
// concurrent appends fill a table no eviction is reading; after the
// writes the pages go to the free list and the table becomes the spare.
func (l *Log) evictFull() error {
	// Tid 2 keeps log-unit spans off the engine's stage timeline.
	sp := l.tr.BeginTid("mlog", "evict", 2)
	defer sp.End()
	l.mu.Lock()
	batches := l.full
	l.full, l.spare = l.spare, nil
	if l.full == nil {
		l.full = make([][][]byte, len(batches))
	}
	for _, pages := range batches {
		l.buffered -= int64(len(pages) * l.pageSize)
	}
	l.mu.Unlock()
	var err error
	for iv, pages := range batches {
		if len(pages) > 0 && err == nil {
			err = l.writePages(iv, pages)
		}
	}
	l.mu.Lock()
	for iv, pages := range batches {
		batches[iv] = l.recycle(pages)
	}
	l.spare = batches
	l.mu.Unlock()
	return err
}

// writePages appends pages to interval iv's file in one device write.
func (l *Log) writePages(iv int, pages [][]byte) error {
	f, err := l.file(iv)
	if err != nil {
		return err
	}
	return f.AppendPages(pages)
}

func (l *Log) file(iv int) (*ssd.File, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.files[iv] == nil {
		f, err := l.dev.OpenOrCreate(fmt.Sprintf("%s.%d", l.prefix, iv))
		if err != nil {
			return nil, err
		}
		f = f.Scoped(l.scope)
		// A fresh Log generation must start empty even when the device
		// file survives from an earlier run.
		if f.NumPages() > 0 {
			if err := f.Truncate(); err != nil {
				return nil, err
			}
		}
		l.files[iv] = f
	}
	return l.files[iv], nil
}

// FlushAll evicts every completed page and the partial top pages so the
// whole generation is readable from the device. Called at the end of a
// superstep, before the generation swap.
func (l *Log) FlushAll() error {
	sp := l.tr.BeginTid("mlog", "flush-all", 2)
	sp.Arg("records", int64(l.Total()))
	defer sp.End()
	if err := l.evictFull(); err != nil {
		return err
	}
	for iv := range l.files {
		if err := l.FlushInterval(iv); err != nil {
			return err
		}
	}
	return nil
}

// FlushInterval evicts interval iv's completed pages and partial top page
// so that interval's log is readable. The asynchronous engine flushes
// single intervals mid-superstep.
func (l *Log) FlushInterval(iv int) error {
	l.mu.Lock()
	pages := l.full[iv]
	l.full[iv] = nil
	l.buffered -= int64(len(pages) * l.pageSize)
	page, fill := l.top[iv], l.fill[iv]
	l.top[iv] = nil
	l.fill[iv] = 0
	l.mu.Unlock()
	if page != nil && fill > pageHeader {
		clear(page[fill:])
		sealPage(page, fill)
		pages = append(pages, page)
	}
	var err error
	if len(pages) > 0 {
		err = l.writePages(iv, pages)
	}
	l.mu.Lock()
	pages = l.recycle(pages)
	if l.full[iv] == nil {
		l.full[iv] = pages
	}
	l.mu.Unlock()
	return err
}

// recycle moves written or dropped pages to the free list and returns
// the emptied slice, keeping its capacity. The caller holds mu.
func (l *Log) recycle(pages [][]byte) [][]byte {
	l.free = append(l.free, pages...)
	clear(pages)
	return pages[:0]
}

// sealPage records the page's byte fill in its header.
func sealPage(page []byte, fill int) {
	binary.LittleEndian.PutUint32(page, uint32((fill-pageHeader)/RecordBytes))
}

// Count returns the number of records logged to interval's log this
// generation — the counter the runtime uses to estimate log sizes for
// interval fusing (§V-A2).
func (l *Log) Count(interval int) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count[interval]
}

// Total returns the number of records logged across all intervals.
func (l *Log) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Read streams interval's log from the device in record order, flushing
// the interval's in-memory buffers first so mid-superstep reads (the
// asynchronous model) see every appended record. Pages are read with the
// device's batched reader, so a log dispersed over the channels loads at
// full bandwidth (§V-A3). Each page's record count comes from its header.
func (l *Log) Read(interval int, fn func(dst, src, data uint32)) error {
	if err := l.FlushInterval(interval); err != nil {
		return err
	}
	l.mu.Lock()
	n := l.count[interval]
	f := l.files[interval]
	l.mu.Unlock()
	if n == 0 || f == nil {
		return nil
	}
	// Read the file's pages in batches of readAhead, as a Reader over it
	// would, into the log's read buffer, and decode them in place. The
	// buffer is taken out of the log for the read, so concurrent reads of
	// different intervals each use their own.
	l.mu.Lock()
	buf := l.readBuf
	l.readBuf = nil
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		l.readBuf = buf
		l.mu.Unlock()
	}()
	ps := l.pageSize
	total := f.DataPages()
	remaining := n
	for start := 0; remaining > 0; start += readAhead {
		batch := min(readAhead, total-start)
		if batch <= 0 {
			return fmt.Errorf("mlog: read interval %d: %d records past the end of the log", interval, remaining)
		}
		if cap(buf) < batch*ps {
			buf = make([]byte, batch*ps)
		}
		if err := f.ReadPageRange(start, batch, buf[:batch*ps]); err != nil {
			return fmt.Errorf("mlog: read interval %d: %w", interval, err)
		}
		for p := 0; p < batch && remaining > 0; p++ {
			inPage, err := decodePage(buf[p*ps:(p+1)*ps], remaining, fn)
			if err != nil {
				return fmt.Errorf("mlog: interval %d: %w", interval, err)
			}
			remaining -= inPage
		}
	}
	return nil
}

// readAhead is how many pages Read fetches per device batch.
const readAhead = 64

// decodePage decodes one sealed log page, invoking fn per record, and
// returns the number of records consumed. The header's record count is
// validated against both the page's record capacity and the remaining
// record budget before any record is touched, so a corrupt or truncated
// page surfaces as an error — never an out-of-range panic.
func decodePage(page []byte, remaining uint64, fn func(dst, src, data uint32)) (uint64, error) {
	if len(page) < pageHeader+RecordBytes {
		return 0, fmt.Errorf("page of %d bytes is shorter than header plus one record", len(page))
	}
	capacity := uint64((len(page) - pageHeader) / RecordBytes)
	inPage := uint64(binary.LittleEndian.Uint32(page))
	if inPage > capacity {
		return 0, fmt.Errorf("page header claims %d records, page holds at most %d", inPage, capacity)
	}
	if inPage > remaining {
		return 0, fmt.Errorf("page holds %d records, %d expected", inPage, remaining)
	}
	for i := uint64(0); i < inPage; i++ {
		off := pageHeader + int(i)*RecordBytes
		fn(binary.LittleEndian.Uint32(page[off:]),
			binary.LittleEndian.Uint32(page[off+4:]),
			binary.LittleEndian.Uint32(page[off+8:]))
	}
	return inPage, nil
}

// FilePages returns interval iv's device-resident log file and its data
// page indices. The engine's prefetcher warms these while the previous
// batch computes; only pages already evicted to the device count, since
// in-memory buffers need no warming. Returns (nil, nil) when the interval
// has nothing on the device.
func (l *Log) FilePages(iv int) (*ssd.File, []int) {
	l.mu.Lock()
	f := l.files[iv]
	l.mu.Unlock()
	if f == nil {
		return nil, nil
	}
	n := f.DataPages()
	if n == 0 {
		return nil, nil
	}
	pages := make([]int, n)
	for i := range pages {
		pages[i] = i
	}
	return f, pages
}

// MarkConsumed records that intervals [first, last] have been fully
// processed this superstep: their records were delivered and will never be
// re-read from this generation (the next read happens after ResetAll).
// ReclaimConsumed may truncate their logs to free device space.
func (l *Log) MarkConsumed(first, last int) {
	l.mu.Lock()
	for iv := max(first, 0); iv <= last && iv < len(l.consumed); iv++ {
		l.consumed[iv] = true
	}
	l.mu.Unlock()
}

// ReclaimConsumed truncates the log files of every consumed interval and
// drops their buffers and counters, freeing device pages. It is the
// multi-log's space-reclamation hook (ssd.Device.AddReclaimer): safe to
// call from any goroutine, including mid-write on another file, and
// idempotent — each consumed interval is reclaimed once. It must not run
// concurrently with Read or Flush of the same intervals; the engine only
// marks intervals consumed after it is done reading them.
func (l *Log) ReclaimConsumed() error {
	var files []*ssd.File
	l.mu.Lock()
	for iv, c := range l.consumed {
		if !c {
			continue
		}
		l.consumed[iv] = false
		l.buffered -= int64(len(l.full[iv]) * l.pageSize)
		l.total -= l.count[iv]
		l.dropBuffers(iv)
		l.count[iv] = 0
		if f := l.files[iv]; f != nil {
			files = append(files, f)
		}
	}
	l.mu.Unlock()
	for _, f := range files {
		if f.NumPages() > 0 {
			if err := f.Truncate(); err != nil {
				return err
			}
		}
	}
	return nil
}

// ResetAll truncates every interval log and zeroes the counters, readying
// the generation for reuse.
func (l *Log) ResetAll() error {
	l.mu.Lock()
	for iv := range l.files {
		l.dropBuffers(iv)
		l.count[iv], l.consumed[iv] = 0, false
	}
	l.total, l.buffered = 0, 0
	l.mu.Unlock()
	for iv := range l.files {
		l.mu.Lock()
		f := l.files[iv]
		l.mu.Unlock()
		if f != nil {
			if err := f.Truncate(); err != nil {
				return err
			}
		}
	}
	return nil
}

// dropBuffers discards interval iv's unwritten pages, recycling their
// memory. The caller holds mu.
func (l *Log) dropBuffers(iv int) {
	l.full[iv] = l.recycle(l.full[iv])
	if l.top[iv] != nil {
		l.free = append(l.free, l.top[iv])
	}
	l.top[iv], l.fill[iv] = nil, 0
}
