package core

import (
	"slices"
	"sync"

	"ccai/internal/obsv"
	"ccai/internal/secmem"
)

// DefaultTagCap bounds the pending-tag queue. Under tag-packet loss
// the data chunk never claims its record, so without a cap a lossy or
// malicious peer could grow the queue forever; overflowing the cap
// evicts the oldest unmatched records fail-closed (their data chunks
// will miss the tag match and be rejected).
const DefaultTagCap = 4096

// TagManager is the Authentication Tag Manager control panel: it queues
// tag records and matches them with data chunks during verification.
// All methods are safe for concurrent use.
//
// Records arrive a tag packet at a time with consecutive counters and
// leave a read span at a time, so the manager keeps them by run, not by
// record (DESIGN.md §10 "tag plane"). The arrival log is one ring of
// pointer-free entries in arrival order — the eviction order. Each
// stream indexes its part of the log with runs: "counters first..first+n
// sit at log positions pos..pos+n". A packet extends the newest run of
// its stream by one comparison per record; a lookup is a subtraction
// inside the run that holds the counter. Identity is the full (stream,
// counter) pair: streams are told apart by name, never by the 32-bit
// wire hash, so two names that collide under hashStream can never
// cross-match or steal each other's tags.
type TagManager struct {
	// mu guards everything below. A manager from NewTagManager owns its
	// lock; a Controller's manager shares the controller's mu, so the
	// controller matches, arms and discards a region's records inside
	// the critical section it already holds for the region (the
	// *Locked methods, called with mu held). Either way every exported
	// method takes mu, so scrapes and tests may call them from any
	// goroutine.
	mu *sync.Mutex

	// log holds arrival positions [head, tail), position p in slot
	// p&(len(log)-1). A matched or evicted entry is marked dead in place
	// and dead entries are dropped as soon as they reach the head, so
	// log[head] is always live and eviction never has to search for its
	// victim. len(log) is zero or a power of two.
	log        []tagEntry
	head, tail uint64
	live       int

	streams []*tagStream

	cap     int
	matched uint64
	missing uint64
	evicted uint64

	// fault, when set, may drop an arriving tag record — the
	// tag-packet-loss fault class. A dropped tag makes the matching
	// data chunk fail closed until the Adaptor reposts it.
	fault        func(rec TagRecord) bool
	droppedFault uint64

	// enqueued is the one count kept only in the metrics registry (nil
	// unobserved); the registry reads the others from the fields above.
	enqueued *obsv.Counter
}

// tagEntry is one pending record in the arrival log. It names its
// stream by index so the ring holds no pointers and costs the collector
// nothing to scan.
type tagEntry struct {
	chunk, epoch uint32
	tag          [secmem.TagSize]byte
	stream       int32 // index into TagManager.streams
	live         bool
}

// tagStream is one stream's index into the arrival log: its runs in
// arrival order (ascending pos).
type tagStream struct {
	name string
	runs []tagRun
}

// tagRun says counters first, first+1, … first+n-1 of one stream
// occupy log positions pos, pos+1, … pos+n-1. Entries inside a run may
// be dead; a counter re-enqueued after its entry died starts a newer
// run, which lookups reach first.
type tagRun struct {
	first, n uint32
	pos      uint64
}

// SetObserver instruments the tag manager: the hub's registry reads the
// counts Stats, DroppedByFault and Evicted return. A nil hub stops
// sc.tags.enqueued; a registry keeps its reads.
func (tm *TagManager) SetObserver(h *obsv.Hub) {
	reg := h.Reg()
	tm.mu.Lock()
	tm.enqueued = reg.Counter("sc.tags.enqueued")
	tm.mu.Unlock()
	reg.CounterFunc("sc.tags.matched", func() uint64 { m, _ := tm.Stats(); return m })
	reg.CounterFunc("sc.tags.missing", func() uint64 { _, m := tm.Stats(); return m })
	reg.CounterFunc("sc.tags.dropped_by_fault", tm.DroppedByFault)
	reg.CounterFunc("sc.tags.evicted", tm.Evicted)
}

// NewTagManager returns an empty tag queue with the default cap.
func NewTagManager() *TagManager { return newTagManager(new(sync.Mutex)) }

// newTagManager returns an empty tag queue guarded by mu.
func newTagManager(mu *sync.Mutex) *TagManager {
	return &TagManager{mu: mu, cap: DefaultTagCap}
}

// SetPendingCap changes the pending-queue bound (≤0 restores the
// default) and immediately evicts down to the new cap.
func (tm *TagManager) SetPendingCap(n int) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	if n <= 0 {
		n = DefaultTagCap
	}
	tm.cap = n
	tm.evictLocked()
}

// PendingCap reports the configured bound.
func (tm *TagManager) PendingCap() int {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.cap
}

// SetFaultHook installs (or clears, with nil) the tag-packet-loss
// injection point.
func (tm *TagManager) SetFaultHook(fn func(rec TagRecord) bool) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	tm.fault = fn
}

// Enqueue stores arriving tag records — one tag packet's worth under
// one lock — exactly as if each had been enqueued on its own, in
// order: the fault hook sees every record and may drop it; a record
// whose (stream, counter) is already pending replaces it in place,
// keeping its arrival position; and after every record the oldest
// pending records are evicted (fail-closed) while the queue exceeds
// its cap.
func (tm *TagManager) Enqueue(recs ...TagRecord) {
	if len(recs) == 0 {
		return
	}
	tm.mu.Lock()
	defer tm.mu.Unlock()
	tm.enqueueLocked(recs)
}

// enqueueLocked is Enqueue for a caller that holds tm.mu.
func (tm *TagManager) enqueueLocked(recs []TagRecord) {
	var s *tagStream
	var si int32
	stored := uint64(0)
	for i := range recs {
		rec := &recs[i]
		if tm.fault != nil && tm.fault(*rec) {
			tm.droppedFault++
			continue
		}
		if s == nil || s.name != rec.Stream {
			s, si = tm.streamFor(rec.Stream)
		}
		if e := tm.find(s, rec.Chunk); e != nil {
			e.epoch, e.tag = rec.Epoch, rec.Tag
		} else {
			tm.push(s, si, rec)
		}
		stored++
		tm.evictLocked()
	}
	tm.enqueued.Add(stored)
}

// Peek returns the pending record for (stream, chunk) and leaves it
// pending, uncounted: a verified-run read needs the run length its
// record carries to size the host fetch, and a fetch that fails must
// not have spent the record.
func (tm *TagManager) Peek(stream string, chunk uint32) (TagRecord, bool) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.peekLocked(stream, chunk)
}

// peekLocked is Peek for a caller that holds tm.mu.
func (tm *TagManager) peekLocked(stream string, chunk uint32) (TagRecord, bool) {
	e := tm.find(tm.lookup(stream), chunk)
	if e == nil {
		return TagRecord{}, false
	}
	return TagRecord{Stream: stream, Chunk: e.chunk, Epoch: e.epoch, Tag: e.tag}, true
}

// Take matches and removes the tag for (stream, chunk); ok is false
// when no tag packet arrived, which fails the integrity check.
func (tm *TagManager) Take(stream string, chunk uint32) (TagRecord, bool) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.take(tm.lookup(stream), chunk)
}

// TakeEach is Take for every counter in ctrs under one lock — the
// demand path of a span read: recs[i], have[i] are what Take(stream,
// ctrs[i]) would have returned, each counted as matched or missing. It
// reports whether every record was on hand.
func (tm *TagManager) TakeEach(stream string, ctrs []uint32, recs []TagRecord, have []bool) bool {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.takeEachLocked(stream, ctrs, recs, have)
}

// takeEachLocked is TakeEach for a caller that holds tm.mu.
func (tm *TagManager) takeEachLocked(stream string, ctrs []uint32, recs []TagRecord, have []bool) bool {
	s := tm.lookup(stream)
	all := true
	for i, c := range ctrs {
		recs[i], have[i] = tm.take(s, c)
		all = all && have[i]
	}
	return all
}

// DroppedByFault reports tag records lost to injected faults.
func (tm *TagManager) DroppedByFault() uint64 {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.droppedFault
}

// Depth reports queued, unmatched tags.
func (tm *TagManager) Depth() int {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.live
}

// Stats reports matched and missing lookups.
func (tm *TagManager) Stats() (matched, missing uint64) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.matched, tm.missing
}

// Evicted reports records dropped by the pending-queue cap.
func (tm *TagManager) Evicted() uint64 {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.evicted
}

// Discard drops the pending records of counters first, first+1, …
// first+n-1 of stream, matched by nothing and counted as nothing. It
// walks the pending log once, so its cost is bounded by the cap however
// large n is.
func (tm *TagManager) Discard(stream string, first, n uint32) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	tm.discardLocked(stream, first, n)
}

// discardLocked is Discard for a caller that holds tm.mu.
func (tm *TagManager) discardLocked(stream string, first, n uint32) {
	if tm.live == 0 {
		return
	}
	si := int32(slices.IndexFunc(tm.streams, func(s *tagStream) bool { return s.name == stream }))
	mask := uint64(len(tm.log) - 1)
	for p := tm.head; si >= 0 && p < tm.tail; p++ {
		if e := &tm.log[p&mask]; e.live && e.stream == si && e.chunk-first < n {
			tm.kill(e)
		}
	}
}

// Clear drops all pending tags.
func (tm *TagManager) Clear() {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	tm.head, tm.live = tm.tail, 0
	// No entry is left to name a stream by index, so the stream table
	// restarts too: names cannot pile up across sessions.
	clear(tm.streams)
	tm.streams = tm.streams[:0]
}

// --- internals; callers hold tm.mu ------------------------------------------

// lookup returns the stream's index, nil when nothing was ever
// enqueued under that name.
func (tm *TagManager) lookup(name string) *tagStream {
	for _, s := range tm.streams {
		if s.name == name {
			return s
		}
	}
	return nil
}

// streamFor is lookup that creates the stream on first use. The stream
// set is small and fixed in practice: the controller only enqueues
// names it resolved against the active and well-known streams.
func (tm *TagManager) streamFor(name string) (*tagStream, int32) {
	for i, s := range tm.streams {
		if s.name == name {
			return s, int32(i)
		}
	}
	s := &tagStream{name: name}
	tm.streams = append(tm.streams, s)
	return s, int32(len(tm.streams) - 1)
}

// find returns the pending entry for counter c of s, nil when there is
// none. Runs are searched newest first, so a counter that was matched
// and enqueued again resolves to its live entry.
func (tm *TagManager) find(s *tagStream, c uint32) *tagEntry {
	if s == nil {
		return nil
	}
	mask := uint64(len(tm.log) - 1)
	for i := len(s.runs) - 1; i >= 0; i-- {
		r := &s.runs[i]
		if d := c - r.first; d < r.n {
			if p := r.pos + uint64(d); p >= tm.head {
				if e := &tm.log[p&mask]; e.live {
					return e
				}
			}
		}
	}
	return nil
}

// take is the one match: remove and count, or count the miss.
func (tm *TagManager) take(s *tagStream, c uint32) (TagRecord, bool) {
	e := tm.find(s, c)
	if e == nil {
		tm.missing++
		return TagRecord{}, false
	}
	rec := TagRecord{Stream: s.name, Chunk: e.chunk, Epoch: e.epoch, Tag: e.tag}
	tm.kill(e)
	tm.matched++
	return rec, true
}

// kill marks a live entry dead and restores "log[head] is live".
func (tm *TagManager) kill(e *tagEntry) {
	e.live = false
	tm.live--
	mask := uint64(len(tm.log) - 1)
	for tm.head < tm.tail && !tm.log[tm.head&mask].live {
		tm.head++
	}
}

// evictLocked drops oldest-first until the queue fits the cap.
func (tm *TagManager) evictLocked() {
	for tm.live > tm.cap {
		tm.kill(&tm.log[tm.head&uint64(len(tm.log)-1)])
		tm.evicted++
	}
}

// push appends rec at the tail of the arrival log and indexes it.
func (tm *TagManager) push(s *tagStream, si int32, rec *TagRecord) {
	if tm.tail-tm.head == uint64(len(tm.log)) {
		tm.makeRoom()
	}
	tm.log[tm.tail&uint64(len(tm.log)-1)] = tagEntry{
		chunk: rec.Chunk, epoch: rec.Epoch, tag: rec.Tag, stream: si, live: true,
	}
	// Runs wholly behind the head index nothing any more; dropping them
	// here, where runs are added, keeps the index no longer than the log.
	dead := 0
	for dead < len(s.runs) && s.runs[dead].pos+uint64(s.runs[dead].n) <= tm.head {
		dead++
	}
	if dead > 0 {
		s.runs = s.runs[:copy(s.runs, s.runs[dead:])]
	}
	s.index(rec.Chunk, tm.tail)
	tm.tail++
	tm.live++
}

// index records that counter c sits at log position p: one more entry
// of the newest run when it continues it in both counter and position,
// else a run of its own.
func (s *tagStream) index(c uint32, p uint64) {
	if k := len(s.runs); k > 0 {
		if r := &s.runs[k-1]; r.first+r.n == c && r.pos+uint64(r.n) == p {
			r.n++
			return
		}
	}
	s.runs = append(s.runs, tagRun{first: c, n: 1, pos: p})
}

// makeRoom is called with the ring full. When dead entries stranded
// behind a long-lived head dominate, it squeezes them out and re-derives
// every run; otherwise it doubles the ring. Either way the ring stays
// within a constant factor of the live records, which the cap bounds.
func (tm *TagManager) makeRoom() {
	n := len(tm.log)
	if n > 2*tm.live+16 {
		mask := uint64(n - 1)
		w := tm.head
		for p := tm.head; p < tm.tail; p++ {
			if e := tm.log[p&mask]; e.live {
				tm.log[w&mask] = e
				w++
			}
		}
		tm.tail = w
		for _, s := range tm.streams {
			s.runs = s.runs[:0]
		}
		for p := tm.head; p < tm.tail; p++ {
			e := &tm.log[p&mask]
			tm.streams[e.stream].index(e.chunk, p)
		}
		return
	}
	grown := make([]tagEntry, max(2*n, 64))
	for p := tm.head; p < tm.tail; p++ {
		grown[p&uint64(len(grown)-1)] = tm.log[p&uint64(n-1)]
	}
	tm.log = grown
}
