package obsv

import (
	"strconv"
	"sync"
	"sync/atomic"

	"ccai/internal/sim"
)

// attrKind discriminates an Attr's stored value. Numeric kinds keep the
// raw number and render on export only — the recording hot path never
// formats strings.
type attrKind uint8

const (
	attrStr attrKind = iota
	attrU64
	attrI64
	attrHex
	attrBool
)

// Attr is one span attribute: metadata only (stream names, sizes,
// register offsets, actions) — never payload bytes. Build with the
// typed constructors; read with Val. Numeric attributes are stored
// unformatted so recording them costs no allocation.
type Attr struct {
	Key  string
	str  string
	num  uint64
	kind attrKind
}

// Str builds a string attribute. Values should be low-cardinality
// (names, actions, states): the symbol table keeps every distinct one
// for the life of the process, and past its cap (MaxSymbols) a new
// value records as "(overflow)" — encode what varies as numbers.
func Str(k, v string) Attr { return Attr{Key: k, str: v} }

// U64 builds an unsigned integer attribute.
func U64(k string, v uint64) Attr { return Attr{Key: k, num: v, kind: attrU64} }

// I64 builds a signed integer attribute.
func I64(k string, v int64) Attr { return Attr{Key: k, num: uint64(v), kind: attrI64} }

// Hex builds a hexadecimal address attribute.
func Hex(k string, v uint64) Attr { return Attr{Key: k, num: v, kind: attrHex} }

// Val renders the attribute value.
func (a Attr) Val() string {
	switch a.kind {
	case attrU64:
		return strconv.FormatUint(a.num, 10)
	case attrI64:
		return strconv.FormatInt(int64(a.num), 10)
	case attrHex:
		return "0x" + strconv.FormatUint(a.num, 16)
	case attrBool:
		return strconv.FormatBool(a.num != 0)
	}
	return a.str
}

// maxSpanAttrs bounds attributes per span. They live inline in the
// record so recording never heap-allocates; extras are dropped.
const maxSpanAttrs = 6

// Span is one finished interval (or, when End == Start and Instant is
// set, a point event) on a named track, as materialized by Spans().
type Span struct {
	Track   string
	Name    string
	Task    uint64 // 0 = outside any task
	Start   sim.Time
	End     sim.Time
	Instant bool

	nattrs uint8
	attrs  [maxSpanAttrs]Field
}

// Attrs renders the span's attributes. They are kept as recorded, in
// handle form, so a harvest that only reads names and times never pays
// for them; each call builds the rendered list.
func (s *Span) Attrs() []Attr {
	if s.nattrs == 0 {
		return nil
	}
	names := symbols.snapshot()
	out := make([]Attr, s.nattrs)
	for i := range out {
		out[i] = s.attrs[i].attr(names)
	}
	return out
}

// rec is the in-buffer span record. It contains no pointers, so a
// []rec is allocated in a no-scan region: a full buffer of retained
// history costs the garbage collector nothing per cycle. Strings are
// rebuilt from the symbol table when Spans() materializes records.
type rec struct {
	site    Site
	task    uint64
	start   sim.Time
	end     sim.Time
	instant bool
	nattrs  uint8
	attrs   [maxSpanAttrs]Field
}

func (r *rec) addFields(fields []Field) {
	r.nattrs += uint8(copy(r.attrs[r.nattrs:], fields))
}

// spanBuf is one fixed-capacity recording epoch: records are written
// in place at fetch-add slots until full, then are counted as dropped.
// Reset swaps the whole buffer, so recording never takes a lock.
//
// A buffer is reused by a later Reset only once no span begun in it is
// still open, and that is counted, not assumed: next counts slots
// claimed, done counts claimed slots whose recorder is finished with
// them (the span ended, the instant was written). The swap that
// displaces a buffer seals next — no slot can be claimed through it
// afterwards — and notes how many were (claimed); the buffer is
// reusable when done has caught up with that. So neither a late End
// nor a recorder that stalled mid-write can land in a slot of a later
// epoch.
type spanBuf struct {
	t       *Tracer
	next    atomic.Uint64
	done    atomic.Uint64
	dropped atomic.Uint64
	claimed uint64 // set when displaced; guarded by t.mu
	buf     []rec
}

// sealed is added to a displaced buffer's next: every later claim
// through it reads as "full".
const sealed = 1 << 62

// Tracer collects spans on the virtual clock. Without an attached
// clock it falls back to a deterministic synthetic tick (fallbackTick
// virtual nanoseconds per timestamp sample), so exported timelines stay
// ordered and replayable even on the purely functional path, which
// never advances a sim.Engine. A nil *Tracer is a no-op.
//
// The hot path is lock- and allocation-free: timestamps and task scope
// are atomics, attributes live inline in the record, and Start
// reserves a preallocated buffer slot at a fetch-add index and writes
// the span in place — End only stamps the finish time. Records hold
// symbol handles instead of strings, so the retained buffer is
// invisible to the garbage collector, and the handle forms (Start,
// Mark, Set) store the handles they are given: no lookup per span.
// Begin, Instant and Attr are the string forms of the same recorder
// for cold sites — they resolve their strings lock-free and record
// through the same path. Only Reset/SetLimit (buffer swaps) and
// snapshot reads take the mutex.
type Tracer struct {
	clock   atomic.Pointer[func() sim.Time]
	tick    atomic.Int64
	taskSeq atomic.Uint64
	curTask atomic.Uint64
	cur     atomic.Pointer[spanBuf]

	mu    sync.Mutex // serializes buffer swaps and snapshot reads
	limit int
	spare *spanBuf // the buffer the last swap displaced, reused by the next
}

// fallbackTick is the synthetic-clock step per timestamp sample.
const fallbackTick = 20 * sim.Nanosecond

// DefaultSpanLimit bounds retained spans so long-running sessions do
// not grow without bound; older spans are kept, newer ones dropped and
// counted. The buffer is preallocated (~140 B per slot, pointer-free),
// so the limit is also a memory budget — the default holds a few
// dozen tasks of history in about half a MiB. Raise it with SetLimit
// before capturing long sessions.
const DefaultSpanLimit = 1 << 12

// NewTracer returns a tracer on the synthetic clock.
func NewTracer() *Tracer {
	t := &Tracer{limit: DefaultSpanLimit}
	t.swapLocked()
	return t
}

// SetClock attaches a virtual-time source (typically sim.Engine.Now);
// nil reverts to the synthetic tick.
func (t *Tracer) SetClock(fn func() sim.Time) {
	if t == nil {
		return
	}
	if fn == nil {
		t.clock.Store(nil)
		return
	}
	t.clock.Store(&fn)
}

// SetLimit caps retained spans (≤0 resets to the default). The change
// discards already-recorded spans.
func (t *Tracer) SetLimit(n int) {
	if t == nil {
		return
	}
	if n <= 0 {
		n = DefaultSpanLimit
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.limit = n
	t.swapLocked()
}

// swapLocked makes an empty buffer of t.limit slots current and keeps
// the displaced one, sealed, as the spare. The spare is reused — so a
// harvest cadence allocates nothing — only when it has the right size
// and every slot claimed in it is done with; otherwise a fresh buffer
// is allocated and the spare is left to the garbage collector, exactly
// as safe as never reusing. Records are written whole by the recorder,
// so a reused buffer needs no clearing. Caller holds t.mu (or owns t).
func (t *Tracer) swapLocked() {
	next := t.spare
	if next != nil && len(next.buf) == t.limit && next.done.Load() == next.claimed {
		// Unsealing comes last: until then nothing can be claimed.
		next.dropped.Store(0)
		next.done.Store(0)
		next.next.Store(0)
	} else {
		next = &spanBuf{t: t, buf: make([]rec, t.limit)}
	}
	old := t.cur.Swap(next)
	if old != nil {
		old.claimed = min(old.next.Add(sealed)-sealed, uint64(len(old.buf)))
	}
	t.spare = old
}

// now samples the clock.
func (t *Tracer) now() sim.Time {
	if fn := t.clock.Load(); fn != nil {
		return (*fn)()
	}
	return sim.Time(t.tick.Add(int64(fallbackTick)))
}

// StartTask opens a new task scope: spans begun until EndTask carry the
// returned task ID.
func (t *Tracer) StartTask() uint64 {
	if t == nil {
		return 0
	}
	id := t.taskSeq.Add(1)
	t.curTask.Store(id)
	return id
}

// EndTask closes the current task scope.
func (t *Tracer) EndTask() {
	if t != nil {
		t.curTask.Store(0)
	}
}

// ActiveSpan is an open interval; End finishes it. The zero value
// (from a nil tracer, or when the buffer is full) ignores every call,
// so callers never branch on enablement. An ActiveSpan may be held
// across a Reset or SetLimit: it keeps its buffer out of reuse until it
// ends, and is simply absent from later harvests.
type ActiveSpan struct {
	b *spanBuf
	r *rec
}

// reserve claims the current buffer's next slot, counting a drop (and
// returning nil) when full. Whoever claims a slot owes the buffer one
// done.Add(1) when finished with it. A recorder that raced a swap
// either claimed its slot before the displaced buffer was sealed — the
// span is recorded there and misses the harvest, as it always has — or
// finds it sealed and records nothing; that is not a drop (the buffer
// it would count against may be in its next epoch by then).
func (t *Tracer) reserve() (*spanBuf, *rec) {
	b := t.cur.Load()
	// Saturated fast path: once full, skip the fetch-add — a plain
	// load keeps the steady-state cost of a capped buffer at two loads
	// and one increment per span.
	i := b.next.Load()
	if i < uint64(len(b.buf)) {
		i = b.next.Add(1) - 1
	}
	if i >= uint64(len(b.buf)) {
		if i < sealed {
			b.dropped.Add(1)
		}
		return nil, nil
	}
	return b, &b.buf[i]
}

// open writes the fixed part of a freshly reserved record — all of it,
// so a slot's previous contents never show through.
func (t *Tracer) open(r *rec, s Site) {
	r.site, r.task, r.start = s, t.curTask.Load(), t.now()
	r.end, r.instant, r.nattrs = 0, false, 0
}

// Start opens a span at a resolved site. The record is written in
// place in its preallocated buffer slot, so the common
// sp := Start(...); defer sp.End() pattern does not heap-allocate or
// copy. An unfinished span exports with End == 0.
func (t *Tracer) Start(s Site, fields ...Field) ActiveSpan {
	if t == nil {
		return ActiveSpan{}
	}
	b, r := t.reserve()
	if r == nil {
		return ActiveSpan{}
	}
	t.open(r, s)
	r.addFields(fields)
	return ActiveSpan{b: b, r: r}
}

// Begin is Start for a site named by strings: the form for cold sites
// and callers outside the instrumented packages.
func (t *Tracer) Begin(track, name string, attrs ...Attr) ActiveSpan {
	sp := t.Start(Site{}) // resolve only once a slot is known to exist
	if sp.r != nil {
		sp.r.site = NewSite(track, name)
		sp.Attr(attrs...)
	}
	return sp
}

// Set appends attributes to an open span.
func (a *ActiveSpan) Set(fields ...Field) {
	if a == nil || a.r == nil {
		return
	}
	a.r.addFields(fields)
}

// Attr is Set for string-form attributes.
func (a *ActiveSpan) Attr(attrs ...Attr) {
	if a == nil || a.r == nil {
		return
	}
	for _, at := range attrs {
		if a.r.nattrs >= maxSpanAttrs {
			return
		}
		a.r.attrs[a.r.nattrs] = at.field()
		a.r.nattrs++
	}
}

// End closes the span. Ending it again is a no-op.
func (a *ActiveSpan) End() {
	if a == nil || a.r == nil {
		return
	}
	a.r.end = a.b.t.now()
	a.r = nil
	a.b.done.Add(1)
}

// point finishes a span just begun as a point event.
func (a ActiveSpan) point() {
	if a.r != nil {
		a.r.end, a.r.instant = a.r.start, true
		a.b.done.Add(1)
	}
}

// Mark records a point event (fault firings, teardowns) at a resolved
// site.
func (t *Tracer) Mark(s Site, fields ...Field) { t.Start(s, fields...).point() }

// Instant is Mark for a site named by strings.
func (t *Tracer) Instant(track, name string, attrs ...Attr) { t.Begin(track, name, attrs...).point() }

// Spans materializes all recorded spans in begin order, in one pass
// straight from the buffer against one snapshot of the name table.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	// Held throughout: a concurrent Reset must not hand the buffer being
	// read back to recorders.
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.cur.Load()
	n := min(b.next.Load(), uint64(len(b.buf)))
	names := symbols.snapshot()
	spans := make([]Span, n)
	for i := range spans {
		r, s := &b.buf[i], &spans[i]
		s.Track, s.Name = names[r.site.track], names[r.site.name]
		s.Task, s.Start, s.End, s.Instant = r.task, r.start, r.end, r.instant
		s.nattrs, s.attrs = r.nattrs, r.attrs
	}
	return spans
}

// Dropped reports spans lost to the retention cap since the last Reset.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.cur.Load().dropped.Load()
}

// Reset clears recorded spans and the drop counter (task numbering
// continues, so task IDs stay unique across a session).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.swapLocked()
}
