// Package sim provides the deterministic virtual-time substrate on which
// every ccAI experiment runs.
//
// The paper's prototype measures wall-clock seconds on a physical
// Agilex-7 + A100 testbed. We reproduce the *shape* of those results in
// a simulator, so time here is virtual: a Time is an instant in virtual
// nanoseconds, an Engine orders discrete events on that clock, and Rand
// draws seeded randomness. The soak, the Adaptor's backoff clock and the
// fault injector run on them; the paper figures come from the analytic
// cost model in internal/bench (see DESIGN.md §5).
package sim

import (
	"container/heap"
	"fmt"
	"sync"
	"time"
)

// Time is a virtual simulation instant measured in nanoseconds since the
// start of the run. It deliberately mirrors time.Duration so component
// models can be written with familiar units.
type Time int64

// Common virtual-time units.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Duration converts a virtual instant (or span) into a time.Duration for
// display. Virtual nanoseconds map one-to-one onto real nanoseconds.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t as floating-point seconds, the unit used by every
// figure in the paper.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string { return t.Duration().String() }

// FromSeconds converts seconds into a virtual time span.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// event is a scheduled callback inside the Engine.
type event struct {
	at  Time
	seq uint64 // tie-break so equal-time events fire in schedule order
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) empty() bool   { return len(h) == 0 }
func (h eventHeap) nextAt() (Time, bool) {
	if len(h) == 0 {
		return 0, false
	}
	return h[0].at, true
}

// Engine is a discrete-event simulation core. Events scheduled for the
// same instant fire in the order they were scheduled, so a
// single-goroutine run is fully deterministic. The engine is also safe
// to share between concurrent tenant pipelines (retry backoffs all
// advance one platform clock): queue and clock mutations are guarded by
// a mutex, while event callbacks run outside it so they may schedule
// further events. Under concurrency, time still only moves forward —
// determinism of interleaving is then up to the caller.
type Engine struct {
	mu     sync.Mutex
	now    Time
	seq    uint64
	events eventHeap
}

// NewEngine returns an Engine positioned at virtual time zero.
func NewEngine() *Engine {
	e := &Engine{}
	heap.Init(&e.events)
	return e
}

// Now reports the current virtual instant.
func (e *Engine) Now() Time {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}

// Schedule runs fn after the given virtual delay. A negative delay is an
// error in the caller's model and panics, because silently clamping it
// would hide causality bugs. The now-read and the insert happen under
// one lock acquisition so a concurrent clock advance cannot slip the
// event into the past.
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.at(e.now+delay, fn)
}

// At runs fn at the given absolute virtual instant, which must not be in
// the past.
func (e *Engine) At(t Time, fn func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.at(t, fn)
}

// at inserts an event; callers hold e.mu.
func (e *Engine) at(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	e.seq++
	heap.Push(&e.events, &event{at: t, seq: e.seq, fn: fn})
}

// Step fires the next event, if any, advancing the clock to its instant.
// It reports whether an event fired. The callback runs outside the
// engine lock so it may schedule further events.
func (e *Engine) Step() bool {
	e.mu.Lock()
	if e.events.empty() {
		e.mu.Unlock()
		return false
	}
	ev := heap.Pop(&e.events).(*event)
	e.now = ev.at
	e.mu.Unlock()
	ev.fn()
	return true
}

// Run fires events until the queue drains, returning the final instant.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.Now()
}
