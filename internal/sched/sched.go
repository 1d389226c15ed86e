// Package sched is the admission-controlled fair queue at the heart of
// the ccAI serving scheduler. It is deliberately free of any platform
// knowledge: flows are integers, work items are opaque values with a
// byte cost, and the policy is classic deficit round-robin (DRR) with
// three serving-specific twists:
//
//   - Bounded ingress, fail-fast: each flow has a fixed capacity and
//     Push never blocks — a full queue returns ErrQueueFull immediately
//     so the caller can shed load at admission instead of building an
//     invisible backlog (the paper's §9 chassis serves many tenants
//     from one controller; unbounded queues would let one tenant turn
//     the chassis into its private buffer).
//
//   - Busy-flow gating: a flow's items execute one at a time (each
//     tenant's pipeline is serial — one command ring, one IV counter
//     sequence), so Next never releases an item for a flow that still
//     has one in flight. Fairness decisions are therefore made exactly
//     when capacity frees up, not speculatively.
//
//   - First-class cancellation: a queued entry can be cancelled in
//     O(1) without waiting to reach the head. Cancellation frees the
//     flow's capacity immediately (the entry is lazily unlinked) and
//     the claim/cancel race is settled by a single atomic state word,
//     so an entry is either executed or cancelled, never both.
package sched

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Sentinel errors. The public ccai layer wraps these with tenant
// context; errors.Is still matches through the wrapping.
var (
	// ErrQueueFull is returned by Push when the flow's bounded queue is
	// at capacity — the fail-fast backpressure signal.
	ErrQueueFull = errors.New("sched: queue full")
	// ErrClosed is returned by Push after Close: the queue drains but
	// admits nothing new.
	ErrClosed = errors.New("sched: queue closed")
	// ErrNoFlow is returned by Push for an out-of-range flow index.
	ErrNoFlow = errors.New("sched: no such flow")
)

// Entry states. An entry's lifecycle is Queued → (Claimed | Canceled);
// Claimed entries may be requeued back to Queued by the dispatcher
// (fault injection, slot preemption) before execution starts.
const (
	stateQueued int32 = iota
	stateClaimed
	stateCanceled
)

// Entry is one queued work item. The Value is opaque to the queue;
// Cost is the DRR charge (typically input bytes, min 1).
type Entry struct {
	Flow  int
	Cost  int64
	Value any

	state atomic.Int32
	seq   uint64
}

// Config parameterizes a Fair queue.
type Config struct {
	// Flows is the number of flows (required, ≥ 1).
	Flows int
	// Depth is the per-flow capacity (default 32).
	Depth int
	// Weights are per-flow DRR weights; nil or short slices default the
	// remainder to 1. A flow with weight w receives w× the service of a
	// weight-1 competitor under contention (equal costs).
	Weights []int
	// Quantum is the deficit added per weight unit per top-up round
	// (default 4096). Smaller quanta interleave flows more finely at
	// the price of more scan rounds for large items.
	Quantum int64
}

// flow is the per-flow scheduling state. entries may contain cancelled
// entries awaiting lazy unlink; pending counts live ones only.
type flow struct {
	entries []*Entry
	pending int
	weight  int64
	deficit int64
	busy    bool
}

// Fair is a bounded, weighted, cancellation-aware DRR queue. All
// methods are safe for concurrent use.
type Fair struct {
	mu     sync.Mutex
	flows  []flow
	depth  int
	quant  int64
	cursor int
	seq    uint64
	closed bool
	wake   chan struct{} // closed to broadcast state changes, then replaced
	parked bool          // a Next took wake and may be blocked on it
}

// New builds a Fair queue.
func New(cfg Config) (*Fair, error) {
	if cfg.Flows < 1 {
		return nil, fmt.Errorf("sched: need at least one flow, got %d", cfg.Flows)
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 32
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 4096
	}
	f := &Fair{
		flows: make([]flow, cfg.Flows),
		depth: cfg.Depth,
		quant: cfg.Quantum,
		wake:  make(chan struct{}),
	}
	for i := range f.flows {
		w := 1
		if i < len(cfg.Weights) && cfg.Weights[i] > 0 {
			w = cfg.Weights[i]
		}
		f.flows[i].weight = int64(w)
	}
	return f, nil
}

// broadcast wakes every Next waiter. With none parked since the last
// one — a dispatcher that always finds work, the steady state of a busy
// queue — there is nobody to wake and the channel stays as it is.
// Callers hold f.mu.
func (f *Fair) broadcast() {
	if !f.parked {
		return
	}
	f.parked = false
	close(f.wake)
	f.wake = make(chan struct{})
}

// Push admits v onto flow's queue, failing fast when the flow is at
// capacity. Cost below 1 is charged as 1.
func (f *Fair) Push(flowIdx int, cost int64, v any) (*Entry, error) {
	if cost < 1 {
		cost = 1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if flowIdx < 0 || flowIdx >= len(f.flows) {
		return nil, fmt.Errorf("%w: flow %d of %d", ErrNoFlow, flowIdx, len(f.flows))
	}
	if f.closed {
		return nil, ErrClosed
	}
	fl := &f.flows[flowIdx]
	if fl.pending >= f.depth {
		return nil, fmt.Errorf("%w: flow %d at depth %d", ErrQueueFull, flowIdx, f.depth)
	}
	f.seq++
	e := &Entry{Flow: flowIdx, Cost: cost, Value: v, seq: f.seq}
	fl.entries = append(fl.entries, e)
	fl.pending++
	f.broadcast()
	return e, nil
}

// Cancel removes a queued entry before dispatch. It reports true when
// the entry was still queued (the caller now owns its completion);
// false when the dispatcher already claimed it — or it was already
// cancelled — and the executor owns it. Capacity frees immediately;
// the entry itself is unlinked lazily by Next.
func (f *Fair) Cancel(e *Entry) bool {
	if e == nil || !e.state.CompareAndSwap(stateQueued, stateCanceled) {
		return false
	}
	f.uncount(e)
	return true
}

// uncount is Cancel's second half: it gives back the capacity of an
// entry whose cancel CAS the caller won. It runs after the CAS and
// outside f.mu, so a DrainQueued may come in between; DrainQueued
// leaves such an entry's count for this call to take off.
func (f *Fair) uncount(e *Entry) {
	f.mu.Lock()
	f.flows[e.Flow].pending--
	f.broadcast() // a Push waiter is never blocked, but Drain watchers poll via Next
	f.mu.Unlock()
}

// drop unlinks the flow's first k entries by shifting the rest down, so
// the queue keeps its backing array: re-slicing from the front would
// leave a yielded entry's append to reallocate on every step. Callers
// hold f.mu.
func (fl *flow) drop(k int) {
	n := copy(fl.entries, fl.entries[k:])
	clear(fl.entries[n:])
	fl.entries = fl.entries[:n]
}

// head returns the flow's first live entry, unlinking the cancelled ones
// ahead of it. Callers hold f.mu.
func (fl *flow) head() *Entry {
	k := 0
	for k < len(fl.entries) && fl.entries[k].state.Load() == stateCanceled {
		k++
	}
	if k > 0 {
		fl.drop(k)
	}
	if len(fl.entries) == 0 {
		return nil
	}
	return fl.entries[0]
}

// tryNext scans for a dispatchable entry under f.mu: a non-busy flow
// whose head's cost fits its deficit. When every eligible flow is
// short on deficit, each is topped up by quantum×weight per DRR round,
// as many rounds as the first of them to afford its head needs, in one
// pass that also picks the first flow in scan order that now can.
// Returns nil when no flow is eligible at all (empty, or all busy).
func (f *Fair) tryNext() *Entry {
	n := len(f.flows)
	for {
		// rounds is the fewest top-up rounds after which a short flow
		// affords its head; 0 while the scan has met none.
		var rounds int64
		for off := 0; off < n; off++ {
			i := (f.cursor + off) % n
			fl := &f.flows[i]
			if fl.busy {
				continue
			}
			e := fl.head()
			if e == nil {
				// Idle flows forfeit accumulated deficit (standard DRR):
				// credit must be earned under contention, not hoarded.
				fl.deficit = 0
				continue
			}
			if short := e.Cost - fl.deficit; short > 0 {
				step := f.quant * fl.weight
				if r := (short + step - 1) / step; rounds == 0 || r < rounds {
					rounds = r
				}
				continue
			}
			if f.claim(i, e) {
				return e
			}
			off-- // lost to a concurrent Cancel: try the flow's next head
		}
		if rounds == 0 {
			return nil
		}
		// Top-up: every non-busy flow with work gains rounds quanta per
		// weight unit, so service converges to the weight ratio.
		var pick *Entry
		at := 0
		for off := 0; off < n; off++ {
			i := (f.cursor + off) % n
			fl := &f.flows[i]
			if fl.busy {
				continue
			}
			if e := fl.head(); e != nil {
				fl.deficit += rounds * f.quant * fl.weight
				if pick == nil && fl.deficit >= e.Cost {
					pick, at = e, i
				}
			}
		}
		if pick != nil && f.claim(at, pick) {
			return pick
		}
		// A concurrent Cancel took the pick: scan again.
	}
}

// claim dispatches e, the head of flow i, unless a concurrent Cancel
// won the entry first. Callers hold f.mu.
func (f *Fair) claim(i int, e *Entry) bool {
	if !e.state.CompareAndSwap(stateQueued, stateClaimed) {
		return false
	}
	fl := &f.flows[i]
	fl.drop(1)
	fl.pending--
	fl.deficit -= e.Cost
	if fl.head() == nil {
		// A claim that empties its flow gives up the leftover credit, as
		// an idle flow does: it is not carried through the busy spell
		// into the flow's next backlog.
		fl.deficit = 0
	}
	fl.busy = true
	f.cursor = (i + 1) % len(f.flows)
	return true
}

// Next blocks until an entry is dispatchable, the queue is closed and
// empty, or stop is signalled. A returned entry's flow is marked busy
// until Release. The second result is false only on shutdown.
func (f *Fair) Next(stop <-chan struct{}) (*Entry, bool) {
	for {
		f.mu.Lock()
		if e := f.tryNext(); e != nil {
			f.mu.Unlock()
			return e, true
		}
		if f.closed && f.totalPending() == 0 {
			f.mu.Unlock()
			return nil, false
		}
		wake := f.wake
		f.parked = true
		f.mu.Unlock()
		select {
		case <-wake:
		case <-stop:
			return nil, false
		}
	}
}

// Requeue returns a claimed-but-unexecuted entry to the head of its
// flow with its deficit refunded — the dispatcher's path for fault
// injection (a stalled dequeue) and preemption. The flow stays busy
// until Release.
func (f *Fair) Requeue(e *Entry) {
	if e == nil || !e.state.CompareAndSwap(stateClaimed, stateQueued) {
		return
	}
	f.mu.Lock()
	fl := &f.flows[e.Flow]
	fl.entries = append([]*Entry{e}, fl.entries...)
	fl.pending++
	fl.deficit += e.Cost
	f.broadcast()
	f.mu.Unlock()
}

// Yield returns a claimed entry to the tail of its flow after one unit
// of work completed — the token-granular requeue behind continuous
// batching. Where Requeue undoes a dispatch (head position, deficit
// refunded), Yield is a voluntary preemption point between units: the
// completed step consumed real service, so no deficit comes back, and
// the entry re-joins at the tail so competing flows are served in
// between. The next dispatch charges nextCost (≥1). The flow stays
// busy until Release, preserving the one-in-flight-per-flow invariant.
// It reports false when the entry was not claimed (already cancelled
// or never dispatched) or the queue is closed — the caller should stop
// stepping that entry.
func (f *Fair) Yield(e *Entry, nextCost int64) bool {
	if e == nil || !e.state.CompareAndSwap(stateClaimed, stateQueued) {
		return false
	}
	if nextCost < 1 {
		nextCost = 1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		// Closed queues drain what is already queued but admit no next
		// step; settle the entry as cancelled so Next never returns it.
		e.state.Store(stateCanceled)
		return false
	}
	e.Cost = nextCost
	fl := &f.flows[e.Flow]
	fl.entries = append(fl.entries, e)
	fl.pending++
	f.broadcast()
	return true
}

// Release marks the flow idle again after its in-flight entry
// completes, making its next entry dispatchable.
func (f *Fair) Release(flowIdx int) {
	f.mu.Lock()
	if flowIdx >= 0 && flowIdx < len(f.flows) {
		f.flows[flowIdx].busy = false
	}
	f.broadcast()
	f.mu.Unlock()
}

// Close stops admission. Queued entries still drain through Next;
// when the last one is gone Next returns false.
func (f *Fair) Close() {
	f.mu.Lock()
	f.closed = true
	f.broadcast()
	f.mu.Unlock()
}

// DrainQueued cancels every still-queued entry and returns them; the
// caller completes their handles (Shutdown semantics). In-flight
// entries are untouched. It takes off the count of the entries whose
// CAS it won only: an entry a Cancel flipped first is still counted
// until that Cancel's uncount runs.
func (f *Fair) DrainQueued() []*Entry {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []*Entry
	for i := range f.flows {
		fl := &f.flows[i]
		for _, e := range fl.entries {
			if e.state.CompareAndSwap(stateQueued, stateCanceled) {
				out = append(out, e)
				fl.pending--
			}
		}
		fl.entries = nil
	}
	f.broadcast()
	return out
}

// Len reports the flow's live queued entries.
func (f *Fair) Len(flowIdx int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if flowIdx < 0 || flowIdx >= len(f.flows) {
		return 0
	}
	return f.flows[flowIdx].pending
}

// Pending reports live queued entries across all flows.
func (f *Fair) Pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.totalPending()
}

func (f *Fair) totalPending() int {
	n := 0
	for i := range f.flows {
		n += f.flows[i].pending
	}
	return n
}
