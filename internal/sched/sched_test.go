package sched

import (
	"errors"
	"runtime"
	"sync"
	"testing"
)

func mustPush(t *testing.T, f *Fair, flow int, cost int64, v any) *Entry {
	t.Helper()
	e, err := f.Push(flow, cost, v)
	if err != nil {
		t.Fatalf("push flow %d: %v", flow, err)
	}
	return e
}

// drainOrder pops every queued entry (releasing flows immediately, so
// busy-gating never blocks the drain) and returns the flow sequence.
func drainOrder(f *Fair) []int {
	stop := make(chan struct{})
	var order []int
	for f.Pending() > 0 {
		e, ok := f.Next(stop)
		if !ok {
			break
		}
		order = append(order, e.Flow)
		f.Release(e.Flow)
	}
	return order
}

func TestFIFOWithinFlow(t *testing.T) {
	f, err := New(Config{Flows: 1, Depth: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustPush(t, f, 0, 10, i)
	}
	stop := make(chan struct{})
	for i := 0; i < 5; i++ {
		e, ok := f.Next(stop)
		if !ok || e.Value.(int) != i {
			t.Fatalf("pop %d: got %v ok=%v", i, e.Value, ok)
		}
		f.Release(0)
	}
}

func TestQueueFullFailFast(t *testing.T) {
	f, _ := New(Config{Flows: 2, Depth: 2})
	mustPush(t, f, 0, 1, "a")
	mustPush(t, f, 0, 1, "b")
	if _, err := f.Push(0, 1, "c"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("got %v, want ErrQueueFull", err)
	}
	// The other flow is unaffected.
	mustPush(t, f, 1, 1, "d")
	// Out-of-range flow.
	if _, err := f.Push(7, 1, "x"); !errors.Is(err, ErrNoFlow) {
		t.Fatalf("got %v, want ErrNoFlow", err)
	}
}

func TestCancelFreesCapacityAndSkipsDispatch(t *testing.T) {
	f, _ := New(Config{Flows: 1, Depth: 2})
	a := mustPush(t, f, 0, 1, "a")
	mustPush(t, f, 0, 1, "b")
	if !f.Cancel(a) {
		t.Fatal("cancel of queued entry refused")
	}
	if f.Cancel(a) {
		t.Fatal("double cancel succeeded")
	}
	// Capacity freed immediately.
	mustPush(t, f, 0, 1, "c")
	stop := make(chan struct{})
	e, ok := f.Next(stop)
	if !ok || e.Value.(string) != "b" {
		t.Fatalf("dispatched %v, want b (a cancelled)", e.Value)
	}
	f.Release(0)
	e, ok = f.Next(stop)
	if !ok || e.Value.(string) != "c" {
		t.Fatalf("dispatched %v, want c", e.Value)
	}
	// A claimed entry can no longer be cancelled through the queue.
	if f.Cancel(e) {
		t.Fatal("cancel of claimed entry succeeded")
	}
}

func TestBusyFlowGating(t *testing.T) {
	f, _ := New(Config{Flows: 2, Depth: 4})
	mustPush(t, f, 0, 1, "a0")
	mustPush(t, f, 0, 1, "a1")
	mustPush(t, f, 1, 1, "b0")
	stop := make(chan struct{})
	e1, _ := f.Next(stop) // flow 0 now busy
	if e1.Flow != 0 {
		t.Fatalf("first dispatch from flow %d, want 0", e1.Flow)
	}
	e2, _ := f.Next(stop) // must come from flow 1, not a1
	if e2.Flow != 1 {
		t.Fatalf("second dispatch from flow %d, want 1 (flow 0 busy)", e2.Flow)
	}
	f.Release(0)
	e3, _ := f.Next(stop)
	if e3.Value.(string) != "a1" {
		t.Fatalf("third dispatch %v, want a1 after release", e3.Value)
	}
}

// TestWeightedFairnessRatio floods two flows with equal-cost work and
// checks the dispatch mix tracks the 1:3 weight ratio.
func TestWeightedFairnessRatio(t *testing.T) {
	f, _ := New(Config{Flows: 2, Depth: 256, Weights: []int{1, 3}, Quantum: 64})
	const each = 200
	for i := 0; i < each; i++ {
		mustPush(t, f, 0, 1000, i)
		mustPush(t, f, 1, 1000, i)
	}
	order := drainOrder(f)
	// Count the mix over a prefix where both flows are still contending
	// (flow 1 empties after `each` dispatches of its own).
	counts := [2]int{}
	for _, fl := range order[:each*4/5] {
		counts[fl]++
	}
	ratio := float64(counts[1]) / float64(counts[0])
	if ratio < 2.4 || ratio > 3.6 {
		t.Fatalf("dispatch ratio %.2f (counts %v), want ~3.0", ratio, counts)
	}
}

// TestCostAwareFairness: with equal weights, a flow pushing 4× larger
// items should win ~1/4 of the dispatches (byte fairness, not item
// fairness).
func TestCostAwareFairness(t *testing.T) {
	f, _ := New(Config{Flows: 2, Depth: 256, Quantum: 64})
	const each = 120
	for i := 0; i < each; i++ {
		mustPush(t, f, 0, 1000, i)
		mustPush(t, f, 1, 4000, i)
	}
	order := drainOrder(f)
	counts := [2]int{}
	for _, fl := range order[:each] {
		counts[fl]++
	}
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 2.8 || ratio > 5.5 {
		t.Fatalf("item ratio %.2f (counts %v), want ~4.0", ratio, counts)
	}
}

func TestRequeuePreservesHeadOrder(t *testing.T) {
	f, _ := New(Config{Flows: 1, Depth: 4})
	mustPush(t, f, 0, 1, "a")
	mustPush(t, f, 0, 1, "b")
	stop := make(chan struct{})
	e, _ := f.Next(stop)
	f.Requeue(e)
	f.Release(0)
	e2, _ := f.Next(stop)
	if e2.Value.(string) != "a" {
		t.Fatalf("after requeue got %v, want a back at head", e2.Value)
	}
}

func TestCloseDrainsThenStops(t *testing.T) {
	f, _ := New(Config{Flows: 1, Depth: 4})
	mustPush(t, f, 0, 1, "a")
	f.Close()
	if _, err := f.Push(0, 1, "late"); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after close: %v, want ErrClosed", err)
	}
	stop := make(chan struct{})
	e, ok := f.Next(stop)
	if !ok || e.Value.(string) != "a" {
		t.Fatal("queued entry lost on close")
	}
	f.Release(0)
	if _, ok := f.Next(stop); ok {
		t.Fatal("Next returned entry after drain of closed queue")
	}
}

func TestDrainQueuedCancelsAll(t *testing.T) {
	f, _ := New(Config{Flows: 2, Depth: 4})
	mustPush(t, f, 0, 1, "a")
	mustPush(t, f, 1, 1, "b")
	drained := f.DrainQueued()
	if len(drained) != 2 {
		t.Fatalf("drained %d entries, want 2", len(drained))
	}
	for _, e := range drained {
		if !e.Canceled() {
			t.Fatalf("drained entry %v not marked cancelled", e.Value)
		}
	}
	if f.Pending() != 0 {
		t.Fatalf("pending %d after drain", f.Pending())
	}
}

// TestNextBlocksUntilPushOrStop covers the waiter paths.
func TestNextBlocksUntilPushOrStop(t *testing.T) {
	f, _ := New(Config{Flows: 1, Depth: 4})
	got := make(chan *Entry, 1)
	stop := make(chan struct{})
	go func() {
		e, _ := f.Next(stop)
		got <- e
	}()
	mustPush(t, f, 0, 1, "x")
	if e := <-got; e == nil || e.Value.(string) != "x" {
		t.Fatalf("blocked Next returned %v", e)
	}
	done := make(chan struct{})
	go func() {
		_, ok := f.Next(stop)
		if ok {
			t.Error("Next returned an entry after stop")
		}
		close(done)
	}()
	close(stop)
	<-done
}

// TestConcurrentPushCancelNext hammers the claim/cancel race under the
// race detector: every entry must be observed exactly once — either
// dispatched or successfully cancelled, never both, never neither.
func TestConcurrentPushCancelNext(t *testing.T) {
	f, _ := New(Config{Flows: 4, Depth: 1024})
	const perFlow = 200
	var dispatched, cancelled [4 * perFlow]int32
	stop := make(chan struct{})
	var consumers sync.WaitGroup
	consumers.Add(1)
	go func() {
		defer consumers.Done()
		for {
			e, ok := f.Next(stop)
			if !ok {
				return
			}
			dispatched[e.Value.(int)]++
			f.Release(e.Flow)
		}
	}()
	var producers sync.WaitGroup
	for fl := 0; fl < 4; fl++ {
		producers.Add(1)
		go func(fl int) {
			defer producers.Done()
			for i := 0; i < perFlow; i++ {
				id := fl*perFlow + i
				e, err := f.Push(fl, 64, id)
				if err != nil {
					t.Errorf("push: %v", err)
					return
				}
				if i%3 == 0 {
					if f.Cancel(e) {
						cancelled[id]++
					}
				}
			}
		}(fl)
	}
	producers.Wait()
	f.Close()
	consumers.Wait()
	for id := range dispatched {
		if dispatched[id]+cancelled[id] != 1 {
			t.Fatalf("entry %d: dispatched %d times, cancelled %d times",
				id, dispatched[id], cancelled[id])
		}
	}
}

// TestYieldInterleavesFlows is the continuous-batching contract: two
// flows each representing a multi-step session, one entry per session
// yielded back after every step, must alternate strictly — neither
// session monopolizes the dispatcher between steps.
func TestYieldInterleavesFlows(t *testing.T) {
	f, _ := New(Config{Flows: 2, Depth: 4, Quantum: 64})
	a := mustPush(t, f, 0, 32, "a")
	b := mustPush(t, f, 1, 32, "b")
	_ = a
	_ = b
	stop := make(chan struct{})
	var order []string
	for step := 0; step < 8; step++ {
		e, ok := f.Next(stop)
		if !ok {
			t.Fatalf("step %d: queue stopped", step)
		}
		order = append(order, e.Value.(string))
		if !f.Yield(e, 32) {
			t.Fatalf("step %d: yield refused", step)
		}
		f.Release(e.Flow)
	}
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] {
			t.Fatalf("flow %q dispatched twice in a row: %v", order[i], order)
		}
	}
}

// TestYieldTailVsRequeueHead distinguishes Yield from Requeue inside
// one flow: Requeue undoes a dispatch (the entry returns to the head,
// ahead of work queued behind it), while Yield ends a completed step
// (the entry re-joins at the tail, behind it).
func TestYieldTailVsRequeueHead(t *testing.T) {
	f, _ := New(Config{Flows: 1, Depth: 4})
	mustPush(t, f, 0, 1, "session")
	mustPush(t, f, 0, 1, "later")
	stop := make(chan struct{})
	e, _ := f.Next(stop)
	if e.Value.(string) != "session" {
		t.Fatalf("first dispatch = %v", e.Value)
	}
	// Requeue: the same entry must come back before "later".
	f.Requeue(e)
	f.Release(0)
	e, _ = f.Next(stop)
	if e.Value.(string) != "session" {
		t.Fatalf("after requeue got %v, want session (head position)", e.Value)
	}
	// Yield: "later" must be served before the session's next step. The
	// next step's cost is re-charged as given.
	if !f.Yield(e, 7) {
		t.Fatal("yield refused")
	}
	f.Release(0)
	e2, _ := f.Next(stop)
	if e2.Value.(string) != "later" {
		t.Fatalf("after yield got %v, want later (tail position)", e2.Value)
	}
	f.Release(0)
	e3, _ := f.Next(stop)
	if e3 != e || e3.Cost != 7 {
		t.Fatalf("yielded entry came back as %v cost %d, want original at cost 7", e3.Value, e3.Cost)
	}
}

// TestYieldRefusals pins the edges: a queued (unclaimed) entry cannot
// yield, a cancelled one cannot, and yielding into a closed queue
// settles the entry as cancelled instead of stranding it.
func TestYieldRefusals(t *testing.T) {
	f, _ := New(Config{Flows: 1, Depth: 4})
	e := mustPush(t, f, 0, 1, "x")
	if f.Yield(e, 1) {
		t.Fatal("yield accepted a never-claimed entry")
	}
	stop := make(chan struct{})
	e, _ = f.Next(stop)
	f.Close()
	if f.Yield(e, 1) {
		t.Fatal("yield accepted into a closed queue")
	}
	if !e.Canceled() {
		t.Fatal("entry not settled as cancelled on closed-queue yield")
	}
	f.Release(0)
	if _, ok := f.Next(stop); ok {
		t.Fatal("cancelled yield leaked a dispatchable entry")
	}
}

// TestSteadyDispatchAllocatesNothing: a dispatcher that always finds
// work — claim, yield to the tail, release, claim again: a decode
// stream's loop — allocates nothing: no wake channel is swapped with
// nobody parked on it, and the yielded entry re-joins its flow in the
// slot it left. A waiter that does park is still woken by the next push.
func TestSteadyDispatchAllocatesNothing(t *testing.T) {
	f, err := New(Config{Flows: 2, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	mustPush(t, f, 0, 1, "stream")
	if got := testing.AllocsPerRun(100, func() {
		e, ok := f.Next(nil)
		if !ok || !f.Yield(e, 1) {
			t.Fatal("dispatch loop broke")
		}
		f.Release(e.Flow)
	}); got != 0 {
		t.Fatalf("a claim/yield/release round allocates %v objects, want 0", got)
	}

	e, _ := f.Next(nil) // flow 0 is now busy and flow 1 empty: the next Next parks
	got := make(chan *Entry)
	go func() {
		e, _ := f.Next(nil)
		got <- e
	}()
	for {
		f.mu.Lock()
		parked := f.parked
		f.mu.Unlock()
		if parked {
			break
		}
		runtime.Gosched()
	}
	pushed := mustPush(t, f, 1, 1, "late")
	if woken := <-got; woken != pushed {
		t.Fatalf("parked Next woke with %v, want the pushed entry", woken)
	}
	f.Release(e.Flow)
}
