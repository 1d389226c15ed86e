package sched

import (
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
