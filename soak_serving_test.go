package ccai

// Serving-plane companions to the internal/soak storm harness: the
// sustained-rekey contract (keys roll under live scheduled load with
// zero IV reuse and no service interruption) and the cancel-vs-Drain /
// cancel-vs-Shutdown races the soak's CancelRace class only brushes.
// The Concurrent tests ride the stress matrix (`make stress`) under the
// race detector with deterministic seeds.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ccai/internal/adaptor"
	"ccai/internal/core"
)

// TestSchedulerSustainedRekeyUnderLoad rolls every tenant's h2d key
// repeatedly while a live Scheduler is moving traffic: each round parks
// the stream counters a few seals short of the proactive threshold, so
// MaybeRekey must rotate mid-round. The bar: every output byte-exact,
// zero IV reuse across all rolls, epochs actually advanced, and the
// scheduler still admitting — a rekey must never drain the queue.
func TestSchedulerSustainedRekeyUnderLoad(t *testing.T) {
	mp := servingPlatform(t, 2)
	aud := newIVAuditor()
	for _, tn := range mp.Tenants {
		for _, stream := range []string{core.StreamH2D, core.StreamConfig} {
			if err := tn.Adaptor.AuditIVs(stream, aud.hook(fmt.Sprintf("t%d/%s", tn.Index, stream))); err != nil {
				t.Fatal(err)
			}
		}
		d2h, err := tn.SC.Params().Stream(core.StreamD2H)
		if err != nil {
			t.Fatal(err)
		}
		d2h.SetIVAudit(aud.hook(fmt.Sprintf("t%d/%s", tn.Index, core.StreamD2H)))
	}
	s, err := mp.NewScheduler(SchedulerConfig{QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	const rounds, perTenant = 5, 8
	for round := 0; round < rounds; round++ {
		for _, tn := range mp.Tenants {
			if err := tn.Adaptor.ForceStreamCounter(core.StreamH2D, ^uint32(0)-adaptor.RekeyThreshold-4); err != nil {
				t.Fatalf("round %d: force counter: %v", round, err)
			}
		}
		var handles []*Handle
		var inputs []Task
		for i := 0; i < perTenant; i++ {
			for tn := range mp.Tenants {
				task := schedTask(byte(round*16+i+1), 2048)
				h, err := s.Submit(context.Background(), TenantTask{Tenant: tn, Task: task})
				if err != nil {
					t.Fatalf("round %d: submit under rekey pressure: %v", round, err)
				}
				handles = append(handles, h)
				inputs = append(inputs, task)
			}
		}
		for i, h := range handles {
			out, err := mustResult(t, h)
			if err != nil {
				t.Fatalf("round %d task %d failed across a rekey: %v", round, i, err)
			}
			checkXOR(t, inputs[i].Input, out)
		}
	}

	if r := aud.reuses(); len(r) != 0 {
		t.Fatalf("IV reuse across %d rekey rounds: %v", rounds, r)
	}
	for _, tn := range mp.Tenants {
		stream := fmt.Sprintf("t%d/%s", tn.Index, core.StreamH2D)
		if got := uint32(aud.lastIV(stream) >> 32); got < rounds {
			t.Errorf("%s epoch = %d, want >= %d (one roll per pressured round)", stream, got, rounds)
		}
	}
	// The queue survived every roll: the scheduler is still admitting
	// and serving, not drained or closed.
	task := schedTask(0x77, 512)
	h, err := s.Submit(context.Background(), TenantTask{Tenant: 0, Task: task})
	if err != nil {
		t.Fatalf("scheduler stopped admitting after rekeys: %v", err)
	}
	out, err := mustResult(t, h)
	if err != nil {
		t.Fatal(err)
	}
	checkXOR(t, task.Input, out)
}

// gatedScheduler builds a scheduler whose execute path blocks on a
// gate, reporting each claim on entered — the instrument the race
// tests use to hold requests at the claim boundary deterministically.
func gatedScheduler(t *testing.T, mp *MultiPlatform, depth int) (*Scheduler, chan struct{}, chan struct{}) {
	t.Helper()
	s, err := mp.NewScheduler(SchedulerConfig{QueueDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	entered := make(chan struct{}, 64)
	s.execGate = func(int) {
		entered <- struct{}{}
		<-gate
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, gate, entered
}

// submitStorm admits n cancellable requests across the chassis and
// returns their handles, cancels, and inputs.
func submitStorm(t *testing.T, s *Scheduler, mp *MultiPlatform, n int) ([]*Handle, []context.CancelFunc, []Task) {
	t.Helper()
	handles := make([]*Handle, n)
	cancels := make([]context.CancelFunc, n)
	tasks := make([]Task, n)
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		tasks[i] = schedTask(byte(i+1), 1024)
		h, err := s.Submit(ctx, TenantTask{Tenant: i % len(mp.Tenants), Task: tasks[i]})
		if err != nil {
			t.Fatal(err)
		}
		handles[i], cancels[i] = h, cancel
	}
	return handles, cancels, tasks
}

// settleStorm resolves every handle after the race and enforces the
// shared invariants: a request cancelled while still queued must show a
// zero QueueWait — winning the cancel race means never having claimed a
// slot — and every request that did run must return byte-exact output.
func settleStorm(t *testing.T, handles []*Handle, tasks []Task, closedOK bool) (completed, canceledQueued, closedOut int) {
	t.Helper()
	for i, h := range handles {
		out, err := mustResult(t, h)
		switch {
		case err == nil:
			checkXOR(t, tasks[i].Input, out)
			completed++
			if h.QueueWait() <= 0 {
				t.Errorf("request %d completed without a recorded queue wait", i)
			}
		case errors.Is(err, context.Canceled) || errors.Is(err, ErrDeadlineExceeded):
			if h.QueueWait() == 0 {
				canceledQueued++
			}
		case closedOK && errors.Is(err, ErrSchedulerClosed):
			closedOut++
			if h.QueueWait() != 0 {
				t.Errorf("request %d: closed-out while queued but QueueWait = %v", i, h.QueueWait())
			}
		default:
			t.Errorf("request %d: unexpected error %v", i, err)
		}
	}
	return completed, canceledQueued, closedOut
}

// TestSchedulerConcurrentCancelVsDrain races a seeded burst of queued
// cancellations against Drain: the drain must retire every request
// exactly once — run or cancelled, never both, never hung — and a
// cancellation that wins while queued must never claim a slot after
// the drain began.
func TestSchedulerConcurrentCancelVsDrain(t *testing.T) {
	for _, seed := range matrixSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			mp := servingPlatform(t, 2)
			const storm = 24
			s, gate, entered := gatedScheduler(t, mp, storm)
			handles, cancels, tasks := submitStorm(t, s, mp, storm)

			// Two slots (one per tenant) are claimed and gated; the rest of
			// the storm is still queued when the race starts.
			<-entered
			<-entered

			rng := rand.New(rand.NewSource(int64(seed)))
			delays := make([]time.Duration, storm)
			picks := make([]bool, storm)
			for i := range delays {
				delays[i] = time.Duration(rng.Intn(300)) * time.Microsecond
				picks[i] = rng.Intn(2) == 0
			}

			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range handles {
					if picks[i] {
						time.Sleep(delays[i])
						cancels[i]()
					}
				}
			}()
			drainErr := make(chan error, 1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				drainErr <- s.Drain(ctx)
			}()
			close(gate) // let claimed and surviving-queued requests flow
			wg.Wait()
			if err := <-drainErr; err != nil {
				t.Fatalf("drain under cancel storm: %v", err)
			}

			completed, canceledQueued, _ := settleStorm(t, handles, tasks, false)
			if completed+canceledQueued > storm {
				t.Fatalf("request retired twice: %d completed + %d queue-cancelled > %d submitted",
					completed, canceledQueued, storm)
			}
			if completed == 0 {
				t.Fatal("drain completed nothing — the race test was vacuous")
			}
			if s.Pending() != 0 {
				t.Fatalf("drain returned with %d requests still pending", s.Pending())
			}
			if _, err := s.Submit(context.Background(), TenantTask{Tenant: 0, Task: schedTask(9, 64)}); !errors.Is(err, ErrSchedulerClosed) {
				t.Fatalf("post-drain submit: err = %v, want ErrSchedulerClosed", err)
			}
		})
	}
}

// TestSchedulerConcurrentCancelVsShutdown is the same race against
// Shutdown, whose contract differs: still-queued survivors are closed
// out with ErrSchedulerClosed rather than run. The invariants stand —
// every handle resolves exactly once, queue-side losers never show a
// dispatch, and the in-flight gated requests drain to completion.
func TestSchedulerConcurrentCancelVsShutdown(t *testing.T) {
	for _, seed := range matrixSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			mp := servingPlatform(t, 2)
			const storm = 24
			s, gate, entered := gatedScheduler(t, mp, storm)
			handles, cancels, tasks := submitStorm(t, s, mp, storm)

			<-entered
			<-entered

			rng := rand.New(rand.NewSource(int64(seed) ^ 0x5d))
			delays := make([]time.Duration, storm)
			picks := make([]bool, storm)
			for i := range delays {
				delays[i] = time.Duration(rng.Intn(300)) * time.Microsecond
				picks[i] = rng.Intn(2) == 0
			}

			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < storm; i++ {
					if picks[i] {
						time.Sleep(delays[i])
						cancels[i]()
					}
				}
			}()
			shutErr := make(chan error, 1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				shutErr <- s.Shutdown(ctx)
			}()
			// Hold the gate until the state flip is observable (admission
			// rejects with ErrSchedulerClosed): both slots stay occupied, so
			// nothing queued can be claimed while the shutdown races the
			// cancel storm. Probes admitted before the flip join the storm
			// and must be closed out like any other queued request.
			probeTask := schedTask(0xee, 64)
			for {
				h, err := s.Submit(context.Background(), TenantTask{Tenant: 0, Task: probeTask})
				if err == nil {
					handles = append(handles, h)
					tasks = append(tasks, probeTask)
					time.Sleep(20 * time.Microsecond)
					continue
				}
				if errors.Is(err, ErrSchedulerClosed) {
					break
				}
				if errors.Is(err, ErrQueueFull) {
					time.Sleep(20 * time.Microsecond)
					continue
				}
				t.Fatalf("probe submit during shutdown race: %v", err)
			}
			close(gate)
			wg.Wait()
			if err := <-shutErr; err != nil {
				t.Fatalf("shutdown under cancel storm: %v", err)
			}

			completed, _, closedOut := settleStorm(t, handles, tasks, true)
			if completed > len(mp.Tenants) {
				// Only the two slot-holding requests were ever claimable; the
				// queued bulk must be cancelled or closed out, not executed.
				t.Fatalf("shutdown executed %d requests — queued work leaked past the state flip", completed)
			}
			if closedOut == 0 {
				t.Fatal("no request was closed out by shutdown — the race test was vacuous")
			}
			if s.Pending() != 0 {
				t.Fatalf("shutdown returned with %d requests still pending", s.Pending())
			}
		})
	}
}
