package ccai

// The scheduler's execution slots are resident workers (startWorkers,
// serving.go). These tests pin what that buys and what it must not
// cost: a request never gets a goroutine of its own, the workers are
// gone — all of them — once Drain or Shutdown has returned, and a
// Submit storm racing either one loses no handle and settles none twice.

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goroutineID is the calling goroutine's id, read off the first line of
// its stack trace ("goroutine 42 [running]:").
func goroutineID() string {
	var buf [64]byte
	line := buf[:runtime.Stack(buf[:], false)]
	line = bytes.TrimPrefix(line, []byte("goroutine "))
	if i := bytes.IndexByte(line, ' '); i >= 0 {
		line = line[:i]
	}
	return string(line)
}

// goroutinesSettleTo waits for the process's goroutine count to come
// back down to base: a worker that has closed the scheduler's finished
// channel is still a few instructions from gone.
func goroutinesSettleTo(t *testing.T, base int, when string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, %d before NewScheduler — workers leaked:\n%s",
				when, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSchedulerWorkersResident: 1,000 requests run on at most Slots
// goroutines (one each at the parent of this change), and those
// goroutines end with the scheduler — after Drain, and after Shutdown
// with one request held in flight and others queued behind it.
func TestSchedulerWorkersResident(t *testing.T) {
	const slots, rounds = 2, 500
	mp := servingPlatform(t, 2)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	s, err := mp.NewScheduler(SchedulerConfig{Slots: slots})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	ids := map[string]int{}
	s.execGate = func(int) {
		id := goroutineID()
		mu.Lock()
		ids[id]++
		mu.Unlock()
	}
	task := schedTask(7, 256)
	for i := 0; i < rounds; i++ { // one request per tenant, so both workers have work
		var hs [2]*Handle
		for tn := range hs {
			if hs[tn], err = s.Submit(ctx, TenantTask{Tenant: tn, Task: task}); err != nil {
				t.Fatal(err)
			}
		}
		for _, h := range hs {
			out, err := mustResult(t, h)
			if err != nil {
				t.Fatal(err)
			}
			checkXOR(t, task.Input, out)
		}
	}
	mu.Lock()
	ran := 0
	for _, n := range ids {
		ran += n
	}
	if ran != 2*rounds || len(ids) == 0 || len(ids) > slots {
		t.Fatalf("%d requests ran on %d distinct goroutines; want %d on at most %d (Slots)", ran, len(ids), 2*rounds, slots)
	}
	t.Logf("%d requests ran on %d goroutines: %v", ran, len(ids), ids)
	mu.Unlock()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	goroutinesSettleTo(t, base, "after Drain")

	// Shutdown with tenant 0's request held at the gate by the only
	// worker and three more queued behind it.
	s, err = mp.NewScheduler(SchedulerConfig{Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()
	s.execGate = func(int) {
		close(entered) // one request reaches the gate: the rest are dropped
		<-release
	}
	held, err := s.Submit(ctx, TenantTask{Tenant: 0, Task: task})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	var queued []*Handle
	for i := 0; i < 3; i++ {
		h, err := s.Submit(ctx, TenantTask{Tenant: i % 2, Task: task})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, h)
	}
	short, cancelShort := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancelShort()
	if err := s.Shutdown(short); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("Shutdown with a request held in flight: err = %v, want ErrDeadlineExceeded", err)
	}
	for i, h := range queued {
		if _, err := mustResult(t, h); !errors.Is(err, ErrSchedulerClosed) {
			t.Fatalf("queued request %d: err = %v, want ErrSchedulerClosed", i, err)
		}
	}
	releaseOnce()
	out, err := mustResult(t, held)
	if err != nil {
		t.Fatalf("in-flight request across Shutdown: %v", err)
	}
	checkXOR(t, task.Input, out)
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	goroutinesSettleTo(t, base, "after Shutdown")
}

// TestSchedulerSubmitStormRacesClose: four goroutines Submit as fast as
// they can while the scheduler is Drained, or Shut down, under them.
// Every Submit either fails with ErrSchedulerClosed or ErrQueueFull or
// hands back a handle that completes — with the right bytes, or (Shutdown
// only) ErrSchedulerClosed; the number of requests that ran is exactly
// the number of results, so none ran twice and none was lost.
func TestSchedulerSubmitStormRacesClose(t *testing.T) {
	closers := map[string]func(*Scheduler, context.Context) error{
		"drain":    (*Scheduler).Drain,
		"shutdown": (*Scheduler).Shutdown,
	}
	for name, closeSched := range closers {
		t.Run(name, func(t *testing.T) {
			const submitters, perSubmitter = 4, 150
			mp := servingPlatform(t, 2)
			s, err := mp.NewScheduler(SchedulerConfig{QueueDepth: 16})
			if err != nil {
				t.Fatal(err)
			}
			var ran atomic.Int64
			s.execGate = func(int) { ran.Add(1) }
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()

			task := schedTask(9, 300)
			handles := make([][]*Handle, submitters)
			var admitted atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < submitters; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perSubmitter; i++ {
						h, err := s.Submit(ctx, TenantTask{Tenant: (g + i) % 2, Task: task})
						switch {
						case err == nil:
							handles[g] = append(handles[g], h)
							admitted.Add(1)
						case errors.Is(err, ErrQueueFull):
							runtime.Gosched()
						case errors.Is(err, ErrSchedulerClosed):
							return
						default:
							t.Errorf("submitter %d: %v", g, err)
							return
						}
					}
				}(g)
			}
			for admitted.Load() < 40 && ctx.Err() == nil { // close mid-storm, not before it
				runtime.Gosched()
			}
			if err := closeSched(s, ctx); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			wg.Wait()

			results, dropped := 0, 0
			for g := range handles {
				for i, h := range handles[g] {
					select {
					case <-h.Done():
					default:
						t.Fatalf("submitter %d handle %d still open after %s returned", g, i, name)
					}
					out, err := h.Result()
					switch {
					case err == nil:
						results++
						checkXOR(t, task.Input, out)
					case errors.Is(err, ErrSchedulerClosed) && name == "shutdown":
						dropped++
					default:
						t.Fatalf("submitter %d handle %d: %v", g, i, err)
					}
				}
			}
			t.Logf("%s: %d admitted, %d results, %d dropped, %d ran", name, admitted.Load(), results, dropped, ran.Load())
			if int64(results+dropped) != admitted.Load() || ran.Load() != int64(results) {
				t.Fatalf("%d admitted = %d results + %d dropped? %d ran", admitted.Load(), results, dropped, ran.Load())
			}
			if _, err := s.Submit(ctx, TenantTask{Tenant: 0, Task: task}); !errors.Is(err, ErrSchedulerClosed) {
				t.Fatalf("Submit after %s: err = %v, want ErrSchedulerClosed", name, err)
			}
		})
	}
}
