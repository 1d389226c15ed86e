package ccai

// The serving-scheduler semantics table (DESIGN.md §11): admission
// validation, cancel-before/while-queued, deadline expiry in the queue,
// fail-fast backpressure, weighted fairness under a two-tenant flood,
// drain-with-inflight and shutdown — each cell crossed with two fault-
// matrix seeds driving a SchedStall injector, because a mid-queue stall
// must be invisible to every one of these contracts. The scheduler's own
// fault classes (SchedStall, CancelRace) get their replayed matrix in
// TestSchedulerFaultMatrix, and TestSchedulerCancellationIntegrity is
// the acceptance gate: a seeded storm of cancellations must never
// poison a tenant's stream state.
//
// Quickstart: go test -race -run TestScheduler -v

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccai/internal/fault"
	"ccai/internal/obsv"
	"ccai/internal/xpu"
)

// schedTask builds a small XOR task whose output is byte-verifiable.
func schedTask(fill byte, n int) Task {
	return Task{Input: bytes.Repeat([]byte{fill}, n), Kernel: KernelXOR, Param: 0x5a}
}

func checkXOR(t *testing.T, in, out []byte) {
	t.Helper()
	if len(out) != len(in) {
		t.Fatalf("output %d bytes, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i]^0x5a {
			t.Fatalf("output byte %d corrupted", i)
		}
	}
}

// mustResult waits for a handle with a hang guard.
func mustResult(t *testing.T, h *Handle) ([]byte, error) {
	t.Helper()
	select {
	case <-h.Done():
		return h.Result()
	case <-time.After(10 * time.Second):
		t.Fatal("handle never completed")
		return nil, nil
	}
}

// newTestScheduler builds a scheduler with a SchedStall injector seeded
// from the fault matrix and a bounded-shutdown cleanup, so a failing
// cell can never hang the suite on an in-flight gate.
func newTestScheduler(t *testing.T, mp *MultiPlatform, cfg SchedulerConfig, seed uint64) *Scheduler {
	t.Helper()
	s, err := mp.NewScheduler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.SetFaultHook(fault.NewInjector(matrixEvent(fault.SchedStall, 0, seed)).SchedFault)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// TestSchedulerSemanticsTable is the scenario × seed grid described in
// the file header. Every scenario gets a fresh two-tenant chassis.
func TestSchedulerSemanticsTable(t *testing.T) {
	cells := []struct {
		name string
		run  func(t *testing.T, mp *MultiPlatform, seed uint64)
	}{
		{"cancel_before_admission", schedCellCancelBeforeAdmission},
		{"cancel_while_queued", schedCellCancelWhileQueued},
		{"deadline_while_queued", schedCellDeadlineWhileQueued},
		{"queue_full_backpressure", schedCellQueueFull},
		{"weighted_fairness_flood", schedCellWeightedFairness},
		{"drain_with_inflight", schedCellDrain},
		{"shutdown_cancels_queued", schedCellShutdown},
	}
	for _, c := range cells {
		for _, seed := range matrixSeeds[:2] {
			c, seed := c, seed
			t.Run(fmt.Sprintf("%s/seed=%#x", c.name, seed), func(t *testing.T) {
				c.run(t, servingPlatform(t, 2), seed)
			})
		}
	}
}

// A context that is already dead never reaches the queue: Submit
// rejects it with the context's own error, and the scheduler keeps
// serving afterwards.
func schedCellCancelBeforeAdmission(t *testing.T, mp *MultiPlatform, seed uint64) {
	s := newTestScheduler(t, mp, SchedulerConfig{}, seed)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Submit(ctx, TenantTask{Tenant: 0, Task: schedTask(1, 64)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled submit: err = %v, want context.Canceled", err)
	}
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer dcancel()
	if _, err := s.Submit(dctx, TenantTask{Tenant: 0, Task: schedTask(2, 64)}); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired-deadline submit: err = %v, want ErrDeadlineExceeded", err)
	}
	// Validation rejections stay typed too.
	if _, err := s.Submit(context.Background(), TenantTask{Tenant: 9, Task: schedTask(3, 64)}); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("bad tenant: err = %v, want ErrNoTenant", err)
	}
	if _, err := s.Submit(context.Background(), TenantTask{Tenant: 0}); !errors.Is(err, ErrEmptyInput) {
		t.Fatalf("empty input: err = %v, want ErrEmptyInput", err)
	}

	task := schedTask(4, 128)
	h, err := s.Submit(context.Background(), TenantTask{Tenant: 0, Task: task})
	if err != nil {
		t.Fatal(err)
	}
	out, err := mustResult(t, h)
	if err != nil {
		t.Fatal(err)
	}
	checkXOR(t, task.Input, out)
}

// A request canceled while queued completes with context.Canceled and
// provably never occupies an execution slot.
func schedCellCancelWhileQueued(t *testing.T, mp *MultiPlatform, seed uint64) {
	s := newTestScheduler(t, mp, SchedulerConfig{Slots: 1}, seed)
	entered := make(chan struct{})
	var enteredOnce sync.Once
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseOnce)
	var gateHits atomic.Int32
	s.execGate = func(int) {
		gateHits.Add(1)
		enteredOnce.Do(func() { close(entered) })
		<-release
	}

	task1 := schedTask(1, 128)
	h1, err := s.Submit(context.Background(), TenantTask{Tenant: 0, Task: task1})
	if err != nil {
		t.Fatal(err)
	}
	<-entered // h1 holds the only slot

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	h2, err := s.Submit(ctx2, TenantTask{Tenant: 0, Task: schedTask(2, 128)})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending() = %d, want 1", got)
	}
	cancel2()
	out2, err2 := mustResult(t, h2)
	if !errors.Is(err2, context.Canceled) {
		t.Fatalf("queued-cancel err = %v, want context.Canceled", err2)
	}
	if out2 != nil {
		t.Fatalf("canceled request returned %d bytes of output", len(out2))
	}
	if h2.QueueWait() != 0 {
		t.Fatal("canceled request reports a dispatch: it reached a slot")
	}

	releaseOnce()
	out1, err1 := mustResult(t, h1)
	if err1 != nil {
		t.Fatal(err1)
	}
	checkXOR(t, task1.Input, out1)
	if got := gateHits.Load(); got != 1 {
		t.Fatalf("execution slots used = %d, want 1 — the canceled request ran", got)
	}
}

// A deadline that expires in the queue behaves exactly like a cancel:
// ErrDeadlineExceeded, no slot ever occupied.
func schedCellDeadlineWhileQueued(t *testing.T, mp *MultiPlatform, seed uint64) {
	s := newTestScheduler(t, mp, SchedulerConfig{Slots: 1}, seed)
	entered := make(chan struct{})
	var enteredOnce sync.Once
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseOnce)
	s.execGate = func(int) {
		enteredOnce.Do(func() { close(entered) })
		<-release
	}

	task1 := schedTask(1, 128)
	h1, err := s.Submit(context.Background(), TenantTask{Tenant: 0, Task: task1})
	if err != nil {
		t.Fatal(err)
	}
	<-entered

	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel2()
	h2, err := s.Submit(ctx2, TenantTask{Tenant: 0, Task: schedTask(2, 128)})
	if err != nil {
		t.Fatal(err)
	}
	_, err2 := mustResult(t, h2)
	if !errors.Is(err2, ErrDeadlineExceeded) {
		t.Fatalf("queued-deadline err = %v, want ErrDeadlineExceeded", err2)
	}
	if h2.QueueWait() != 0 {
		t.Fatal("deadline-expired request reports a dispatch: it reached a slot")
	}

	releaseOnce()
	out1, err1 := mustResult(t, h1)
	if err1 != nil {
		t.Fatal(err1)
	}
	checkXOR(t, task1.Input, out1)
}

// Backpressure is fail-fast and per-tenant: a full queue rejects with
// ErrQueueFull immediately, a neighbor's queue is unaffected, and
// capacity frees as soon as the queue drains.
func schedCellQueueFull(t *testing.T, mp *MultiPlatform, seed uint64) {
	s := newTestScheduler(t, mp, SchedulerConfig{Slots: 1, QueueDepth: 1}, seed)
	entered := make(chan struct{})
	var enteredOnce sync.Once
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseOnce)
	s.execGate = func(int) {
		enteredOnce.Do(func() { close(entered) })
		<-release
	}

	task := schedTask(1, 128)
	h1, err := s.Submit(context.Background(), TenantTask{Tenant: 0, Task: task})
	if err != nil {
		t.Fatal(err)
	}
	<-entered // h1 dispatched; tenant 0's queue is empty again

	h2, err := s.Submit(context.Background(), TenantTask{Tenant: 0, Task: task})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), TenantTask{Tenant: 0, Task: task}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity submit: err = %v, want ErrQueueFull", err)
	}
	// The neighbor's bounded queue is its own.
	h4, err := s.Submit(context.Background(), TenantTask{Tenant: 1, Task: task})
	if err != nil {
		t.Fatalf("neighbor submit rejected by tenant 0's backpressure: %v", err)
	}

	releaseOnce()
	for _, h := range []*Handle{h1, h2, h4} {
		out, err := mustResult(t, h)
		if err != nil {
			t.Fatal(err)
		}
		checkXOR(t, task.Input, out)
	}
	// Capacity freed: admission works again.
	h5, err := s.Submit(context.Background(), TenantTask{Tenant: 0, Task: task})
	if err != nil {
		t.Fatal(err)
	}
	out, err := mustResult(t, h5)
	if err != nil {
		t.Fatal(err)
	}
	checkXOR(t, task.Input, out)
}

// Two tenants flood a single execution slot with equal-cost tasks at
// weights 1:3. The first 40 dispatches must give the light tenant the
// share sched.Fair's reference model predicts. The first claim takes
// tenant 0's first task, and what follows depends only on how much of
// the flood was queued by then: 13:27 when tenant 0 was alone, 9:31 when
// each tenant had one task queued, 12:28 when more was queued.
func schedCellWeightedFairness(t *testing.T, mp *MultiPlatform, seed uint64) {
	const per = 40
	s := newTestScheduler(t, mp, SchedulerConfig{
		Slots: 1, QueueDepth: per, Weights: []int{1, 3},
	}, seed)
	var mu sync.Mutex
	var order []int
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseOnce)
	s.execGate = func(tenant int) {
		mu.Lock()
		order = append(order, tenant)
		mu.Unlock()
		<-release // holds the slot until the whole flood is queued
	}

	task := schedTask(7, 512)
	var handles []*Handle
	for i := 0; i < per; i++ {
		for tn := 0; tn < 2; tn++ {
			h, err := s.Submit(context.Background(), TenantTask{Tenant: tn, Task: task})
			if err != nil {
				t.Fatalf("flood submit %d/tenant %d: %v", i, tn, err)
			}
			handles = append(handles, h)
		}
	}
	releaseOnce()
	for _, h := range handles {
		out, err := mustResult(t, h)
		if err != nil {
			t.Fatal(err)
		}
		checkXOR(t, task.Input, out)
	}

	mu.Lock()
	window := order[:per]
	mu.Unlock()
	var counts [2]int
	for _, tn := range window {
		counts[tn]++
	}
	t.Logf("first %d dispatches: tenant0=%d tenant1=%d", per, counts[0], counts[1])
	if light := counts[0]; light != 12 && light != 13 && light != 9 {
		t.Fatalf("light tenant got %d of the first %d dispatches, want 12 (or 13, or 9, by when the first claim came)", light, per)
	}
}

// Drain stops admission, finishes everything queued and in flight, and
// leaves every result intact.
func schedCellDrain(t *testing.T, mp *MultiPlatform, seed uint64) {
	s := newTestScheduler(t, mp, SchedulerConfig{Slots: 1}, seed)
	entered := make(chan struct{})
	var enteredOnce sync.Once
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseOnce)
	s.execGate = func(int) {
		enteredOnce.Do(func() { close(entered) })
		<-release
	}

	task := schedTask(3, 128)
	h1, err := s.Submit(context.Background(), TenantTask{Tenant: 0, Task: task})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	h2, err := s.Submit(context.Background(), TenantTask{Tenant: 0, Task: task})
	if err != nil {
		t.Fatal(err)
	}
	h3, err := s.Submit(context.Background(), TenantTask{Tenant: 1, Task: task})
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	for atomic.LoadInt32(&s.state) == schedRunning {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(context.Background(), TenantTask{Tenant: 0, Task: task}); !errors.Is(err, ErrSchedulerClosed) {
		t.Fatalf("submit during drain: err = %v, want ErrSchedulerClosed", err)
	}

	releaseOnce()
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, h := range []*Handle{h1, h2, h3} {
		out, err := mustResult(t, h)
		if err != nil {
			t.Fatal(err)
		}
		checkXOR(t, task.Input, out)
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after drain", got)
	}
}

// Shutdown cancels the queue (ErrSchedulerClosed) but still drains
// in-flight work to a correct result.
func schedCellShutdown(t *testing.T, mp *MultiPlatform, seed uint64) {
	s := newTestScheduler(t, mp, SchedulerConfig{Slots: 1}, seed)
	entered := make(chan struct{})
	var enteredOnce sync.Once
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseOnce)
	s.execGate = func(int) {
		enteredOnce.Do(func() { close(entered) })
		<-release
	}

	task := schedTask(5, 128)
	h1, err := s.Submit(context.Background(), TenantTask{Tenant: 0, Task: task})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	h2, err := s.Submit(context.Background(), TenantTask{Tenant: 0, Task: task})
	if err != nil {
		t.Fatal(err)
	}

	stopped := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		stopped <- s.Shutdown(ctx)
	}()
	// The queued request settles immediately, before in-flight drains.
	_, err2 := mustResult(t, h2)
	if !errors.Is(err2, ErrSchedulerClosed) {
		t.Fatalf("queued request at shutdown: err = %v, want ErrSchedulerClosed", err2)
	}

	releaseOnce()
	if err := <-stopped; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	out1, err1 := mustResult(t, h1)
	if err1 != nil {
		t.Fatalf("in-flight request at shutdown: %v", err1)
	}
	checkXOR(t, task.Input, out1)
}

// runSchedMatrixCell drives one scheduler fault class with one seed on
// a single-tenant chassis (one flow keeps the claim order — and thus
// the fault's opportunity sequence — fully deterministic), checks the
// class's contract, probes that the tenant's stream state survived, and
// returns the cell's outcome signature for the determinism check.
func runSchedMatrixCell(t *testing.T, class fault.Class, seed uint64) (string, uint64) {
	t.Helper()
	mp := servingPlatform(t, 1)
	s, err := mp.NewScheduler(SchedulerConfig{QueueDepth: 16, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(matrixEvent(class, 0, seed))
	s.SetFaultHook(inj.SchedFault)

	const reqs = 8
	tasks := make([]Task, reqs)
	handles := make([]*Handle, reqs)
	for i := range tasks {
		tasks[i] = schedTask(byte(i+1), 96+i*32)
		handles[i], err = s.Submit(context.Background(), TenantTask{Tenant: 0, Task: tasks[i]})
		if err != nil {
			t.Fatalf("submit %d under %v: %v", i, class, err)
		}
	}
	errBits := 0
	for i, h := range handles {
		out, rerr := mustResult(t, h)
		if rerr == nil {
			checkXOR(t, tasks[i].Input, out)
			continue
		}
		errBits |= 1 << i
		if class == fault.SchedStall {
			t.Fatalf("request %d failed under %v (stalls must be transparent): %v", i, class, rerr)
		}
		if !errors.Is(rerr, context.Canceled) {
			t.Fatalf("request %d under %v: err = %v, want context.Canceled", i, class, rerr)
		}
	}
	if class == fault.CancelRace && errBits == 0 && uint64(len(inj.Log())) > 0 {
		t.Fatalf("%v fired %d times but no request was canceled", class, uint64(len(inj.Log())))
	}

	// The episode is over: the scheduler and the tenant's stream state
	// must serve a fresh request byte-perfectly.
	s.SetFaultHook(nil)
	probe := schedTask(0x7e, 256)
	hp, err := s.Submit(context.Background(), TenantTask{Tenant: 0, Task: probe})
	if err != nil {
		t.Fatalf("post-episode probe rejected under %v: %v", class, err)
	}
	out, perr := mustResult(t, hp)
	if perr != nil {
		t.Fatalf("post-episode probe failed under %v — state poisoned: %v", class, perr)
	}
	checkXOR(t, probe.Input, out)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown under %v: %v", class, err)
	}
	return fmt.Sprintf("errs=%#x fired=%d log=%v", errBits, uint64(len(inj.Log())), inj.Log()), uint64(len(inj.Log()))
}

// TestSchedulerFaultMatrix crosses the scheduler-level fault classes
// with the matrix seeds, each cell replayed twice for determinism —
// the scheduler's wing of TestFaultMatrix.
func TestSchedulerFaultMatrix(t *testing.T) {
	firedByClass := make(map[fault.Class]uint64)
	for _, class := range []fault.Class{fault.SchedStall, fault.CancelRace} {
		for _, seed := range matrixSeeds {
			class, seed := class, seed
			t.Run(fmt.Sprintf("%v/seed=%#x", class, seed), func(t *testing.T) {
				sig1, fired := runSchedMatrixCell(t, class, seed)
				sig2, _ := runSchedMatrixCell(t, class, seed)
				if sig1 != sig2 {
					t.Fatalf("cell is nondeterministic:\n run1: %s\n run2: %s", sig1, sig2)
				}
				firedByClass[class] += fired
			})
		}
	}
	for class, n := range firedByClass {
		t.Logf("class %v fired %d times across seeds", class, n)
		if n == 0 {
			t.Fatalf("class %v never fired; its matrix rows are vacuous", class)
		}
	}
}

// TestSchedulerCancellationIntegrity is the acceptance gate from the
// issue: N requests with a seeded random subset canceled mid-flight
// (explicit cancels and short deadlines, landing before and during
// execution). Survivors must be byte-for-byte correct, every canceled
// request must fail with context.Canceled or ErrDeadlineExceeded, and
// afterwards both tenants must still serve perfectly — cancellation
// never corrupts IV or tag state.
func TestSchedulerCancellationIntegrity(t *testing.T) {
	mp := servingPlatform(t, 2)
	s, err := mp.NewScheduler(SchedulerConfig{QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	// Slow each execution slightly so queues build and short deadlines
	// genuinely expire mid-flight.
	s.execGate = func(int) { time.Sleep(500 * time.Microsecond) }

	const n = 60
	rng := rand.New(rand.NewSource(int64(matrixSeeds[0])))
	type req struct {
		task      Task
		h         *Handle
		cancelled bool // a cancel or deadline was armed
	}
	var reqs []req
	var cancels []context.CancelFunc
	earlyCanceled := 0
	for i := 0; i < n; i++ {
		task := schedTask(byte(i%251+1), 256+rng.Intn(2048))
		ctx := context.Background()
		armed := false
		var cancelAfter func() // arms the explicit cancel, once Submit has returned
		switch rng.Intn(3) {
		case 1: // explicit cancel at a random moment mid-storm
			cctx, cancel := context.WithCancel(ctx)
			ctx = cctx
			cancels = append(cancels, cancel)
			delay := time.Duration(rng.Intn(4)) * time.Millisecond
			// Armed after Submit: a zero delay must cancel the request
			// it was drawn for, not beat its admission.
			cancelAfter = func() { time.AfterFunc(delay, cancel) }
			armed = true
		case 2: // short deadline that may expire queued or executing
			dctx, cancel := context.WithTimeout(ctx, time.Duration(1+rng.Intn(4))*time.Millisecond)
			ctx = dctx
			cancels = append(cancels, cancel)
			armed = true
		}
		h, err := s.Submit(ctx, TenantTask{Tenant: i % 2, Task: task})
		if err != nil {
			// A deadline can still run out before admission on a loaded
			// box; that is a cancellation, just an early one.
			if armed && (errors.Is(err, context.Canceled) || errors.Is(err, ErrDeadlineExceeded)) {
				earlyCanceled++
				continue
			}
			t.Fatalf("submit %d: %v", i, err)
		}
		if cancelAfter != nil {
			cancelAfter()
		}
		reqs = append(reqs, req{task: task, h: h, cancelled: armed})
	}
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()

	survivors, canceled := 0, earlyCanceled
	for i, r := range reqs {
		out, err := mustResult(t, r.h)
		if err == nil {
			survivors++
			checkXOR(t, r.task.Input, out)
			continue
		}
		canceled++
		if !r.cancelled {
			t.Fatalf("request %d had no cancel armed but failed: %v", i, err)
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("request %d: err = %v, want context.Canceled or ErrDeadlineExceeded", i, err)
		}
		if out != nil {
			t.Fatalf("request %d canceled but returned %d output bytes", i, len(out))
		}
	}
	t.Logf("storm: %d survivors, %d canceled of %d", survivors, canceled, n)
	if survivors == 0 || canceled == 0 {
		t.Fatalf("storm vacuous: %d survivors, %d canceled — need both populations", survivors, canceled)
	}

	// Post-storm: every tenant's stream state must be pristine.
	s.execGate = nil
	for tn := 0; tn < 2; tn++ {
		probe := schedTask(0x33, 512)
		h, err := s.Submit(context.Background(), TenantTask{Tenant: tn, Task: probe})
		if err != nil {
			t.Fatalf("post-storm probe tenant %d: %v", tn, err)
		}
		out, err := mustResult(t, h)
		if err != nil {
			t.Fatalf("post-storm probe tenant %d failed — stream state poisoned: %v", tn, err)
		}
		checkXOR(t, probe.Input, out)
	}
}

// TestObserveOffNilHubErgonomics pins the documented observe-off
// contract for every public accessor: nil hubs chain safely, snapshots
// are zero, timelines return ErrObserveOff, and the whole serving path
// works without a hub.
func TestObserveOffNilHubErgonomics(t *testing.T) {
	p, err := New(WithXPU(xpu.A100), WithMode(Protected))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Observability() != nil {
		t.Fatal("Observability() non-nil without WithObserve")
	}
	// Chaining through the nil hub is a documented no-op, never a panic.
	sp := p.Observability().T().Begin(obsv.TrackTask, "probe", obsv.Str("k", "v"))
	sp.Attr(obsv.I64("n", 1))
	sp.End()
	p.Observability().T().Instant(obsv.TrackSched, "probe")
	p.Observability().Reg().Counter("probe").Inc()
	p.Observability().Reg().Gauge("probe").Set(7)
	snap := p.MetricsSnapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Hists) != 0 {
		t.Fatalf("observe-off snapshot not zero: %+v", snap)
	}
	if err := p.WriteTimeline(io.Discard); !errors.Is(err, ErrObserveOff) {
		t.Fatalf("WriteTimeline err = %v, want ErrObserveOff", err)
	}
	if err := p.EstablishTrust(); err != nil {
		t.Fatal(err)
	}
	task := schedTask(9, 128)
	out, err := p.RunTask(task)
	if err != nil {
		t.Fatal(err)
	}
	checkXOR(t, task.Input, out)

	mp, err := NewMultiPlatform([]xpu.Profile{xpu.A100})
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Close()
	if mp.Observability() != nil {
		t.Fatal("MultiPlatform Observability() non-nil without Observe")
	}
	mp.Observability().T().Instant(obsv.TrackSched, "probe")
	if snap := mp.MetricsSnapshot(); len(snap.Counters) != 0 {
		t.Fatalf("observe-off chassis snapshot not zero: %+v", snap)
	}
	if err := mp.WriteTimeline(io.Discard); !errors.Is(err, ErrObserveOff) {
		t.Fatalf("chassis WriteTimeline err = %v, want ErrObserveOff", err)
	}
	if err := mp.EstablishTrustAll(); err != nil {
		t.Fatal(err)
	}
	s, err := mp.NewScheduler(SchedulerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Submit(context.Background(), TenantTask{Tenant: 0, Task: task})
	if err != nil {
		t.Fatal(err)
	}
	out, err = mustResult(t, h)
	if err != nil {
		t.Fatal(err)
	}
	checkXOR(t, task.Input, out)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerObservability turns the hub on and asserts the serving
// metrics and spans the issue promises: admission and rejection
// counters, queue-depth gauge, queue-wait histogram, and the admit /
// queue_wait / execute span triple on the sched track.
func TestSchedulerObservability(t *testing.T) {
	mp, err := NewMultiPlatform([]xpu.Profile{xpu.A100, xpu.A100})
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Close()
	mp.Observe()
	if mp.Observability() == nil {
		t.Fatal("Observability() nil after Observe")
	}
	if err := mp.EstablishTrustAll(); err != nil {
		t.Fatal(err)
	}
	s, err := mp.NewScheduler(SchedulerConfig{Slots: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	var enteredOnce sync.Once
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseOnce)
	s.execGate = func(int) {
		enteredOnce.Do(func() { close(entered) })
		<-release
	}

	task := schedTask(2, 256)
	h1, err := s.Submit(context.Background(), TenantTask{Tenant: 0, Task: task})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	h2, err := s.Submit(context.Background(), TenantTask{Tenant: 0, Task: task})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), TenantTask{Tenant: 0, Task: task}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	cctx, ccancel := context.WithCancel(context.Background())
	h3, err := s.Submit(cctx, TenantTask{Tenant: 1, Task: task})
	if err != nil {
		t.Fatal(err)
	}
	ccancel()
	if _, err := mustResult(t, h3); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	releaseOnce()
	for _, h := range []*Handle{h1, h2} {
		if _, err := mustResult(t, h); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	snap := mp.MetricsSnapshot()
	for counter, min := range map[string]uint64{
		"sched.admitted{tenant=0}":               2,
		"sched.rejected{reason=queue_full}":      1,
		"sched.completed{tenant=0,status=ok}":    2,
		"sched.canceled{stage=queued}":           1,
		"sched.completed{tenant=1,status=error}": 1,
	} {
		if got := snap.Counters[counter]; got < min {
			t.Errorf("counter %s = %d, want >= %d (have %v)", counter, got, min, snap.Counters)
		}
	}
	if _, ok := snap.Gauges["sched.queue_depth{tenant=0}"]; !ok {
		t.Error("queue-depth gauge missing")
	}
	histSeen := false
	for _, hv := range snap.Hists {
		if hv.Name == "sched.queue_wait_ns{tenant=0}" && hv.Count >= 2 {
			histSeen = true
		}
	}
	if !histSeen {
		t.Error("queue-wait histogram missing or undersampled")
	}
	var buf bytes.Buffer
	if err := mp.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	for _, span := range []string{`"admit"`, `"queue_wait"`, `"execute"`, `"sched"`} {
		if !bytes.Contains(buf.Bytes(), []byte(span)) {
			t.Errorf("timeline missing %s", span)
		}
	}
}

// hookCtx is a cancellable context that owns its cancellation hooks: it
// implements the AfterFunc(func()) (stop func() bool) method
// context.AfterFunc defers to, so a test can count hooks registered
// against hooks still attached (neither stopped nor fired) without
// waiting on the garbage collector.
type hookCtx struct {
	mu         sync.Mutex
	done       chan struct{}
	err        error
	hooks      map[int]func()
	registered int
}

func newHookCtx() *hookCtx {
	return &hookCtx{done: make(chan struct{}), hooks: make(map[int]func())}
}

func (c *hookCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *hookCtx) Done() <-chan struct{}       { return c.done }
func (c *hookCtx) Value(any) any               { return nil }

func (c *hookCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *hookCtx) AfterFunc(f func()) (stop func() bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.registered
	c.registered++
	c.hooks[id] = f
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, pending := c.hooks[id]
		delete(c.hooks, id)
		return pending
	}
}

func (c *hookCtx) cancel() {
	c.mu.Lock()
	hooks := c.hooks
	c.hooks = make(map[int]func())
	c.err = context.Canceled
	close(c.done)
	c.mu.Unlock()
	for _, f := range hooks {
		go f()
	}
}

// counts reports hooks registered and hooks still attached.
func (c *hookCtx) counts() (registered, attached int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.registered, len(c.hooks)
}

// TestSchedulerDetachesCancellationHook pins that every request, however
// it ends — completed, cancelled in the queue, dropped by Shutdown —
// detaches the hook Submit hung on its context. A hook left attached
// keeps the request, its Handle, input and output reachable from a
// long-lived submit context until that context is cancelled.
func TestSchedulerDetachesCancellationHook(t *testing.T) {
	const n = 8
	mp := servingPlatform(t, 2)
	s, err := mp.NewScheduler(SchedulerConfig{Slots: 1, QueueDepth: n})
	if err != nil {
		t.Fatal(err)
	}
	// Tenant 1 is the blocker: its request parks in the only slot so
	// tenant 0's stay queued.
	entered, release := make(chan struct{}), make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseOnce)
	s.execGate = func(tenant int) {
		if tenant == 1 {
			close(entered)
			<-release
		}
	}
	submit := func(ctx context.Context) []*Handle {
		t.Helper()
		hs := make([]*Handle, n)
		for i := range hs {
			if hs[i], err = s.Submit(ctx, TenantTask{Tenant: 0, Task: schedTask(byte(i), 128)}); err != nil {
				t.Fatal(err)
			}
		}
		return hs
	}
	settle := func(stage string, ctx *hookCtx, hs []*Handle, want error) {
		t.Helper()
		for _, h := range hs {
			if _, err := mustResult(t, h); !errors.Is(err, want) {
				t.Fatalf("%s: err = %v, want %v", stage, err, want)
			}
		}
		if registered, attached := ctx.counts(); registered != n || attached != 0 {
			t.Fatalf("%s: %d hooks registered, %d still attached; want %d, 0", stage, registered, attached, n)
		}
	}

	completed := newHookCtx()
	settle("completed", completed, submit(completed), nil)

	blocker, err := s.Submit(context.Background(), TenantTask{Tenant: 1, Task: schedTask(9, 128)})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	canceled := newHookCtx()
	hs := submit(canceled)
	canceled.cancel()
	settle("queue-cancelled", canceled, hs, context.Canceled)

	dropped := newHookCtx()
	hs = submit(dropped)
	stopped := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		stopped <- s.Shutdown(ctx)
	}()
	settle("shutdown-dropped", dropped, hs, ErrSchedulerClosed)
	releaseOnce()
	if err := <-stopped; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := mustResult(t, blocker); err != nil {
		t.Fatalf("in-flight request at shutdown: %v", err)
	}
}
