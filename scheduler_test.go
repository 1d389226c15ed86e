package ccai

// The serving scheduler's cells that test races, counters and hooks
// rather than outcomes. Its semantics — admission validation,
// cancellation and deadlines in the queue, backpressure, drain,
// shutdown, the SchedStall and CancelRace fault classes and a seeded
// cancellation storm — are saved scripts of the serving model
// (serving_model_test.go, testdata/fuzz/FuzzServingPlatform). What
// stays here: the weighted-fairness flood, whose two-tenant flood races
// its first claim (`make stress` runs it twenty times under -race), the
// observability cells and the cancellation-hook detach check.
//
// Quickstart: go test -race -run TestScheduler -v

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
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

// TestSchedulerSemanticsTable is the scheduler's semantics, each cell
// at two fault-matrix seeds driving a SchedStall injector, because a
// mid-queue stall must be invisible to every one of these contracts.
// Every cell but the flood plays its saved script of the serving model,
// <cell>-<seed>, whose plan must be the seed's SchedStall plan:
// admission validation, cancel and deadline while queued (never
// reaching the slot), fail-fast backpressure per tenant, drain with a
// request in flight, shutdown dropping the queue.
func TestSchedulerSemanticsTable(t *testing.T) {
	for _, cell := range []string{"cancel-before-admission", "cancel-while-queued", "deadline-while-queued",
		"queue-full-backpressure", "weighted-fairness-flood", "drain-with-inflight", "shutdown-cancels-queued"} {
		for _, seed := range matrixSeeds[:2] {
			t.Run(fmt.Sprintf("%s/seed=%#x", strings.ReplaceAll(cell, "-", "_"), seed), func(t *testing.T) {
				if cell == "weighted-fairness-flood" {
					schedFlood(t, servingPlatform(t, 2), seed)
					return
				}
				playServingCell(t, fmt.Sprintf("%s-%#x", cell, seed), fault.SchedStall, seed)
			})
		}
	}
}

// playServingCell plays the saved script name, whose fault plan must be
// the matrix cell's of class at seed, and returns its model.
func playServingCell(t *testing.T, name string, class fault.Class, seed uint64) *servingModel {
	t.Helper()
	data := savedInput(t, "FuzzServingPlatform", name)
	if _, plan, _ := decodeTrace(data, servingOpCodes); !cellPlan(plan, class, seed) {
		t.Fatalf("%s: the script's fault plan is not the cell's: %+v", name, plan)
	}
	return runServing(t, data)
}

// TestSchedulerFaultMatrix crosses the scheduler's fault classes with
// the matrix seeds: eight requests on one tenant under the class's plan,
// then a probe, each a saved script matrix-<class>-<seed> whose plan
// must be the cell's. A stall is invisible; a cancel race settles its
// request cancelled, never run. The model copies the plan, so a plan
// that never fires would pass unexercised: every class must fire on
// some seed, and a cancel race that fired must have cancelled a request.
// The model names the dispatch order and every outcome exactly, so a
// second run of a cell would check nothing the first does not.
func TestSchedulerFaultMatrix(t *testing.T) {
	for _, class := range []fault.Class{fault.SchedStall, fault.CancelRace} {
		fired := 0
		for _, seed := range matrixSeeds {
			t.Run(fmt.Sprintf("%v/seed=%#x", class, seed), func(t *testing.T) {
				m := playServingCell(t, fmt.Sprintf("matrix-%v-%#x", class, seed), class, seed)
				n := len(m.inj.Log())
				fired += n
				if class == fault.CancelRace && n > 0 && m.count(func(req *blobReq, err error) bool { return errors.Is(err, context.Canceled) }) == 0 {
					t.Fatalf("the cancel race fired %d times and cancelled no request", n)
				}
			})
		}
		if fired == 0 {
			t.Errorf("%v never fired on any seed; its matrix rows are vacuous", class)
		}
	}
}

// TestSchedulerCancellationIntegrity: a seeded storm of cancels and
// deadlines on both tenants, landing while queued and at the slot, then
// a probe on each tenant (the saved script cancellation-storm). The storm
// must hold all three populations: requests that ran to their bytes,
// requests cancelled while queued and requests cancelled at the slot.
func TestSchedulerCancellationIntegrity(t *testing.T) {
	m := playServing(t, "cancellation-storm")
	ended := func(err error) bool { return errors.Is(err, context.Canceled) || errors.Is(err, ErrDeadlineExceeded) }
	exact := m.count(func(req *blobReq, err error) bool { return err == nil })
	queued := m.count(func(req *blobReq, err error) bool { return ended(err) && !req.ran })
	atSlot := m.count(func(req *blobReq, err error) bool { return ended(err) && req.ran })
	if exact == 0 || queued == 0 || atSlot == 0 {
		t.Fatalf("storm vacuous: %d exact, %d cancelled queued, %d at the slot — need all three", exact, queued, atSlot)
	}
}

// schedFlood: two tenants flood a single execution slot with equal-cost
// tasks at weights 1:3. The first 40 dispatches must give the light tenant the
// share sched.Fair's reference model predicts. The first claim takes
// tenant 0's first task, and what follows depends only on how much of
// the flood was queued by then: 13:27 when tenant 0 was alone, 9:31 when
// each tenant had one task queued, 12:28 when more was queued.
func schedFlood(t *testing.T, mp *MultiPlatform, seed uint64) {
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
