package ccai

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ccai/internal/obsv"
	"ccai/internal/sched"
	"ccai/internal/telemetry"
)

// This file is the v2 serving frontend: a long-lived, admission-
// controlled scheduler over a MultiPlatform — what the paper's §9
// deployment needs: an always-on engine that admits requests one at a
// time under sustained load:
//
//   - Bounded per-tenant ingress queues with fail-fast backpressure:
//     Submit returns ErrQueueFull instead of buffering unboundedly.
//   - Weighted fair scheduling (deficit round-robin over bytes): a
//     flood from one tenant cannot starve another.
//   - Deadline/cancellation honored end-to-end: a request cancelled
//     while queued never occupies a pipeline slot; one cancelled in
//     flight drains safely through the Adaptor (the device run
//     completes, the result is discarded) so IV counters and tag
//     state are never left mid-protocol.
//   - Graceful Drain (stop admission, finish everything) and Shutdown
//     (stop admission, cancel the queue, finish what is in flight).
//
// Its Slots execution slots are resident workers (startWorkers,
// serving.go): goroutines that live as long as the scheduler and pull
// from the fair queue themselves.

// SchedulerConfig parameterizes a Scheduler. The zero value serves:
// 32-deep queues, equal weights, one execution slot per tenant.
type SchedulerConfig struct {
	// QueueDepth bounds each tenant's ingress queue (default 32).
	// Submissions beyond it fail fast with ErrQueueFull.
	QueueDepth int
	// Weights are per-tenant fair-share weights (default all 1): under
	// contention a tenant receives service proportional to its weight.
	Weights []int
	// Slots bounds concurrently executing requests across the chassis
	// (default: one per tenant). A tenant never uses more than one
	// slot at a time — its pipeline is serial.
	Slots int
}

// Scheduler lifecycle states.
const (
	schedRunning int32 = iota
	schedDraining
	schedClosed
)

// Handle is one submitted request's completion handle.
type Handle struct {
	// Tenant is the request's tenant index.
	Tenant int

	done chan struct{}
	once sync.Once
	out  []byte
	err  error
	wait atomic.Int64 // queue wait in wall ns, set at dispatch
}

// Done returns a channel closed when the request completes (with a
// result, an error, or a cancellation).
func (h *Handle) Done() <-chan struct{} { return h.done }

// Result blocks until the request completes and returns its outcome.
func (h *Handle) Result() ([]byte, error) {
	<-h.done
	return h.out, h.err
}

// Wait blocks until the request completes or ctx expires, returning
// the request's full TenantResult. The result's Err mirrors the second
// return so callers can either branch on err or carry the record. An
// expired ctx abandons the wait only — the request itself continues
// under the context it was submitted with — and yields a result whose
// Err is the ctx error.
func (h *Handle) Wait(ctx context.Context) (TenantResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-h.done:
		return TenantResult{Tenant: h.Tenant, Output: h.out, Err: h.err}, h.err
	case <-ctx.Done():
		err := ctxErr(ctx.Err())
		return TenantResult{Tenant: h.Tenant, Err: err}, err
	}
}

// QueueWait reports how long the request waited between admission and
// dispatch (zero until dispatched).
func (h *Handle) QueueWait() time.Duration { return time.Duration(h.wait.Load()) }

// request is the queue payload behind a Handle.
type request struct {
	ctx   context.Context
	task  Task
	h     *Handle
	enq   time.Time
	qspan obsv.ActiveSpan

	// stop detaches the queued-cancellation hook from ctx (nil for a ctx
	// that cannot be cancelled: there is no hook). It is set after Push
	// has made the request visible, so it and finished (set by finish)
	// share a lock: whichever of submit and finish comes second runs it.
	stopMu   sync.Mutex
	stop     func() bool
	finished bool
}

// The scheduler's span sites and attribute keys, resolved once.
var (
	siteAdmit     = obsv.NewSite(obsv.TrackSched, "admit")
	siteQueueWait = obsv.NewSite(obsv.TrackSched, "queue_wait")
	siteExecute   = obsv.NewSite(obsv.TrackSched, "execute")

	keyTenant = obsv.NewKey("tenant")
	keyBytes  = obsv.NewKey("bytes")
)

// schedObs holds the scheduler's metric handles, resolved once in
// NewScheduler (all nil with observability off, so the serving path
// builds no metric name per request).
type schedObs struct {
	canceledQueued, canceledClaim, canceledClaimed, canceledInflight *obsv.Counter
	faultStall, faultCancelRace                                      *obsv.Counter
	tenants                                                          []tenantObs
}

// tenantObs is one tenant's slice of schedObs.
type tenantObs struct {
	label                               obsv.Sym // the tenant's label as an attribute value
	admitted, completedOK, completedErr *obsv.Counter
	depth                               *obsv.Gauge
	wait                                *obsv.Histogram
}

func newSchedObs(reg *obsv.Registry, tenants int) schedObs {
	canceled := func(stage string) *obsv.Counter {
		return reg.Counter(obsv.Name("sched.canceled", "stage", stage))
	}
	o := schedObs{
		canceledQueued:   canceled("queued"),
		canceledClaim:    canceled("claim"),
		canceledClaimed:  canceled("claimed"),
		canceledInflight: canceled("inflight"),
		faultStall:       reg.Counter(obsv.Name("sched.faults", "class", "sched-stall")),
		faultCancelRace:  reg.Counter(obsv.Name("sched.faults", "class", "cancel-race")),
		tenants:          make([]tenantObs, tenants),
	}
	for i := range o.tenants {
		label := tenantLabel(i)
		// WaitBuckets (1 ms–10 s): real queue waits live in the
		// ms–100 ms range, far above what a pipeline stage takes.
		o.tenants[i] = tenantObs{
			label:        obsv.Intern(label),
			admitted:     reg.Counter(obsv.Name("sched.admitted", "tenant", label)),
			completedOK:  reg.Counter(obsv.Name("sched.completed", "tenant", label, "status", "ok")),
			completedErr: reg.Counter(obsv.Name("sched.completed", "tenant", label, "status", "error")),
			depth:        reg.Gauge(obsv.Name("sched.queue_depth", "tenant", label)),
			wait:         reg.Histogram(obsv.Name("sched.queue_wait_ns", "tenant", label), obsv.WaitBuckets()),
		}
	}
	return o
}

// Scheduler is the long-lived serving engine over a MultiPlatform.
// Construct with MultiPlatform.NewScheduler; all methods are safe for
// concurrent use.
type Scheduler struct {
	mp  *MultiPlatform
	q   *sched.Fair
	obs *obsv.Hub
	met schedObs

	mu       sync.Mutex
	state    int32
	stop     chan struct{}   // closed by Shutdown to release parked workers
	finished <-chan struct{} // closed when the last worker has returned

	faultHook atomic.Pointer[func(point string) bool]
	// execGate, when set (tests only, before first Submit), runs at the
	// top of every execution slot — the hook the semantics table uses
	// to hold a slot open deterministically.
	execGate func(tenant int)
}

// NewScheduler starts a serving scheduler over the chassis. Its Slots
// workers run until Drain or Shutdown completes.
func (mp *MultiPlatform) NewScheduler(cfg SchedulerConfig) (*Scheduler, error) {
	n := len(mp.Tenants)
	if n == 0 {
		return nil, fmt.Errorf("ccai: scheduler needs tenants: %w", ErrNoTenant)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 32
	}
	slots := cfg.Slots
	if slots <= 0 {
		slots = n
	}
	q, err := sched.New(sched.Config{
		Flows: n, Depth: cfg.QueueDepth, Weights: cfg.Weights,
	})
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		mp:   mp,
		q:    q,
		obs:  mp.Obs,
		met:  newSchedObs(mp.Obs.Reg(), n),
		stop: make(chan struct{}),
	}
	s.finished = startWorkers(slots, s, s.stop)
	return s, nil
}

// SetFaultHook installs the deterministic fault probe (see
// fault.Injector.SchedFault); nil clears it. Probed at every claim:
// SchedPointDequeue firing requeues the request (mid-queue stall),
// SchedPointCancel firing cancels it at the claim boundary.
func (s *Scheduler) SetFaultHook(fn func(point string) bool) {
	if fn == nil {
		s.faultHook.Store(nil)
		return
	}
	s.faultHook.Store(&fn)
}

func (s *Scheduler) probeFault(point string) bool {
	fn := s.faultHook.Load()
	return fn != nil && (*fn)(point)
}

func tenantLabel(i int) string { return strconv.Itoa(i) }

// Submit admits one request. It never blocks: the request is either
// queued (returning a Handle) or rejected immediately — ErrQueueFull
// when the tenant's queue is at capacity, ErrNoTenant for a bad index,
// ErrEmptyInput for an empty task, ErrSchedulerClosed after
// Drain/Shutdown, or the ctx's own error when it is already done.
// The returned Handle completes when the request finishes, fails, or
// is cancelled; errors.Is(err, context.Canceled) and
// errors.Is(err, ErrDeadlineExceeded) identify cancellations.
func (s *Scheduler) Submit(ctx context.Context, tt TenantTask) (*Handle, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	reg := s.obs.Reg()
	reject := func(reason string, err error) (*Handle, error) {
		reg.Counter(obsv.Name("sched.rejected", "reason", reason)).Inc()
		s.monitor().RecordOutcome(false, 0)
		return nil, err
	}
	if atomic.LoadInt32(&s.state) != schedRunning {
		return reject("closed", fmt.Errorf("ccai: submit: %w", ErrSchedulerClosed))
	}
	if tt.Tenant < 0 || tt.Tenant >= len(s.mp.Tenants) {
		return reject("no_tenant", fmt.Errorf("ccai: tenant %d of %d: %w",
			tt.Tenant, len(s.mp.Tenants), ErrNoTenant))
	}
	if len(tt.Task.Input) == 0 {
		return reject("empty", fmt.Errorf("ccai: tenant %d: %w", tt.Tenant, ErrEmptyInput))
	}
	if err := ctx.Err(); err != nil {
		return reject("ctx_done", ctxErr(err))
	}

	tr := s.obs.T()
	met := &s.met.tenants[tt.Tenant]
	sp := tr.Start(siteAdmit, keyTenant.Str(met.label), keyBytes.I64(int64(len(tt.Task.Input))))
	h := &Handle{Tenant: tt.Tenant, done: make(chan struct{})}
	r := &request{ctx: ctx, task: tt.Task, h: h, enq: time.Now()}
	// The queue_wait span opens before Push: once the entry is visible
	// to the workers, no field of r may be written again.
	r.qspan = tr.Start(siteQueueWait, keyTenant.Str(met.label))
	e, err := s.q.Push(tt.Tenant, int64(len(tt.Task.Input)), r)
	sp.End()
	if err != nil {
		r.qspan.End()
		switch {
		case errors.Is(err, sched.ErrQueueFull):
			return reject("queue_full", fmt.Errorf("ccai: tenant %d: %w", tt.Tenant, ErrQueueFull))
		case errors.Is(err, sched.ErrClosed):
			return reject("closed", fmt.Errorf("ccai: submit: %w", ErrSchedulerClosed))
		}
		return reject("invalid", err)
	}
	met.admitted.Inc()
	met.depth.Set(int64(s.q.Len(tt.Tenant)))

	if ctx.Done() == nil {
		return h, nil // nothing can cancel it: no hook to arm or detach
	}
	// Cancellation while queued: win the claim race and the request
	// completes here, never having occupied a pipeline slot.
	stop := context.AfterFunc(ctx, func() {
		if s.q.Cancel(e) {
			r.qspan.End()
			s.met.canceledQueued.Inc()
			met.depth.Set(int64(s.q.Len(e.Flow)))
			s.finish(r, nil, ctxErr(ctx.Err()))
		}
	})
	// finish detaches the hook, or else a long-lived ctx would keep every
	// completed request reachable from its child set. A request that
	// finished before the hook was recorded is detached here.
	r.stopMu.Lock()
	r.stop = stop
	finished := r.finished
	r.stopMu.Unlock()
	if finished {
		stop()
	}
	return h, nil
}

// monitor returns the chassis's rolling SLO monitor, nil when no
// telemetry plane is attached (every Monitor method no-ops on nil).
func (s *Scheduler) monitor() *telemetry.Monitor {
	if s.mp.Tel == nil {
		return nil
	}
	return s.mp.Tel.Monitor
}

// finish resolves the request's handle exactly once.
func (s *Scheduler) finish(r *request, out []byte, err error) {
	r.h.once.Do(func() {
		r.stopMu.Lock()
		r.finished = true
		stop := r.stop
		r.stopMu.Unlock()
		if stop != nil {
			stop()
		}
		r.h.out, r.h.err = out, err
		close(r.h.done)
		met := &s.met.tenants[r.h.Tenant]
		if err == nil {
			met.completedOK.Inc()
		} else {
			met.completedErr.Inc()
		}
		s.monitor().RecordOutcome(err == nil, r.h.wait.Load())
	})
}

// The scheduler as a workSource: a unit is a claimed queue entry, whose
// flow — the tenant — stays busy until the worker releases it, so the
// fair queue picks at the instant a worker frees up and a tenant never
// holds more than one of them. Workers leave when the queue is closed
// and drained (Drain) or stop is signalled (Shutdown).
func (s *Scheduler) next(stop <-chan struct{}) (*sched.Entry, bool) { return s.q.Next(stop) }

// stall is the mid-queue stall: the request goes back to the head of its
// tenant's queue with its fair-share deficit refunded.
func (s *Scheduler) stall(e *sched.Entry) {
	s.met.faultStall.Inc()
	s.q.Requeue(e)
	s.q.Release(e.Flow)
}

// cancelAtClaim settles a cancellation landing at the exact claim
// boundary as a queue-side one — the worker goes back for other work.
func (s *Scheduler) cancelAtClaim(e *sched.Entry) {
	r := e.Value.(*request)
	s.met.faultCancelRace.Inc()
	r.qspan.End()
	s.met.canceledClaim.Inc()
	s.finish(r, nil, ctxErr(context.Canceled))
	s.q.Release(e.Flow)
}

// run executes one claimed request on the calling worker.
func (s *Scheduler) run(e *sched.Entry) {
	defer s.q.Release(e.Flow)
	r := e.Value.(*request)
	met := &s.met.tenants[r.h.Tenant]
	wait := time.Since(r.enq)
	r.h.wait.Store(int64(wait))
	r.qspan.End()
	// The request runs under a task scope so its pipeline spans share a
	// task ID, and the wait sample carries that ID as its bucket's
	// exemplar — a p99 outlier on the scrape page links straight to the
	// timeline spans that produced it.
	tid := s.obs.T().StartTask()
	defer s.obs.T().EndTask()
	met.wait.ObserveExemplar(wait.Nanoseconds(), tid)
	met.depth.Set(int64(s.q.Len(r.h.Tenant)))

	if s.execGate != nil {
		s.execGate(r.h.Tenant)
	}
	// A request whose context died between claim and here still never
	// touches the pipeline.
	if err := r.ctx.Err(); err != nil {
		s.met.canceledClaimed.Inc()
		s.finish(r, nil, ctxErr(err))
		return
	}
	sp := s.obs.T().Start(siteExecute, keyTenant.Str(met.label), keyBytes.I64(int64(len(r.task.Input))))
	out, err := s.mp.Tenants[r.h.Tenant].RunTaskCtx(r.ctx, r.task)
	status := symOK
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled) || errors.Is(err, ErrDeadlineExceeded):
		status = symCanceled
		s.met.canceledInflight.Inc()
	default:
		status = symError
	}
	sp.Set(keyStatus.Str(status))
	sp.End()
	s.finish(r, out, err)
}

// Drain stops admission and waits for every queued and in-flight
// request to complete, bounded by ctx. The scheduler is finished
// afterwards — Submit keeps returning ErrSchedulerClosed.
func (s *Scheduler) Drain(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	if atomic.LoadInt32(&s.state) == schedRunning {
		atomic.StoreInt32(&s.state, schedDraining)
		s.q.Close()
	}
	s.mu.Unlock()
	select {
	case <-s.finished:
		return nil
	case <-ctx.Done():
		return ctxErr(ctx.Err())
	}
}

// Shutdown stops admission, cancels everything still queued (their
// handles complete with ErrSchedulerClosed), waits for in-flight
// requests to drain, and stops the workers — bounded by ctx.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	if atomic.LoadInt32(&s.state) != schedClosed {
		atomic.StoreInt32(&s.state, schedClosed)
		s.q.Close()
		for _, e := range s.q.DrainQueued() {
			r := e.Value.(*request)
			r.qspan.End()
			s.finish(r, nil, fmt.Errorf("ccai: request dropped: %w", ErrSchedulerClosed))
		}
		close(s.stop)
	}
	s.mu.Unlock()
	select {
	case <-s.finished:
		return nil
	case <-ctx.Done():
		return ctxErr(ctx.Err())
	}
}

// Pending reports requests admitted but not yet dispatched, across
// all tenants.
func (s *Scheduler) Pending() int { return s.q.Pending() }
