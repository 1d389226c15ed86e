package ccai

// One model of the platform's serving half, run in lockstep with a
// two-tenant chassis: the blob Scheduler — admission, its fair queue,
// deadlines and cancellation, drain and shutdown — over both tenants,
// and tenant 0's inference sessions, which the protocol model
// (protocol_model_test.go) drives and predicts. The Scheduler has one
// slot, which a gate holds at the top of every run, so dispatch is in
// the order the model's queue names; the inference worker is the
// protocol model's, behind its step gate. After every op the harness
// holds each handle to its bytes or its sentinel, the dispatch order and
// the pending count to the model, tenant 0's slice to the protocol
// model, and the chassis to its hygiene check whenever an op leaves
// no session open. The scheduler and session cells the model subsumes are saved
// scripts in testdata/fuzz/FuzzServingPlatform: go test plays each as a
// subtest FuzzServingPlatform/<name>, and the fuzzer explores from them.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccai/internal/fault"
	"ccai/internal/llm"
	"ccai/internal/sched"
	"ccai/internal/xpu"
)

// servingOpCodes are the ops a serving script plays: the scheduler's and
// the refusals below, and the protocol model's session ops.
const servingOpCodes = "ufXgdZCOopswqe"

// The scripts' scheduler: one slot, queues servingDepth deep, tenants
// weighted 1:3.
const servingDepth = 8

var servingWeights = []int{1, 3}

// blobReq is one admitted request as the model sees it.
type blobReq struct {
	tenant int
	tk     Task
	h      *Handle
	e      *sched.Entry // its entry in the model's queue
	// cancel ends its context, which then reports cause; nil when
	// nothing can. done says it was called.
	cancel context.CancelFunc
	cause  error
	done   bool
	// settled says the model has its handle completed, with want — nil
	// for the task's bytes; ran that it reached the slot's run.
	settled, ran bool
	want         error
}

// deadlineCtx is a context whose deadline passes when the script says:
// once its inner context is cancelled it reports DeadlineExceeded.
type deadlineCtx struct{ context.Context }

func (c deadlineCtx) Err() error {
	if c.Context.Err() != nil {
		return context.DeadlineExceeded
	}
	return nil
}

// servingModel is the blob Scheduler in lockstep with its model: a
// sched.Fair of the same shape (held to its own model by
// FuzzServingQueue) and a copy of the scheduler's fault plan, claimed
// and probed as the slot's worker claims and probes.
type servingModel struct {
	r       *traceRun
	s       *Scheduler
	q       *sched.Fair
	inj     *fault.Injector
	gate    *workerGate
	hygiene func()
	reqs    []*blobReq
	held    *blobReq // the request the gate holds
	order   []int    // the tenants the model dispatched, in order
	closed  bool     // Drain or Shutdown called
	waits   []chan error

	mu         sync.Mutex
	dispatched []int // the tenants that reached the gate, in order
}

// traceKV is the KV a session of traceSessions reserves; the scripts'
// engine budget holds two of them and a little room for small sessions.
var traceKV = traceSessions[0].KVBytes(traceSessions[0].MaxPromptTokens)

const smallKVRoom = 8 << 10

// runServing plays a serving script on a fresh two-tenant chassis and
// returns the model it was held to.
func runServing(t *testing.T, data []byte) *servingModel {
	ops, plan, ok := decodeTrace(data, servingOpCodes)
	if !ok {
		t.Fatal("the script's fault plan does not decode")
	}
	mp, err := NewMultiPlatform([]xpu.Profile{xpu.A100, xpu.A100},
		WithLLMEngine(llm.EngineConfig{Workers: 1, KVBudget: 2*traceKV + smallKVRoom}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mp.Close)
	if err := mp.EstablishTrustAll(); err != nil {
		t.Fatal(err)
	}
	m := &servingModel{hygiene: chassisHygiene(t, mp), inj: fault.NewInjector(plan)}
	// Only the scheduler's classes fire here: the slice faults are the
	// protocol traces' to play.
	m.r = newTraceRun(t, mp, fault.Plan{}, nil)
	if m.s, err = mp.NewScheduler(SchedulerConfig{QueueDepth: servingDepth, Weights: servingWeights, Slots: 1}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = m.s.Shutdown(ctx)
	})
	m.s.SetFaultHook(fault.NewInjector(plan).SchedFault)
	m.gate = newWorkerGate(t) // opens before the shutdown above runs
	m.s.execGate = func(tenant int) {
		m.mu.Lock()
		m.dispatched = append(m.dispatched, tenant)
		m.mu.Unlock()
		m.gate.wait()
	}
	if m.q, err = sched.New(sched.Config{Flows: 2, Depth: servingDepth, Weights: servingWeights}); err != nil {
		t.Fatal(err)
	}
	m.play(ops)
	return m
}

// play runs ops — the protocol model's session ops through its own step,
// the rest through step below, each checked as the protocol model checks
// its ops — holding the chassis to its hygiene whenever a close leaves no
// session open. Then it runs the scheduler out, closes what sessions the
// script left and holds the chassis to its hygiene once more.
func (m *servingModel) play(ops []traceOp) {
	r := m.r
	for i, op := range ops {
		r.at = fmt.Sprintf("op %d %v", i, op)
		open := r.sess[0] != nil || r.sess[1] != nil
		if strings.IndexByte(traceOpCodes, op.code) >= 0 {
			r.step(op)
		} else {
			r.checked(op, m.step)
		}
		if open && r.sess[0] == nil && r.sess[1] == nil {
			m.hygiene()
		}
	}
	r.endEpisode()
	r.at = "final drain"
	m.finish()
	r.endSessions()
	m.hygiene()
	r.close()
}

// FuzzServingPlatform plays a script against the model. A script is ops
// of one byte each, optionally followed by one decimal digit (0 when
// absent), then optionally a fault.Plan, whose SchedStall and CancelRace
// events the scheduler's fault hook fires; bytes that name no op are
// skipped, so any byte string is a script:
//
//	u<d> submit request: d 0/1 on tenant 0/1, 2/3 with a context X
//	     cancels, 4/5 with a deadline X expires, 6 a cancelled context,
//	     7 an expired deadline, 8 tenant 2 (none), 9 an empty input
//	f<d> submit to tenant d%2 until its queue refuses one (ErrQueueFull)
//	X<k> cancel the k-th most recent request that has a context to cancel
//	g    the slot runs the request it holds; the worker claims the next
//	d    Drain, Z Shutdown (each returns once the slot is idle)
//	C<d> cancel the context session d was opened under
//	O<d> on tenant 1: O0 a session past its device window, O1 sessions
//	     until the KV budget refuses one, O2 until the device slots are
//	     spent, O3 Prefill refusals and calls on a closed session, O4
//	     twice a prefill-only session streamed as the llm-prefill
//	     benchmark streams it (skipped while a model session has a step)
//
// and the protocol model's session ops o, p, s, w, q and e on tenant 0.
func FuzzServingPlatform(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, _, ok := decodeTrace(data, servingOpCodes); ok {
			runServing(t, data)
		}
	})
}

// playServing plays the saved script name and returns its model.
func playServing(t *testing.T, name string) *servingModel {
	return runServing(t, savedInput(t, "FuzzServingPlatform", name))
}

// step plays one scheduler or tenant-1 op, then holds the scheduler to
// the model.
func (m *servingModel) step(op traceOp) {
	d := int(op.arg)
	switch op.code {
	case 'u':
		m.submit(d)
	case 'f':
		for m.submit(d%2) == nil {
		}
	case 'X':
		m.cancel(d)
	case 'g':
		m.pass()
	case 'd', 'Z':
		m.close(op.code == 'Z')
	case 'C':
		if ts := m.r.sess[d%2]; ts != nil {
			ts.scancel()
			ts.ctxDone = true
		}
	case 'O':
		m.tenant1(d % 5)
	}
	m.check()
}

// submit is u<d>. It returns the sentinel the model refused the request
// with, nil when admitted.
func (m *servingModel) submit(d int) error {
	req := &blobReq{tenant: d % 2}
	n := len(m.reqs)
	req.tk = Task{Input: bytes.Repeat([]byte{byte(n), byte(n >> 8), 0x5c}, 128*(1+n%3)), Kernel: KernelXOR, Param: 0x5a}
	ctx := context.Background()
	switch d {
	case 2, 3, 6:
		ctx, req.cancel = context.WithCancel(ctx)
		req.cause = context.Canceled
	case 4, 5, 7:
		var inner context.Context
		inner, req.cancel = context.WithCancel(ctx)
		ctx, req.cause = deadlineCtx{inner}, ErrDeadlineExceeded
	case 8:
		req.tenant = 2
	case 9:
		req.tk.Input = nil
	}
	if d == 6 || d == 7 {
		req.cancel()
	}
	var want error
	switch {
	case m.closed:
		want = ErrSchedulerClosed
	case d == 8:
		want = ErrNoTenant
	case d == 9:
		want = ErrEmptyInput
	case d == 6 || d == 7:
		want = req.cause
	default:
		var err error
		if req.e, err = m.q.Push(req.tenant, int64(len(req.tk.Input)), req); err != nil {
			want = ErrQueueFull
		}
	}
	h, err := m.s.Submit(ctx, TenantTask{Tenant: req.tenant, Task: req.tk})
	switch {
	case want != nil && (h != nil || !errors.Is(err, want)):
		m.r.failf("Submit = %v, model refuses with %v", err, want)
	case want == nil && err != nil:
		m.r.failf("Submit refused %v, model admits", err)
	case want == nil:
		req.h = h
		m.reqs = append(m.reqs, req)
		m.dispatch()
		m.check() // the next admission meets the queue as this claim left it
	}
	return want
}

// dispatch is the slot's worker as the model runs it: while no request
// is held, claims as the model's queue names them and the fault plan
// probes them — a stall puts the claim back at its flow's head, a cancel
// race settles it cancelled — until one reaches the gate or none is
// left.
func (m *servingModel) dispatch() {
	stop := make(chan struct{})
	close(stop)
	for m.held == nil {
		e, ok := m.q.Next(stop)
		if !ok {
			return
		}
		req := e.Value.(*blobReq)
		switch {
		case m.inj.SchedFault(fault.SchedPointDequeue):
			m.q.Requeue(e)
		case m.inj.SchedFault(fault.SchedPointCancel):
			req.settled, req.want = true, context.Canceled
		default:
			m.held, m.order = req, append(m.order, req.tenant)
			continue
		}
		m.q.Release(e.Flow)
	}
}

// pass is g: the held request runs — the task's bytes, or its context's
// error when that ended first — and the worker claims the next.
func (m *servingModel) pass() {
	req := m.held
	if req == nil {
		return
	}
	m.held, req.settled, req.ran = nil, true, true
	switch {
	case req.done:
		req.want = req.cause
	case req.tenant == 0:
		m.r.m.stage(req.tk) // the request ran on the modelled slice
		m.r.m.submit(req.tk)
	}
	m.q.Release(req.e.Flow)
	m.dispatch()
	if !m.gate.pass() {
		m.r.failf("the slot claimed no request")
	}
}

// cancel is X<k>: a request's context ended. Still queued, it settles
// at once; held, when it runs; settled, never again.
func (m *servingModel) cancel(k int) {
	var cs []*blobReq
	for _, req := range m.reqs {
		if req.cancel != nil {
			cs = append(cs, req)
		}
	}
	if len(cs) == 0 {
		return
	}
	req := cs[len(cs)-1-k%len(cs)]
	req.cancel()
	if req.done = true; !req.settled && m.q.Cancel(req.e) {
		req.settled, req.want = true, req.cause
	}
}

// close is d and Z: admission stops, and Drain leaves the queue to the
// slot while Shutdown drops it (ErrSchedulerClosed). Either returns once
// the slot is idle, which finish checks.
func (m *servingModel) close(shutdown bool) {
	done := make(chan error, 1)
	m.waits = append(m.waits, done)
	if shutdown {
		go func() { done <- m.s.Shutdown(context.Background()) }()
		m.r.await("Shutdown never closed the scheduler", func() bool { return atomic.LoadInt32(&m.s.state) == schedClosed })
		m.s.mu.Lock() // Shutdown drops the queue under it
		m.s.mu.Unlock()
		for _, e := range m.q.DrainQueued() {
			req := e.Value.(*blobReq)
			req.settled, req.want = true, ErrSchedulerClosed
		}
	} else {
		go func() { done <- m.s.Drain(context.Background()) }()
		m.r.await("Drain never stopped admission", func() bool { return atomic.LoadInt32(&m.s.state) != schedRunning })
	}
	m.closed = true
	m.q.Close()
}

// check holds the scheduler to the model once the slot has settled:
// every request the model settled completed with its bytes or its
// sentinel, reporting a queue wait only if it reached the slot; none
// other completed; the dispatch order and the pending count agree.
func (m *servingModel) check() {
	m.r.await("the slot never reached the gate", func() bool { return int(m.gate.arrivals.Load()) == len(m.order) })
	for i, req := range m.reqs {
		if !req.settled {
			select {
			case <-req.h.Done():
				m.r.failf("request %d completed, the model has it pending", i)
			default:
			}
			continue
		}
		select {
		case <-req.h.Done():
		case <-time.After(10 * time.Second):
			m.r.failf("request %d never completed", i)
		}
		out, err := req.h.Result()
		switch {
		case req.want == nil && (err != nil || !bytes.Equal(out, req.tk.want())):
			m.r.failf("request %d ended %v, exact %v; the model wants its bytes", i, err, bytes.Equal(out, req.tk.want()))
		case req.want != nil && (out != nil || !errors.Is(err, req.want)):
			m.r.failf("request %d ended %v with %d bytes, the model wants %v", i, err, len(out), req.want)
		case (req.h.QueueWait() != 0) != req.ran:
			m.r.failf("request %d reports a queue wait of %v; reached the slot: %v", i, req.h.QueueWait(), req.ran)
		}
	}
	m.mu.Lock()
	order := append([]int(nil), m.dispatched...)
	m.mu.Unlock()
	if !slices.Equal(order, m.order) || m.s.Pending() != m.q.Pending() {
		m.r.failf("dispatched tenants %v with %d pending; the model %v with %d", order, m.s.Pending(), m.order, m.q.Pending())
	}
}

// finish runs the held requests out, then shuts the scheduler down: every
// request settled, every Drain and Shutdown returned.
func (m *servingModel) finish() {
	for m.held != nil {
		m.pass()
		m.check()
	}
	if err := m.s.Shutdown(context.Background()); err != nil {
		m.r.failf("Shutdown: %v", err)
	}
	for _, done := range m.waits {
		if err := <-done; err != nil {
			m.r.failf("Drain or Shutdown: %v", err)
		}
	}
	for i, req := range m.reqs {
		if !req.settled {
			m.r.failf("request %d never settled", i)
		}
	}
}

// count is how many admitted requests ended as match says, by their
// handles' errors.
func (m *servingModel) count(match func(req *blobReq, err error) bool) int {
	n := 0
	for _, req := range m.reqs {
		if _, err := req.h.Result(); match(req, err) {
			n++
		}
	}
	return n
}

// tenant1 is O<d>, on tenant 1, which holds no session of the model's:
// each refusal is its sentinel, every stream exact, and every session it
// opened is closed.
func (m *servingModel) tenant1(d int) {
	tn := m.r.mp.Tenants[1]
	small := llm.Config{MaxNewTokens: 8, ChunkTokens: 4, MaxPromptTokens: 8, TokenBytes: 4, KVBytesPerToken: 64, Seed: 1}
	var opened []*InferenceSession
	defer func() {
		for _, s := range opened {
			s.Close()
		}
	}()
	// openUntil opens cfg sessions until one is refused, which must be the
	// n+1-th, with every sentinel of want.
	openUntil := func(cfg llm.Config, n int, want ...error) {
		for {
			s, err := tn.OpenSession(context.Background(), cfg)
			if err == nil {
				opened = append(opened, s)
				continue
			}
			for _, w := range want {
				if len(opened) != n || !errors.Is(err, w) {
					m.r.failf("open %d refused with %v; the model refuses open %d with %v", len(opened)+1, err, n+1, want)
				}
			}
			return
		}
	}
	switch d {
	case 0:
		big := small
		big.MaxNewTokens, big.KVBytesPerToken = 4096, 512
		openUntil(big, 0, ErrKVBudgetExceeded)
	case 1:
		held := int64(0) // the model's sessions still holding their KV
		for _, ts := range m.r.sess {
			if ts != nil && !ts.over {
				held += traceKV
			}
		}
		openUntil(traceSessions[0], int((2*traceKV+smallKVRoom-held)/traceKV), ErrKVBudgetExceeded, llm.ErrKVBudget)
	case 2:
		openUntil(small, llmSlotsPerVault, ErrQueueFull)
	case 3:
		s, err := tn.OpenSession(context.Background(), small)
		if err != nil {
			m.r.failf("a small session refused: %v", err)
		}
		opened = append(opened, s)
		errEmpty := s.Prefill(context.Background(), nil)
		errOver := s.Prefill(context.Background(), make([]byte, small.MaxPromptTokens*small.TokenBytes+1))
		s.Close()
		errPrefill := s.Prefill(context.Background(), []byte("late"))
		_, errDecode := s.Decode(context.Background())
		if !errors.Is(errEmpty, ErrEmptyInput) || !errors.Is(errOver, ErrKVBudgetExceeded) ||
			!errors.Is(errPrefill, ErrSessionClosed) || !errors.Is(errDecode, ErrSessionClosed) {
			m.r.failf("Prefill refused %v and %v, after Close Prefill %v and Decode %v", errEmpty, errOver, errPrefill, errDecode)
		}
	case 4:
		if !m.r.anyStreaming() {
			m.streamPrefillOnly(tn, small)
			m.streamPrefillOnly(tn, small)
		}
	}
}

// streamPrefillOnly is the llm-prefill benchmark's streamed op on tn: a
// session whose one chunk is its prefill's, Prefill called from a helper
// goroutine while the stream is read to its end, then Close. The gate
// passes steps until the session's has settled — a step the worker
// claimed for a session closed since settles first, touching nothing.
func (m *servingModel) streamPrefillOnly(tn *Tenant, cfg llm.Config) {
	cfg.MaxNewTokens = cfg.ChunkTokens
	prompt, eng := []byte("prefill only"), m.r.mp.Engine()
	s, err := tn.OpenSession(context.Background(), cfg)
	if err != nil {
		m.r.failf("a prefill-only session refused: %v", err)
	}
	defer s.Close()
	ch, _ := s.Decode(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Prefill(context.Background(), prompt) }()
	for rec := (llm.StepRecord{}); rec.Session != s.state.ID; {
		n := len(eng.StepLog())
		if !m.r.gate.pass() {
			m.r.failf("the dispatcher claimed no step")
		}
		m.r.await("a step never settled", func() bool {
			log := eng.StepLog()
			if len(log) > n {
				rec = log[len(log)-1]
			}
			return len(log) > n
		})
	}
	chunks, err := readStream(m.r.t, ch)
	if err != nil || len(chunks) != 1 || !chunks[0].Final || !bytes.Equal(chunks[0].Tokens, expectedStream(cfg, prompt)) || <-done != nil {
		m.r.failf("a prefill-only stream ended %v with %d chunks, not its one exact final chunk", err, len(chunks))
	}
	m.r.settled = len(eng.StepLog())
}
