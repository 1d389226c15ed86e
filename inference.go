package ccai

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ccai/internal/adaptor"
	"ccai/internal/llm"
	"ccai/internal/obsv"
	"ccai/internal/secmem"
	"ccai/internal/xpu"
)

// Continuous token-level LLM serving (DESIGN.md §16). A tenant opens a
// streaming InferenceSession; the chassis-wide continuous-batching
// engine (internal/llm) interleaves prefill and per-chunk decode steps
// across every live session of every tenant, vLLM-style. The
// confidential contract per session:
//
//   - The KV-cache is sealed and staged into protected device memory
//     exactly once, at prefill; every decode step computes against the
//     resident copy. No per-token KV traffic crosses PCIe — the gated
//     TestKVStagedOncePerSession pins this.
//   - Per-step traffic (token ids up, decode chunk down) rides the
//     same sealed datapath as blob tasks, but through a step channel
//     (internal/adaptor) installed once per 64 decode steps: a step
//     seals its ids into the channel's next window slot and arms it
//     with a positioned tag — no descriptor install, allocation or
//     release, one ring doorbell.
//   - A mid-decode rekey trips the session's epoch fence
//     (secmem.Fence): the resident KV stays valid — it was decrypted on
//     arrival and never re-staged — while all new step traffic seals
//     under the fresh epoch. KVFenced exposes the transition.

// Per-tenant device-memory carving for sessions. Blob tasks use
// [0x0, 0x80000); sessions get fixed windows above that: per slot a KV
// region, a token-id scratch, and a chunk output buffer.
const (
	llmSessBase      = 0x80000 // first session slot
	llmSlotSpan      = 0x18000 // 96 KiB per slot
	llmKVMax         = 0x14000 // 80 KiB resident KV per session
	llmIdsOff        = 0x14000 // token-id scratch inside the slot
	llmOutOff        = 0x16000 // decode-chunk output inside the slot
	llmSlotsPerVault = 5       // slots per tenant: 0x80000+5*0x18000 < 1 MiB device memory
)

// DecodeChunk is one streamed unit of generated tokens. Chunks arrive
// in Index order; exactly one chunk has Final set (clean end of
// stream) or Err set (aborted stream, no further chunks).
type DecodeChunk struct {
	// Index is the chunk ordinal: 0 is emitted by prefill, the rest by
	// decode steps.
	Index int
	// Tokens holds ChunkSpan(Index)×TokenBytes verified plaintext bytes
	// (they crossed PCIe sealed; CollectD2H authenticated them).
	Tokens []byte
	// Final marks the stream's last data chunk.
	Final bool
	// Err, when set, marks an aborted stream: errors.Is matches
	// ErrStreamAborted plus the underlying cause.
	Err error
}

// InferenceSession is one live generation stream on a tenant. The
// lifecycle is OpenSession → Prefill → Decode (consume the channel) →
// Close; Close is deterministic and idempotent — it releases the KV
// reservation, device slot and pinned host region synchronously.
type InferenceSession struct {
	t     *Tenant
	srv   *llmServer
	cfg   llm.Config
	state *llm.SessionState
	sctx  context.Context

	devSlot int
	devBase uint64

	// The session's region labels — its device slot's, built once when
	// the llmServer started, so neither a session nor a step builds a string.
	sessionNames

	// step is the decode stream's step channel and idsScratch the
	// token-id buffer its steps refill; both belong to whoever holds
	// t.mu. The channel is opened by the first decode step, renewed when
	// its window is spent, and released when the stream ends.
	step       *adaptor.StepChannel
	idsScratch []byte

	mu          sync.Mutex
	prompt      []byte
	digest      uint64
	kvBytes     int64
	kvHost      []byte // KVInit image, dropped once staged
	kvRegion    *adaptor.Region
	kvGen       int // the tenant's trust generation the KV was staged in
	kvSealEpoch uint32
	fence       secmem.Fence
	err         error
	ch          chan DecodeChunk
	// prefillDone is closed — once, under mu, with prefillErr final —
	// when the prefill step has emitted chunk 0 or the stream aborted
	// before it could.
	prefillDone   chan struct{}
	prefillClosed bool
	prefillErr    error
	ctxStops      []func() bool

	// finished is set once, under mu, when the stream ends (abort or
	// finish). deliver reads it under mu, so no chunk is sent after abort
	// closed the channel; runStep's early check reads it with no lock.
	finished atomic.Bool
	closed   atomic.Bool
	kvFenced atomic.Bool
	kvStaged atomic.Bool
}

// llmServer is the chassis's lazily-started inference dispatcher: a
// small pool of resident workers (startWorkers, the loop the blob
// Scheduler's slots run) pulling steps off the continuous-batching
// engine and executing them on the owning tenant's sealed pipeline.
type llmServer struct {
	mp       *MultiPlatform
	eng      *llm.Engine
	stop     chan struct{}
	finished <-chan struct{}                  // closed when the last worker has returned
	names    [][llmSlotsPerVault]sessionNames // by tenant index, session slot

	mu      sync.Mutex
	devFree [][]int // per tenant index: free session slots
}

// sessionNames are the region labels of one device session slot.
type sessionNames struct{ kvName, idsName, outName string }

// llmServer returns the chassis inference server, starting it on first
// use with the Config.LLM engine parameters.
func (mp *MultiPlatform) llmServer() *llmServer {
	mp.llmMu.Lock()
	defer mp.llmMu.Unlock()
	if mp.llmSrv != nil {
		return mp.llmSrv
	}
	eng, err := llm.NewEngine(mp.llmCfg)
	if err != nil {
		// EngineConfig is fully defaulted; the only failure is an absurd
		// MaxSessions, which NewMultiPlatform's options cannot produce.
		panic(fmt.Sprintf("ccai: llm engine: %v", err))
	}
	srv := &llmServer{mp: mp, eng: eng, stop: make(chan struct{})}
	srv.devFree = make([][]int, len(mp.Tenants))
	srv.names = make([][llmSlotsPerVault]sessionNames, len(mp.Tenants))
	for i := range srv.devFree {
		for s := llmSlotsPerVault - 1; s >= 0; s-- {
			srv.devFree[i] = append(srv.devFree[i], s)
			name := func(kind string) string { return fmt.Sprintf("llm-%s/t%d/s%d", kind, i, s) }
			srv.names[i][s] = sessionNames{name("kv"), name("ids"), name("chunk")}
		}
	}
	workers := mp.llmCfg.Workers
	if workers <= 0 {
		workers = 2
	}
	srv.finished = startWorkers(workers, srv, srv.stop)
	mp.llmSrv = srv
	return srv
}

// Engine exposes the continuous-batching engine (step log, KV
// accounting) — observability for tests and benchmarks.
func (mp *MultiPlatform) Engine() *llm.Engine { return mp.llmServer().eng }

func (srv *llmServer) shutdown() {
	srv.eng.Close()
	close(srv.stop)
	<-srv.finished
}

func (srv *llmServer) allocSlot(tenant int) (int, error) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	free := srv.devFree[tenant]
	if len(free) == 0 {
		return 0, fmt.Errorf("%w: tenant %d: all %d device session slots live",
			ErrQueueFull, tenant, llmSlotsPerVault)
	}
	slot := free[len(free)-1]
	srv.devFree[tenant] = free[:len(free)-1]
	return slot, nil
}

func (srv *llmServer) freeSlot(tenant, slot int) {
	srv.mu.Lock()
	srv.devFree[tenant] = append(srv.devFree[tenant], slot)
	srv.mu.Unlock()
}

func (srv *llmServer) probeFault(point string) bool {
	fn := srv.mp.llmFault.Load()
	return fn != nil && (*fn)(point)
}

// SetLLMFaultHook installs the deterministic fault probe on the
// inference dispatcher (see fault.Injector.SchedFault); nil clears it.
// Probed at every step claim: SchedPointDequeue firing requeues the
// step (mid-queue stall), SchedPointCancel firing aborts the stream at
// the claim boundary.
func (mp *MultiPlatform) SetLLMFaultHook(fn func(point string) bool) {
	if fn == nil {
		mp.llmFault.Store(nil)
		return
	}
	mp.llmFault.Store(&fn)
}

// The llmServer as a workSource: a unit is an engine step, whose flow —
// the session — stays busy until the step is settled with the engine.
//
// next fails a step that has no session behind it before a fault probe
// can see it, so every unit the loop handles is owned.
func (srv *llmServer) next(stop <-chan struct{}) (*llm.Step, bool) {
	for {
		st, ok := srv.eng.Next(stop)
		if !ok {
			return nil, false
		}
		if sess, _ := st.S.Owner.(*InferenceSession); sess != nil {
			return st, true
		}
		srv.eng.Fail(st)
	}
}

func (srv *llmServer) stall(st *llm.Step) { srv.eng.Requeue(st) }

func (srv *llmServer) cancelAtClaim(st *llm.Step) { srv.fail(st, ctxErr(context.Canceled)) }

// fail aborts the step's stream with cause and retires its session.
func (srv *llmServer) fail(st *llm.Step, cause error) {
	st.S.Owner.(*InferenceSession).abort(fmt.Errorf("%w: %w", ErrStreamAborted, cause))
	srv.eng.Fail(st)
}

// run executes one step on the owning session, then re-arms or retires it.
func (srv *llmServer) run(st *llm.Step) {
	sess := st.S.Owner.(*InferenceSession)
	if err := sess.sctx.Err(); err != nil {
		srv.fail(st, ctxErr(err))
		return
	}
	if sess.closed.Load() {
		srv.eng.Fail(st)
		return
	}
	if err := sess.runStep(st); err != nil {
		srv.fail(st, err)
		return
	}
	srv.mp.llmMet.steps[st.Kind].Inc()
	if !srv.eng.Complete(st) {
		sess.finish()
	}
}

// llmObs holds the serving engine's metric handles — engine steps by
// kind, finished sessions by tenant and outcome — resolved once in
// MultiPlatform.Observe. All nil with observability off, so neither a
// step nor a session builds a metric name.
type llmObs struct {
	steps    [2]*obsv.Counter // by llm.StepKind
	sessions []sessionObs     // by tenant
}

type sessionObs struct{ ok, aborted *obsv.Counter }

func newLLMObs(reg *obsv.Registry, tenants int) llmObs {
	o := llmObs{sessions: make([]sessionObs, tenants)}
	for _, kind := range []llm.StepKind{llm.StepPrefill, llm.StepDecode} {
		o.steps[kind] = reg.Counter(obsv.Name("llm.steps", "kind", kind.String()))
	}
	for i := range o.sessions {
		sessions := func(status string) *obsv.Counter {
			return reg.Counter(obsv.Name("llm.sessions", "status", status, "tenant", tenantLabel(i)))
		}
		o.sessions[i] = sessionObs{ok: sessions("ok"), aborted: sessions("aborted")}
	}
	return o
}

// session returns the llm.sessions counter of a tenant's sessions that
// ended ok or aborted (nil with observability off).
func (o *llmObs) session(tenant int, ok bool) *obsv.Counter {
	switch {
	case o.sessions == nil:
		return nil
	case ok:
		return o.sessions[tenant].ok
	}
	return o.sessions[tenant].aborted
}

// OpenSession admits a streaming inference session on the tenant. KV
// budget (chassis-wide) and a device session slot (per tenant) are
// reserved here — the only point that can fail on memory; Prefill and
// decode steps never grow the reservation. ctx bounds the whole
// session: its cancellation aborts the stream. Failure modes:
// ErrNotTrusted, ErrKVBudgetExceeded, ErrQueueFull (no session slot).
func (t *Tenant) OpenSession(ctx context.Context, cfg llm.Config) (*InferenceSession, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, ctxErr(err)
	}
	if t.parent == nil {
		return nil, errors.New("ccai: OpenSession needs a MultiPlatform tenant")
	}
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	t.mu.Lock()
	trusted := t.trusted
	t.mu.Unlock()
	if !trusted {
		return nil, fmt.Errorf("ccai: tenant %d: %w", t.Index, ErrNotTrusted)
	}
	kvBytes := cfg.KVBytes(cfg.MaxPromptTokens)
	if kvBytes > llmKVMax {
		return nil, fmt.Errorf("%w: tenant %d: session KV %d B exceeds the %d B device window",
			ErrKVBudgetExceeded, t.Index, kvBytes, llmKVMax)
	}
	if max := cfg.MaxPromptTokens * cfg.TokenBytes; max > llmOutOff-llmIdsOff {
		return nil, fmt.Errorf("ccai: tenant %d: prompt reservation %d B exceeds the %d B id window",
			t.Index, max, llmOutOff-llmIdsOff)
	}
	if span := cfg.ChunkTokens * cfg.TokenBytes; span > llmSlotSpan-llmOutOff {
		return nil, fmt.Errorf("ccai: tenant %d: chunk span %d B exceeds the %d B output window",
			t.Index, span, llmSlotSpan-llmOutOff)
	}
	srv := t.parent.llmServer()
	state, err := srv.eng.Admit(cfg, cfg.MaxPromptTokens, nil)
	if err != nil {
		return nil, fmt.Errorf("ccai: tenant %d: %w", t.Index, err)
	}
	slot, err := srv.allocSlot(t.Index)
	if err != nil {
		srv.eng.Release(state)
		return nil, err
	}
	sess := &InferenceSession{
		t: t, srv: srv, cfg: cfg, state: state, sctx: ctx,
		devSlot: slot, devBase: llmSessBase + uint64(slot)*llmSlotSpan,
		sessionNames: srv.names[t.Index][slot],
		kvBytes:      kvBytes,
		ch:           make(chan DecodeChunk, cfg.Chunks()+1),
		prefillDone:  make(chan struct{}),
	}
	state.Owner = sess
	return sess, nil
}

// Prefill stages the session: derives the KV-cache image from the
// prompt, seals it into protected device memory (the once-per-session
// PCIe crossing), runs the prefill step and emits chunk 0 on the
// decode stream. It blocks until the step has executed under the
// continuous-batching engine — competing sessions' decode steps
// interleave in front of it — and returns with chunk 0 readable, the
// rest of the stream still to come. Single-shot: a second call fails.
func (s *InferenceSession) Prefill(ctx context.Context, prompt []byte) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.closed.Load() {
		return fmt.Errorf("ccai: tenant %d: %w", s.t.Index, ErrSessionClosed)
	}
	if len(prompt) == 0 {
		return fmt.Errorf("ccai: tenant %d: %w", s.t.Index, ErrEmptyInput)
	}
	promptTokens := (len(prompt) + s.cfg.TokenBytes - 1) / s.cfg.TokenBytes
	if promptTokens > s.cfg.MaxPromptTokens {
		return fmt.Errorf("%w: tenant %d: prompt %d tokens exceeds the session's %d-token reservation",
			ErrKVBudgetExceeded, s.t.Index, promptTokens, s.cfg.MaxPromptTokens)
	}
	s.mu.Lock()
	if s.prompt != nil {
		s.mu.Unlock()
		return fmt.Errorf("ccai: tenant %d: session already prefilled", s.t.Index)
	}
	s.prompt = append([]byte(nil), prompt...)
	s.digest = llm.Digest(s.cfg.Seed, prompt)
	s.kvHost = llm.KVInit(s.digest, s.kvBytes)
	s.mu.Unlock()
	if err := s.srv.eng.Start(s.state); err != nil {
		return fmt.Errorf("ccai: tenant %d: %w", s.t.Index, err)
	}
	select {
	case <-s.prefillDone:
		return s.prefillErr
	case <-ctx.Done():
		return ctxErr(ctx.Err())
	case <-s.sctx.Done():
		return ctxErr(s.sctx.Err())
	}
}

// Decode returns the stream of sealed decode chunks, chunk 0 (from
// prefill) first. The channel closes after the Final chunk, or after
// one chunk with Err set when the stream aborts. Cancelling ctx aborts
// the stream (ErrStreamAborted).
func (s *InferenceSession) Decode(ctx context.Context) (<-chan DecodeChunk, error) {
	if s.closed.Load() {
		return nil, fmt.Errorf("ccai: tenant %d: %w", s.t.Index, ErrSessionClosed)
	}
	// A ctx that cannot be cancelled gets no hook (and has none to detach).
	if ctx != nil && ctx.Done() != nil {
		if err := ctx.Err(); err != nil {
			return nil, ctxErr(err)
		}
		stop := context.AfterFunc(ctx, func() {
			s.abort(fmt.Errorf("%w: %w", ErrStreamAborted, ctxErr(ctx.Err())))
		})
		s.mu.Lock()
		s.ctxStops = append(s.ctxStops, stop)
		s.mu.Unlock()
	}
	return s.ch, nil
}

// KVFenced reports whether a rekey advanced the H2D key epoch under
// the session mid-decode — the resident KV (sealed under the fenced
// epoch, decrypted on arrival) stayed valid and was not re-staged.
func (s *InferenceSession) KVFenced() bool { return s.kvFenced.Load() }

// KVSealEpoch reports the key epoch the session's KV-cache was sealed
// under at prefill.
func (s *InferenceSession) KVSealEpoch() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.kvSealEpoch
}

// errClosedMidStream ends a stream Close aborts. It is built once: Close
// runs on every session, and abort ignores it on a finished stream.
var errClosedMidStream = fmt.Errorf("%w: %w", ErrStreamAborted, ErrSessionClosed)

// Close deterministically releases everything the session holds: the
// engine's KV reservation and scheduling slot, the device session
// slot, and the pinned host staging region. An unfinished stream is
// aborted (consumers see ErrStreamAborted wrapping ErrSessionClosed).
// Idempotent; always nil error.
func (s *InferenceSession) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.abort(errClosedMidStream)
	s.srv.eng.Release(s.state)
	s.t.mu.Lock()
	s.releaseStepLocked()
	if s.kvRegion != nil {
		s.kvRegion.Buf.Unpin()
		s.t.Adaptor.ReleaseRegion(s.kvRegion)
		s.kvRegion = nil
	}
	s.t.mu.Unlock()
	s.srv.freeSlot(s.t.Index, s.devSlot)
	return nil
}

// abort ends the stream with err: pending consumers receive one chunk
// carrying err, then the channel closes. No-op on a finished stream.
func (s *InferenceSession) abort(err error) {
	s.mu.Lock()
	if s.finished.Load() {
		s.mu.Unlock()
		return
	}
	s.finished.Store(true)
	s.err = err
	if !s.prefillClosed {
		s.prefillClosed, s.prefillErr = true, err
		close(s.prefillDone)
	}
	stops := s.ctxStops
	s.ctxStops = nil
	ch := s.ch
	s.mu.Unlock()
	s.srv.eng.Release(s.state)
	s.srv.mp.llmMet.session(s.t.Index, err == nil).Inc()
	if err != nil {
		ch <- DecodeChunk{Index: -1, Err: err}
	}
	close(ch)
	for _, stop := range stops {
		stop()
	}
	// The stream is over: its step channel goes back in one ring burst
	// (the resident KV stays until Close). A step of this session still
	// in flight finishes first; a later one sees finished and never runs.
	s.t.mu.Lock()
	s.releaseStepLocked()
	s.t.mu.Unlock()
}

// releaseStepLocked closes the session's step channel, if it has one.
// Callers hold t.mu.
func (s *InferenceSession) releaseStepLocked() {
	if s.step != nil {
		s.t.Adaptor.CloseStepChannel(s.step)
		s.step = nil
	}
}

// finish closes the stream cleanly after the final chunk.
func (s *InferenceSession) finish() { s.abort(nil) }

// deliver hands a step's chunk to the stream in one critical section.
// After a decode step it first checks the session's epoch fence: a
// rekey under the session means the resident KV belongs to the fenced
// epoch and stays put, while new traffic already seals under the fresh
// one (KVFenced). The channel is sized so the send never blocks; the
// chunk is dropped silently once the stream finished (a late step
// racing an abort). After the prefill step it releases Prefill's
// caller: chunk 0 is on the stream.
func (s *InferenceSession) deliver(st *llm.Step, tokens []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st.Kind == llm.StepDecode && !s.fence.Valid() {
		s.kvFenced.Store(true)
	}
	if !s.finished.Load() {
		s.ch <- DecodeChunk{Index: st.Chunk, Tokens: tokens, Final: st.Chunk == s.cfg.Chunks()-1}
	}
	if st.Kind == llm.StepPrefill && !s.prefillClosed {
		s.prefillClosed = true
		close(s.prefillDone)
	}
}

// runStep executes one engine step on the tenant's sealed pipeline:
// stage or arm the step's regions, build its commands, hand both to
// pipeline.run under the session's context. Called from dispatcher
// workers; t.mu serializes against blob tasks and other sessions of
// the same tenant.
func (s *InferenceSession) runStep(st *llm.Step) error {
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.closed.Load() || s.finished.Load() {
		return fmt.Errorf("ccai: tenant %d: %w", t.Index, ErrSessionClosed)
	}
	if !t.trusted {
		return fmt.Errorf("ccai: tenant %d: %w", t.Index, ErrNotTrusted)
	}
	if st.Kind == llm.StepDecode && s.kvGen != t.gen {
		// The resident KV died with the session it was staged in: teardown
		// cleaned the device. A step now would compute on a wiped cache.
		return fmt.Errorf("ccai: tenant %d: KV staged in trust generation %d, now %d: %w", t.Index, s.kvGen, t.gen, ErrNotTrusted)
	}
	var (
		tokens []byte
		err    error
	)
	if st.Kind == llm.StepPrefill {
		tokens, err = s.prefillStep(st)
	} else {
		tokens, err = s.decodeStep(st)
	}
	if err != nil {
		return err
	}
	// CollectD2H allocated tokens for its caller; the chunk takes it over.
	s.deliver(st, tokens)
	return nil
}

// stepCommands builds a step's ids-up / kernel / chunk-down commands:
// idsLen bytes from bounce address ids into the slot's id scratch, the
// keyed XOR over the step's window of the resident KV, span bytes of
// result out to bounce address out.
func (s *InferenceSession) stepCommands(st *llm.Step, ids uint64, idsLen int, out uint64, span int64) [3]xpu.Command {
	off := llm.StepOffset(s.digest, st.Chunk, s.kvBytes, span)
	key := llm.StepKey(s.digest, st.Chunk)
	devOut := s.devBase + llmOutOff
	return [3]xpu.Command{
		{Op: xpu.OpCopyH2D, Src: ids, Dst: s.devBase + llmIdsOff, Len: uint64(idsLen)},
		{Op: xpu.OpKernel, Param: uint32(KernelXOR)<<16 | uint32(key),
			Src: s.devBase + uint64(off), Dst: devOut, Len: uint64(span)},
		{Op: xpu.OpCopyD2H, Src: devOut, Dst: out, Len: uint64(span)},
	}
}

// prefillStep is the one-shot step: the once-per-session KV crossing
// plus the variable-size prompt, each staged as a region of its own and
// released after the step, exactly like a blob task's. Callers hold t.mu.
func (s *InferenceSession) prefillStep(st *llm.Step) ([]byte, error) {
	t := s.t
	span := int64(s.cfg.ChunkSpan(st.Chunk) * s.cfg.TokenBytes)
	// The KV image: sealed, staged, pinned, and from here on only
	// referenced by device-local kernel reads. Recorded on the session
	// before the submit so Close owns its release from here on, whatever
	// this step's outcome.
	kvRegion, err := t.Adaptor.StageH2D(s.kvName, s.kvHost)
	if err != nil {
		return nil, err
	}
	kvRegion.Buf.Pin()
	s.mu.Lock()
	s.kvRegion, s.kvGen = kvRegion, t.gen
	if len(kvRegion.Recs) > 0 {
		s.kvSealEpoch = kvRegion.Recs[0].Epoch
	}
	s.fence = t.Adaptor.H2DFence()
	s.mu.Unlock()
	ids, err := t.Adaptor.StageH2D(s.idsName, s.prompt)
	if err != nil {
		return nil, err
	}
	defer t.Adaptor.ReleaseRegion(ids)
	out, err := t.Adaptor.PrepareD2H(s.outName, span)
	if err != nil {
		return nil, err
	}
	defer t.Adaptor.ReleaseRegion(out)

	step := s.stepCommands(st, ids.Buf.Base(), len(s.prompt), out.Buf.Base(), span)
	cmds := [4]xpu.Command{
		{Op: xpu.OpCopyH2D, Src: kvRegion.Buf.Base(), Dst: s.devBase, Len: uint64(len(s.kvHost))},
		step[0], step[1], step[2],
	}
	// The recovery ladder reposts every H2D region of the submission.
	staged := [2]*adaptor.Region{kvRegion, ids}
	tokens, err := t.run(s.sctx, cmds[:], staged[:], out, span)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.kvHost = nil
	s.mu.Unlock()
	s.kvStaged.Store(true)
	return tokens, nil
}

// decodeStep moves one chunk through the session's step channel: the
// token ids are sealed into the window's next slot and armed with a
// positioned tag, the chunk comes back through the channel's output
// region. Nothing is installed, allocated or released unless the
// window is spent. Callers hold t.mu.
func (s *InferenceSession) decodeStep(st *llm.Step) ([]byte, error) {
	t := s.t
	span := int64(s.cfg.ChunkSpan(st.Chunk) * s.cfg.TokenBytes)
	s.idsScratch = llm.TokenIDs(s.idsScratch, s.digest, st.Chunk, s.cfg.ChunkSpan(st.Chunk), s.cfg.TokenBytes)
	ids := s.idsScratch
	if s.step == nil || !s.step.Fits(len(ids)) {
		// First decode step, or the window's slots are spent. Only the
		// final chunk is ever shorter than this one, so the channel this
		// step sizes fits every later step.
		s.releaseStepLocked()
		ch, err := t.Adaptor.OpenStepChannel(s.idsName, s.outName, span)
		if err != nil {
			return nil, err
		}
		s.step = ch
	}
	src, err := t.Adaptor.ArmStep(s.step, ids)
	if err != nil {
		return nil, err
	}
	cmds := s.stepCommands(st, src, len(ids), s.step.Out.Buf.Base(), span)
	staged := [1]*adaptor.Region{s.step.Window}
	return t.run(s.sctx, cmds[:], staged[:], s.step.Out, span)
}
