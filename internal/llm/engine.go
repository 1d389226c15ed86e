package llm

import (
	"errors"
	"fmt"
	"sync"

	"ccai/internal/sched"
)

// This file is the continuous-batching serving engine (vLLM-style): a
// step scheduler that interleaves prefill and per-token decode work
// across many live sessions, with KV-cache accounting enforced at
// admission. The engine is deliberately execution-agnostic — it decides
// *which session steps next* and *whether its KV fits*, while the
// platform layer (ccai.InferenceSession) owns staging, sealing and the
// device. Fairness and token-granular yielding come from the same DRR
// queue the serving Scheduler uses (internal/sched): each session is a
// flow with exactly one live entry, re-armed at the tail after every
// step via Fair.Yield, so a long decode never monopolizes a dispatch
// slot.

// Sentinel errors. The public ccai layer aliases/wraps these; errors.Is
// matches through the wrapping.
var (
	// ErrKVBudget is returned at admission when the session's KV-cache
	// reservation does not fit the engine's protected-memory budget.
	ErrKVBudget = errors.New("llm: KV-cache budget exceeded")
	// ErrEngineClosed is returned for operations on a closed engine.
	ErrEngineClosed = errors.New("llm: engine closed")
	// ErrSessionDone is returned when stepping a finished session.
	ErrSessionDone = errors.New("llm: session finished")
)

// Config describes one streaming inference session: the model shape,
// how many tokens to generate, and the scaled-down KV staging model.
// Token counts and KV bytes here are serving-scale simulation units —
// KVBytesPerToken defaults far below ModelSpec.KVBytesPerToken() so a
// session's pinned region fits the simulated device memory — but the
// residency protocol (sealed once at admission, resident across decode
// steps) is exactly the paper's.
type Config struct {
	// Model labels the session and, when set, shapes the analytic
	// overhead accounting. Optional for the live datapath.
	Model ModelSpec
	// MaxNewTokens is the number of tokens to generate (required ≥ 1).
	MaxNewTokens int
	// MaxPromptTokens bounds the prompt the session may Prefill
	// (default 128). KV budget is reserved for the bound at admission —
	// the vLLM discipline: a session never grows its reservation
	// mid-decode, so admission is the only place that can fail on
	// memory.
	MaxPromptTokens int
	// ChunkTokens is the number of tokens per streamed decode chunk
	// (default 8): prefill emits chunk 0, each decode step one more.
	ChunkTokens int
	// TokenBytes is the wire size of one token in the decode stream
	// (default 4: a sampled token id).
	TokenBytes int
	// KVBytesPerToken is the per-token KV-cache reservation charged
	// against the engine budget and staged into protected device memory
	// (default 64; scaled, see above).
	KVBytesPerToken int64
	// Seed makes the session's token stream deterministic; same seed +
	// same prompt ⇒ byte-identical chunks.
	Seed uint64
}

// Defaults for Config's zero fields.
const (
	DefaultChunkTokens     = 8
	DefaultTokenBytes      = 4
	DefaultKVBytesPerToken = 64
	DefaultMaxPromptTokens = 128
)

// Normalize applies defaults and validates; it is idempotent.
func (c *Config) Normalize() error {
	if c.MaxNewTokens < 1 {
		return fmt.Errorf("llm: MaxNewTokens must be ≥ 1, got %d", c.MaxNewTokens)
	}
	if c.ChunkTokens <= 0 {
		c.ChunkTokens = DefaultChunkTokens
	}
	if c.TokenBytes <= 0 {
		c.TokenBytes = DefaultTokenBytes
	}
	if c.KVBytesPerToken <= 0 {
		c.KVBytesPerToken = DefaultKVBytesPerToken
	}
	if c.MaxPromptTokens <= 0 {
		c.MaxPromptTokens = DefaultMaxPromptTokens
	}
	return nil
}

// Chunks reports the session's total decode-chunk count: chunk 0 comes
// out of prefill, the rest out of decode steps.
func (c Config) Chunks() int {
	return (c.MaxNewTokens + c.ChunkTokens - 1) / c.ChunkTokens
}

// ChunkSpan reports how many tokens chunk idx carries (the final chunk
// may be short).
func (c Config) ChunkSpan(idx int) int {
	rem := c.MaxNewTokens - idx*c.ChunkTokens
	if rem > c.ChunkTokens {
		return c.ChunkTokens
	}
	if rem < 0 {
		return 0
	}
	return rem
}

// KVBytes is the session's KV-cache reservation for promptTokens of
// context plus the full generation budget — reserved at admission, the
// vLLM "no mid-decode OOM" discipline.
func (c Config) KVBytes(promptTokens int) int64 {
	return int64(promptTokens+c.MaxNewTokens) * c.KVBytesPerToken
}

// StepKind labels one engine dispatch.
type StepKind int

const (
	// StepPrefill processes the whole prompt and emits chunk 0.
	StepPrefill StepKind = iota
	// StepDecode advances every sequence one chunk of tokens.
	StepDecode
)

func (k StepKind) String() string {
	if k == StepPrefill {
		return "prefill"
	}
	return "decode"
}

// SessionState is the engine's view of one live session.
type SessionState struct {
	// ID is the engine-assigned admission ordinal (1, 2, ...): the
	// admit-order log entries are these IDs.
	ID uint64
	// Cfg is the normalized session config.
	Cfg Config
	// PromptTokens is the admitted prompt length.
	PromptTokens int
	// KVBytes is the reservation charged against the engine budget.
	KVBytes int64
	// Owner is an opaque caller handle carried through Next (the public
	// layer stores its *InferenceSession here).
	Owner any

	slot      int // fair-queue flow index
	nextChunk int // next chunk to produce; 0 ⇒ prefill pending
	done      bool
	released  bool
	entry     *sched.Entry
	step      Step // the one step in flight (Engine.Next)
}

// Step is one dispatch decision: session s performs kind, producing
// chunk Chunk. It is the session's to reuse: valid until Complete, Fail
// or Requeue settles it.
type Step struct {
	S     *SessionState
	Kind  StepKind
	Chunk int

	entry *sched.Entry
}

// StepRecord is one line of the engine's step log, written when the
// step is settled — the artifact the same-seed determinism test
// compares across runs.
type StepRecord struct {
	Session uint64
	Kind    StepKind
	Chunk   int
}

// MaxSessions bounds concurrently admitted sessions: the engine's
// session slots, one fair-queue flow each.
const MaxSessions = 32

// EngineConfig parameterizes an Engine. The zero value serves: 1 MiB
// KV budget and a 256-byte step quantum over MaxSessions slots.
type EngineConfig struct {
	// KVBudget bounds the summed KV reservations of live sessions
	// (bytes of protected device memory, default 1 MiB).
	KVBudget int64
	// Workers is a hint to the serving layer: how many dispatcher
	// goroutines pull steps concurrently (default 2; 1 gives a fully
	// deterministic dispatch order). The engine itself is
	// worker-agnostic.
	Workers int
}

// Engine is the continuous-batching step scheduler. All methods are
// safe for concurrent use; dispatch determinism with a single consumer
// is what the determinism tests pin.
type Engine struct {
	mu     sync.Mutex
	q      *sched.Fair
	cfg    EngineConfig
	used   int64
	free   []int
	nextID uint64
	closed bool

	// log keeps the last StepLogCap settled-step records.
	log ring[StepRecord]
}

// StepLogCap bounds the step log: a serving chassis keeps the most
// recent records, not one per token it ever served.
const StepLogCap = 4096

// stepQuantum is the DRR deficit quantum in bytes: small, because
// decode steps are small.
const stepQuantum = 256

// ring holds the last StepLogCap values added: head is the oldest
// value's index once the ring has wrapped.
type ring[T any] struct {
	buf  []T
	head int
}

// add appends v, overwriting the oldest value once StepLogCap are kept.
func (r *ring[T]) add(v T) {
	if len(r.buf) < StepLogCap {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % StepLogCap
}

// ordered copies the values out oldest first.
func (r *ring[T]) ordered() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}

// NewEngine builds an engine.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if cfg.KVBudget <= 0 {
		cfg.KVBudget = 1 << 20
	}
	// Depth 2: one live entry per session, plus headroom for the
	// requeue path.
	q, err := sched.New(sched.Config{Flows: MaxSessions, Depth: 2, Quantum: stepQuantum})
	if err != nil {
		return nil, err
	}
	e := &Engine{q: q, cfg: cfg, free: make([]int, 0, MaxSessions)}
	for i := MaxSessions - 1; i >= 0; i-- {
		e.free = append(e.free, i) // pop order: slot 0 first
	}
	return e, nil
}

// KVInUse reports the summed live KV reservations. A test seam:
// chassisHygiene checks a chassis whose sessions are all closed holds
// none.
func (e *Engine) KVInUse() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.used
}

// Pending reports steps queued across all sessions — started sessions
// whose next step has not been dispatched. A test seam: chassisHygiene
// checks a chassis whose sessions are all closed has none.
func (e *Engine) Pending() int { return e.q.Pending() }

// Admit reserves KV budget and a session slot. It does not queue any
// work yet — Start does, once the caller has a prompt. Failure modes:
// ErrEngineClosed, ErrKVBudget (reservation does not fit), and
// sched.ErrQueueFull (no free session slot).
func (e *Engine) Admit(cfg Config, promptTokens int, owner any) (*SessionState, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	if promptTokens < 1 {
		return nil, fmt.Errorf("llm: prompt must be ≥ 1 token, got %d", promptTokens)
	}
	kv := cfg.KVBytes(promptTokens)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrEngineClosed
	}
	if e.used+kv > e.cfg.KVBudget {
		return nil, fmt.Errorf("%w: session needs %d B, %d of %d B in use",
			ErrKVBudget, kv, e.used, e.cfg.KVBudget)
	}
	if len(e.free) == 0 {
		return nil, fmt.Errorf("%w: all %d session slots live", sched.ErrQueueFull, MaxSessions)
	}
	slot := e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	e.used += kv
	e.nextID++
	s := &SessionState{
		ID: e.nextID, Cfg: cfg, PromptTokens: promptTokens,
		KVBytes: kv, Owner: owner, slot: slot,
	}
	return s, nil
}

// Start queues the session's prefill step. The DRR cost covers what
// the step moves through the per-step sealed path (the prompt up, a
// chunk down) — NOT the KV image: residency bytes are admission
// controlled by the KV budget, and charging them here would gate a new
// session's first token behind thousands of quantum top-up rounds,
// serializing sessions instead of continuously batching them.
func (e *Engine) Start(s *SessionState) error {
	cost := int64(s.PromptTokens*s.Cfg.TokenBytes) + s.stepCost()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrEngineClosed
	}
	if s.done || s.released {
		return ErrSessionDone
	}
	if s.entry != nil {
		return fmt.Errorf("llm: session %d already started", s.ID)
	}
	entry, err := e.q.Push(s.slot, cost, s)
	if err != nil {
		return err
	}
	s.entry = entry
	return nil
}

// stepCost is the per-decode-step DRR charge: the sealed bytes one
// step moves (token ids up, chunk down).
func (s *SessionState) stepCost() int64 {
	return int64(2 * s.Cfg.ChunkTokens * s.Cfg.TokenBytes)
}

// Next blocks for the next dispatchable step, interleaving sessions
// under DRR fairness. Returns false when the engine is closed (or stop
// fires) and nothing remains.
func (e *Engine) Next(stop <-chan struct{}) (*Step, bool) {
	for {
		entry, ok := e.q.Next(stop)
		if !ok {
			return nil, false
		}
		s := entry.Value.(*SessionState)
		e.mu.Lock()
		if s.done || s.released {
			// Closed under us between queue and dispatch; drop it.
			e.mu.Unlock()
			e.q.Release(entry.Flow)
			continue
		}
		kind := StepDecode
		if s.nextChunk == 0 {
			kind = StepPrefill
		}
		// A session has one step in flight (its flow is busy until the
		// step is settled), so the step lives in the session.
		s.step = Step{S: s, Kind: kind, Chunk: s.nextChunk, entry: entry}
		e.mu.Unlock()
		return &s.step, true
	}
}

// Complete logs the step's success and re-arms the session: the
// entry yields to the tail of its flow for the next decode step
// (token-granular preemption — competing sessions are served in
// between), or retires when the last chunk is out. It reports whether
// more steps remain.
func (e *Engine) Complete(st *Step) bool {
	e.mu.Lock()
	s := st.S
	e.log.add(StepRecord{Session: s.ID, Kind: st.Kind, Chunk: st.Chunk})
	s.nextChunk++
	more := s.nextChunk < s.Cfg.Chunks() && !s.done
	if !more {
		s.done = true
		s.entry = nil
	}
	e.mu.Unlock()
	if more {
		if !e.q.Yield(st.entry, s.stepCost()) {
			// Queue closed under us: the session cannot step again.
			e.mu.Lock()
			s.done = true
			s.entry = nil
			e.mu.Unlock()
			more = false
		}
	}
	e.q.Release(st.entry.Flow)
	return more
}

// Fail logs the step and retires the session after a terminal step
// error; the flow slot frees for other work (budget stays reserved
// until Release).
func (e *Engine) Fail(st *Step) {
	e.mu.Lock()
	e.log.add(StepRecord{Session: st.S.ID, Kind: st.Kind, Chunk: st.Chunk})
	st.S.done = true
	st.S.entry = nil
	e.mu.Unlock()
	e.q.Release(st.entry.Flow)
}

// Requeue undoes a claimed-but-unexecuted dispatch (fault injection,
// preemption): the entry returns to the head of its flow with its
// deficit refunded. Nothing was logged at the claim, so the log still
// holds settled steps only. A session released while its step was
// claimed has nothing to come back to, so its entry is dropped.
func (e *Engine) Requeue(st *Step) {
	// Under e.mu, a Release either came first and is seen here, or comes
	// after and cancels the requeued entry.
	e.mu.Lock()
	if !st.S.released {
		e.q.Requeue(st.entry)
	}
	e.mu.Unlock()
	e.q.Release(st.entry.Flow)
}

// Release frees the session's KV reservation and slot — the
// deterministic teardown behind InferenceSession.Close. Idempotent; a
// still-queued entry is cancelled first.
func (e *Engine) Release(s *SessionState) {
	e.mu.Lock()
	if s.released {
		e.mu.Unlock()
		return
	}
	s.released = true
	s.done = true
	entry := s.entry
	s.entry = nil
	e.used -= s.KVBytes
	e.free = append(e.free, s.slot)
	e.mu.Unlock()
	if entry != nil {
		e.q.Cancel(entry)
	}
}

// Close stops admission and wakes Next consumers once queued work
// drains.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.q.Close()
}

// StepLog returns a copy of the retained tail of the step log — the
// last StepLogCap steps settled by Complete or Fail (session ID, kind,
// chunk), in settle order, oldest first. A test seam: the protocol
// model and the determinism cells read which step settled.
func (e *Engine) StepLog() []StepRecord {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.log.ordered()
}
