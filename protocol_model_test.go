package ccai

// One protocol model of a protected slice's SC session, run in lockstep
// with tenant 0 of a one-tenant chassis. A trace is a script of ops —
// tasks, rekeys, exhaustion, cancellation, teardown, re-trust,
// attestation of flashed firmware, up to two inference sessions and
// their steps, and host adversity — optionally followed by a fault plan
// (fault.Plan.Marshal) injected for the whole script. After every op the
// harness compares what refSession predicts with what the slice reports
// through its accessors, and checks the invariants of DESIGN.md §6 (I1–
// I8) and "no IV reuse" as assertions of the model.
//
// The fault matrix, the RQ2 tamper, replay, redirect, drop, rogue,
// forged-config and IV-exhaustion cells, the ring's doorbell-drop and
// desync cells, the step-channel attack cells and the decode-step,
// prefill and mid-decode rekey fault cells are saved traces in
// testdata/fuzz/FuzzProtocolTrace, the corpus FuzzProtocolTrace explores
// from.
//
// Quickstart: go test -run 'TestFaultMatrix|FuzzProtocolTrace' -v

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ccai/internal/adaptor"
	"ccai/internal/attack"
	"ccai/internal/core"
	"ccai/internal/fault"
	"ccai/internal/llm"
	"ccai/internal/mem"
	"ccai/internal/pcie"
	"ccai/internal/secmem"
	"ccai/internal/xpu"
)

// A trace's ops are one byte each, optionally followed by one decimal
// digit, the op's argument (0 when absent); bytes that name no op are
// skipped, so any byte string is a script:
//
//	t<d> run traceTasks[d]
//	k0   rekey h2d; k1 rekey d2h
//	x    h2d counter at 2^32-9, then one task
//	r    re-establish trust on a slice with no session
//	a    a flashed-firmware slice, under the same plan, must not attest
//	b    a task cancelled before the doorbell
//	c    a task cancelled after collect
//	z    tear the session down
//	.    end the fault episode: the injector leaves the host bus
//	T<d> tamper: T0 H2D data, T1 the D2H result, T2 an A3 write, T3 ring
//	     framing, T4 a command run, T5 H2D data cut short
//	D<d> drop: D0 an H2D data completion, D1 the ring doorbell, D2 a
//	     command-run completion
//	R    the SC's result writes re-aimed into host memory
//	P    every TVM write recorded this generation, replayed
//	G    an unauthorized requester at the xPU window and control BAR
//	F    forged policy: ring entries and writes without the config key
//
// and, on inference sessions (traceSessions) served by the tenant's one
// dispatcher, whose steps pass a gate one at a time:
//
//	o<d> open session d (0 or 1) and take its stream
//	p<d> call session d's Prefill: its step is queued, not run
//	s    run one step, of whichever session the dispatcher takes next
//	w<d> run steps until session d has spent its step window
//	q<d> abort session d's stream through its Decode context
//	e<d> close session d
//	S<d> the next step attacked: S0 a forged counter, S1 a suppressed
//	     arm, S2 a replayed step, S3 a stale output, S4 a lost and S5 a
//	     duplicated step doorbell
//	M<d> a misaimed arm: M0 past the window, M1 a wrapped slot index, M2
//	     a window that does not exist, M3 a consumed slot, M4 a released
//	     window (riding a task when no step is queued), M5 the step's own
//	     arms into the other session's window, M6 a slot ahead (accepted)
//	L<d> the d-th h2d tag record of the next step lost at the SC
//
// With a step queued, k and x apply to the next decode step: the rekey,
// or the counter at 2^32-9, lands between two steps and one step runs.
const (
	traceOpCodes = "tkxrabcz.TDRPGFopswqeSML"
	maxTraceOps  = 32 // a script's length bound, so a fuzz input stays fast
)

type traceOp struct{ code, arg byte }

func (o traceOp) String() string { return string(o.code) + strconv.Itoa(int(o.arg)) }

// planMagic opens a marshalled fault.Plan: where it first appears, the
// script ends and the plan begins.
var planMagic = fault.Plan{}.Marshal()[:4]

// decodeTrace splits a trace into its ops and its fault plan; ok is
// false when the plan does not decode.
func decodeTrace(data []byte) (ops []traceOp, plan fault.Plan, ok bool) {
	if i := bytes.Index(data, planMagic); i >= 0 {
		var err error
		if plan, err = fault.UnmarshalPlan(data[i:]); err != nil {
			return nil, plan, false
		}
		data = data[:i]
	}
	for i := 0; i < len(data) && len(ops) < maxTraceOps; i++ {
		if strings.IndexByte(traceOpCodes, data[i]) < 0 {
			continue
		}
		op := traceOp{code: data[i]}
		if i+1 < len(data) && data[i+1] >= '0' && data[i+1] <= '9' {
			i++
			op.arg = data[i] - '0'
		}
		ops = append(ops, op)
	}
	return ops, plan, true
}

// traceTasks are the tasks a script runs: t0…t7, and those the other
// ops run.
var traceTasks = [...]Task{
	{Input: taskInput(), Kernel: KernelXOR, Param: 0x5a},
	{Input: []byte("matrix cell second task, shorter payload"), Kernel: KernelAdd, Param: 3},
	{Input: taskInput(), Kernel: KernelAdd, Param: 2},
	// Param 0: the result is the input, canary included, so its D2H path
	// must be sealed too.
	{Input: taskInput(), Kernel: KernelAdd, Param: 0},
	{Input: []byte("cmd tamper"), Kernel: KernelAdd, Param: 0},
	{Input: taskInput(), Kernel: KernelAdd, Param: 1},
	{Input: make([]byte, 4096), Kernel: KernelXOR, Param: 0x5a}, // the cancelled task
	{Input: []byte("exhaustion probe"), Kernel: KernelAdd, Param: 1},
}

// want is the task's exact result.
func (tk Task) want() []byte {
	out := make([]byte, len(tk.Input))
	for i, b := range tk.Input {
		if tk.Kernel == KernelXOR {
			out[i] = b ^ byte(tk.Param)
		} else {
			out[i] = b + byte(tk.Param)
		}
	}
	return out
}

// --- the model ----------------------------------------------------------------

// The streams the model follows, in the order of its arrays. The Adaptor
// seals h2d and config, the SC seals d2h.
var modelStreams = [...]string{core.StreamH2D, core.StreamD2H, core.StreamConfig}

const (
	sH2D = iota
	sD2H
	sConfig
)

// sliceState is a slice's protocol state as its accessors report it,
// and as refSession predicts it.
type sliceState struct {
	// Trusted is whether the slice holds a session (traceRun.live).
	Trusted bool
	// EpochA is the Adaptor's key epoch of h2d and d2h, EpochSC the SC's
	// of all three streams; all zero while no session is live.
	EpochA  [2]uint32
	EpochSC [3]uint32
	// IV is the last epoch<<32|counter each stream sealed under this
	// trust generation; zero before the first seal after bring-up.
	IV               [3]uint64
	Regions, Tags    int
	Tail             uint64
	MMIOA, MMIOSC    uint32
	Active           int
	SCKeys, TVMKeys  int
	HostBuffersAlive int
}

// refSession is the reference model of one slice's SC session: trust
// generation, per-stream key epochs and send counters, live regions (the
// command ring between tasks), pending tags (none between ops), the
// command ring's tail and the A3 MMIO sequence.
type refSession struct {
	gen   int
	state sliceState
	ctr   [3]uint32 // each stream's send counter in its current epoch
	// buffers is the host buffers a trusted slice holds between ops, read
	// once after the first bring-up: every generation holds as many.
	buffers int
	// held is the SC regions and host buffers the sessions the model
	// predicts hold.
	held [2]int
	// lag is the state a fault left the slice in, behind the model: the
	// SC holding releases or a rekey a cut-short flush left queued on the
	// producer's side of the ring (the next flush publishes them), or MAC
	// records a recovery kick re-posted for a command run the device had
	// already read (replaced when the slot comes round). From there the
	// slice may only converge on the model; nil once it has.
	lag *sliceState
}

// Bring-up leaves the command ring as the one live region, its
// descriptor the one config seal, four guarded writes behind, three
// stream contexts on the SC and four keys on each end. A task that
// reaches the doorbell is three commands and two guarded writes.
const (
	trustRegions = 1
	trustMMIO    = 4
	taskCommands = 3
	taskMMIO     = 2
)

var bringUpCtr = [3]uint32{sConfig: 1}

func (m *refSession) trust() {
	m.gen, m.ctr, m.lag = m.gen+1, bringUpCtr, nil
	m.state = sliceState{Trusted: true, Regions: trustRegions, MMIOA: trustMMIO, MMIOSC: trustMMIO,
		Active: 3, SCKeys: 4, TVMKeys: 4, HostBuffersAlive: m.buffers + m.held[1]}
}

// teardown is a session torn down, by Close or fail-closed: keys, stream
// contexts, regions and the A3 sequence gone on both ends. The driver's
// tail and the staging memory stay until the next bring-up.
func (m *refSession) teardown() {
	s := &m.state
	s.Trusted, s.EpochA, s.EpochSC, m.lag = false, [2]uint32{}, [3]uint32{}, nil
	s.Regions, s.Tags, s.MMIOA, s.MMIOSC, s.Active, s.SCKeys, s.TVMKeys = 0, 0, 0, 0, 0, 0, 0
	m.held[0] = 0
}

func (m *refSession) seal(i int, n uint32) {
	if n > 0 {
		m.ctr[i] += n
		m.state.IV[i] = uint64(m.state.EpochSC[i])<<32 | uint64(m.ctr[i])
	}
}

// chunks is how many IV counters n bytes consume.
func chunks(n int) uint32 { return uint32((n + core.ChunkSize - 1) / core.ChunkSize) }

// stage is a task's staging: its input sealed under h2d, its input and
// output descriptors under config.
func (m *refSession) stage(tk Task) {
	m.seal(sH2D, chunks(len(tk.Input)))
	m.seal(sConfig, 2)
}

// submit is a staged task rung and collected.
func (m *refSession) submit(tk Task) { m.rung(taskCommands, chunks(int(tk.outLen()))) }

// rung is a submission of n commands rung and collected, its result
// sealed in d2h chunks.
func (m *refSession) rung(n uint64, d2h uint32) {
	m.seal(sD2H, d2h)
	m.state.Tail += n
	m.state.MMIOA += taskMMIO
	m.state.MMIOSC += taskMMIO
}

// rekey rotates stream i: one rekey command sealed under config, a new
// epoch on both ends.
func (m *refSession) rekey(i int) {
	m.seal(sConfig, 1)
	m.ctr[i] = 0
	m.state.EpochSC[i]++
	m.state.EpochA[i]++
}

// adopt takes the slice's state as the model's after an op the model
// could not predict. What a fault left queued is expected to land — the
// SC's regions and tags back at the quiet counts, its epochs at the
// Adaptor's — and the send counters are read back from the last IVs.
func (m *refSession) adopt(s sliceState) {
	m.state, m.lag = s, nil
	if s.Trusted {
		quiet := s
		quiet.Regions, quiet.Tags = trustRegions+m.held[0], 0
		quiet.EpochSC[sH2D], quiet.EpochSC[sD2H] = s.EpochA[sH2D], s.EpochA[sD2H]
		if quiet != s {
			m.state, m.lag = quiet, &s
		}
	}
	for i, iv := range s.IV {
		switch {
		case iv>>32 < uint64(m.state.EpochSC[i]):
			m.ctr[i] = 0 // rekeyed since its last seal
		case iv != 0:
			m.ctr[i] = uint32(iv)
		default:
			m.ctr[i] = bringUpCtr[i]
		}
	}
}

// converging is the state the model accepts after a quiet op while the
// slice lags: the SC's regions and tags falling toward the quiet counts,
// its key epochs rising to the Adaptor's.
func (m *refSession) converging(got sliceState) sliceState {
	// A fault that left the A3 sequences apart — records lost or still
	// queued — settles at the next guarded write on one end's; the writes
	// refused on the way leave their MAC records queued at the SC.
	s := &m.state
	if s.MMIOA != s.MMIOSC && got.MMIOA == got.MMIOSC && (got.MMIOA == s.MMIOA || got.MMIOA == s.MMIOSC) {
		s.MMIOA, s.MMIOSC = got.MMIOA, got.MMIOA
		if m.lag == nil || m.lag.Tags < got.Tags {
			lag := got
			m.lag = &lag
		}
	}
	want, l := m.state, m.lag
	if l == nil || !got.Trusted {
		return want
	}
	if got.Regions >= want.Regions && got.Regions <= l.Regions && got.Tags <= l.Tags {
		want.Regions, want.Tags = got.Regions, got.Tags
	}
	for i, e := range got.EpochSC {
		if e >= l.EpochSC[i] && e <= want.EpochSC[i] {
			want.EpochSC[i] = e
		}
	}
	if *l = want; want == m.state {
		m.lag = nil
	}
	return want
}

// ivAuditor records every (stream, epoch, counter) any seal consumed on
// either end. A repeat is an IV reuse — the one GCM failure no fault is
// ever allowed to cause.
type ivAuditor struct {
	mu     sync.Mutex
	seen   map[string]map[uint64]bool
	last   map[string]uint64
	reused []string
}

func newIVAuditor() *ivAuditor {
	return &ivAuditor{seen: make(map[string]map[uint64]bool), last: make(map[string]uint64)}
}

func (a *ivAuditor) hook(stream string) func(epoch, counter uint32) {
	return func(epoch, counter uint32) {
		a.mu.Lock()
		defer a.mu.Unlock()
		m := a.seen[stream]
		if m == nil {
			m = make(map[uint64]bool)
			a.seen[stream] = m
		}
		k := uint64(epoch)<<32 | uint64(counter)
		if m[k] {
			a.reused = append(a.reused, fmt.Sprintf("%s epoch=%d counter=%d", stream, epoch, counter))
		}
		m[k] = true
		a.last[stream] = k
	}
}

func (a *ivAuditor) reuses() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.reused...)
}

// lastIV is the last epoch<<32|counter stream sealed under.
func (a *ivAuditor) lastIV(stream string) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.last[stream]
}

// wireFault threads the injector into every injection point a slice
// has: the device, the untrusted host segment, and — once there are keys
// — the Adaptor's stream replicas and the SC's tag manager. A point
// whose classes the plan does not name never fires.
func wireFault(pl *pipeline, host *pcie.Bus, inj *fault.Injector) {
	pl.dev.SetFaultHook(inj.DeviceFault)
	host.AddTap(inj)
	if pl.trusted {
		pl.Adaptor.InstallCryptoFault(inj.CryptoFault)
		pl.SC.Tags().SetFaultHook(inj.TagFault)
	}
}

// --- the harness --------------------------------------------------------------

// traceRun is one trace in flight: the live slice (p, tenant 0 of the
// chassis mp), its model, the injector and the instruments the
// invariants read.
type traceRun struct {
	t     *testing.T
	mp    *MultiPlatform
	p     *Tenant
	m     refSession
	plan  fault.Plan
	inj   *fault.Injector
	extra pcie.Tap // a tap of the trace's caller, standing first
	audit *ivAuditor
	snoop *attack.Snooper
	rec   *attack.Recorder
	at    string // the op in flight, for failure messages
	// episode is whether the injector is still on the host bus; errs are
	// the outcomes of the tasks run in it, sig the outcome line taken
	// when it ends — the injector's log appended once the trace has run.
	episode bool
	errs    []bool
	sig     string
	// unjudged counts the adversary ops no verdict was taken on, strayed
	// the steps the model did not predict of a session never attacked, of
	// this trust generation, on a live slice: a saved trace has neither
	// (playTrace).
	unjudged, strayed int
	// poisoned marks a generation the model no longer predicts exactly:
	// the host advanced its ring behind the producer's back (F) or rang
	// it backwards (P), or a failed submission left its commands in the
	// driver's ring (leftCommands, from the end of the op that did). moved
	// says the op just run advanced the ring.
	poisoned, moved, leftCommands bool

	// The sessions and the gate their steps pass; the steps settled so
	// far, and the snooped packets the op's steps have read; the last arm
	// seen of every step window, and the last window released; the token
	// ids of the op's steps, for I1. attacking marks an op whose step runs
	// under a step attack.
	sess          [2]*traceStream
	gate          *workerGate
	settled, seen int
	fired         uint64 // the faults fired when the op began
	arms          map[uint32]armEntry
	released      uint32
	canaries      [][]byte
	attacking     bool
	pre           traceStream // the session last stepped, as the step found it
	landing       *mem.Buffer // a redirect's landing buffer
}

// runTrace plays one trace on tenant 0 of a fresh one-tenant chassis,
// its one inference worker behind the step gate, and returns the run:
// its outcome line sig — each pre-calm task's error, the faults fired,
// the trusted flag and the recovery counters when the episode ended,
// then the injector's whole log — its injector and its unjudged and
// strayed counts.
func runTrace(t *testing.T, data []byte) *traceRun { return runTraceWith(t, data, nil) }

// runTraceWith is runTrace with extra, when non-nil, standing first on
// the host bus for the whole trace.
func runTraceWith(t *testing.T, data []byte, extra func(*pcie.Bus) pcie.Tap) *traceRun {
	t.Helper()
	ops, plan, ok := decodeTrace(data)
	if !ok {
		t.Fatal("the trace's fault plan does not decode")
	}
	mp := llmChassis(t, []xpu.Profile{xpu.A100}, WithLLMEngine(llm.EngineConfig{Workers: 1}))
	r := &traceRun{t: t, mp: mp, p: mp.Tenants[0], plan: plan, inj: fault.NewInjector(plan),
		audit: newIVAuditor(), snoop: attack.NewSnooper(), episode: true, gate: gateSteps(t, mp),
		arms: make(map[uint32]armEntry)}
	r.rec = &attack.Recorder{Match: func(pk *pcie.Packet) bool { return pk.Kind == pcie.MWr && pk.Requester == TVMID }}
	if extra != nil {
		r.extra = extra(mp.Host)
		r.mp.Host.AddTap(r.extra)
	}
	r.m.buffers = r.p.Guest.Space.Live()
	r.m.trust()
	r.auditGeneration()
	r.mp.Host.AddTap(r.snoop)
	r.mp.Host.AddTap(r.rec)
	wireFault(&r.p.pipeline, r.mp.Host, r.inj)
	for i, op := range ops {
		r.at = fmt.Sprintf("op %d %v", i, op)
		r.step(op)
	}
	if r.episode {
		r.calm()
	}
	r.sig = fmt.Sprintf("%s log=%v", r.sig, r.inj.Log())
	// Whatever the script left — open sessions, releases a fault kept
	// queued on the producer's side of the ring — teardown takes it all
	// (I6).
	r.at = "final teardown"
	r.end(0, true)
	r.end(1, true)
	r.close()
	return r
}

func (r *traceRun) failf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("%s: %s", r.at, fmt.Sprintf(format, args...))
}

// auditGeneration hooks the IV auditor into the generation's seal
// sides: the Adaptor's h2d and config replicas, the SC's d2h stream.
func (r *traceRun) auditGeneration() {
	for _, s := range []string{core.StreamH2D, core.StreamConfig} {
		if err := r.p.Adaptor.AuditIVs(s, r.audit.hook(r.ivName(s))); err != nil {
			r.t.Fatal(err)
		}
	}
	d2h, err := r.p.SC.Params().Stream(core.StreamD2H)
	if err != nil {
		r.t.Fatal(err)
	}
	d2h.SetIVAudit(r.audit.hook(r.ivName(core.StreamD2H)))
}

// ivName names a stream per trust generation: each has keys of its own.
func (r *traceRun) ivName(stream string) string { return fmt.Sprintf("%s#%d", stream, r.m.gen) }

// live is whether the slice holds a session.
func (r *traceRun) live() bool { return r.p.trusted }

// tail is the driver's command-ring tail: none before a bring-up got a
// driver up.
func (r *traceRun) tail() uint64 {
	if r.p.Driver == nil {
		return 0
	}
	return r.p.Driver.Tail()
}

// observe reads the slice's protocol state through its accessors.
func (r *traceRun) observe() sliceState {
	p := r.p
	s := sliceState{Trusted: r.live(), Regions: p.SC.Regions(), Tags: p.SC.Tags().Depth(),
		Tail: r.tail(), MMIOA: p.Adaptor.MMIOSeq(), MMIOSC: p.SC.MMIOSeq(),
		Active: p.SC.Params().Active(), SCKeys: p.scKeys.Count(), TVMKeys: p.tvmKeys.Count(),
		HostBuffersAlive: p.Guest.Space.Live()}
	for i, name := range modelStreams {
		s.IV[i] = r.audit.lastIV(r.ivName(name))
		if !s.Trusted {
			continue
		}
		if i < len(s.EpochA) {
			s.EpochA[i] = p.Adaptor.StreamEpoch(name)
		}
		if st, err := p.SC.Params().Stream(name); err == nil {
			s.EpochSC[i] = st.Epoch()
		}
	}
	return s
}

// step runs one op on the model and the slice, then holds them to each
// other and to the invariants that hold after every op.
func (r *traceRun) step(op traceOp) {
	p := r.p
	before, fired, exact := r.observe(), r.inj.TotalFired(), !r.poisoned && r.sessionsKnown()
	r.fired = fired
	moved := r.moved
	r.moved = false
	switch op.code {
	case 't':
		err := r.task(traceTasks[int(op.arg)%len(traceTasks)], moved)
		if r.episode {
			r.errs = append(r.errs, err != nil)
		}
	case 'k':
		s := int(op.arg) % 2
		err := p.Adaptor.RekeyStream(modelStreams[s])
		if before.Trusted {
			r.m.rekey(s)
		} else if err == nil {
			r.failf("a session that is gone was rekeyed")
		}
		r.runStep()
	case 'x':
		r.exhaust()
	case 'r':
		r.retrust(before.Trusted)
	case 'a':
		r.attestFlashed()
	case 'b', 'c':
		r.cancel(op.code == 'c')
	case 'z':
		r.close()
	case '.':
		if r.episode {
			r.calm()
		}
	case 'T', 'D', 'R', 'S', 'M', 'L':
		r.attack(op)
	case 'o':
		r.open(int(op.arg) % 2)
	case 'p':
		r.startPrefill(int(op.arg) % 2)
	case 'w':
		r.window(int(op.arg) % 2)
	case 's':
		r.runStep()
	case 'q', 'e':
		r.end(int(op.arg)%2, op.code == 'e')
	case 'P':
		r.replay()
	case 'G':
		r.rogue()
	case 'F':
		r.forge()
	}

	r.checkWire()
	r.poisoned, r.leftCommands = r.poisoned || r.leftCommands, false
	got := r.observe()
	if before.Trusted && !got.Trusted {
		r.downModel() // failed closed: the model follows the slice down
	}
	// Fault-free, on a predicted slice, and no attack that may move it:
	// exact — a replay moves nothing. Otherwise the order of the protocol
	// must hold, and the model adopts the slice.
	if exact && r.sessionsKnown() && r.inj.TotalFired() == fired && strings.IndexByte("TDRFSML", op.code) < 0 {
		if want := r.m.converging(got); got != want {
			r.failf("slice left the model:\n model: %+v\n slice: %+v", want, got)
		}
		return
	}
	r.monotone(before, got, r.inj.TotalFired() != fired)
	r.m.adopt(got)
}

// checkWire holds what went over the wire to I1 — no plaintext on the
// untrusted segment, fault or no fault — and to no IV reuse.
func (r *traceRun) checkWire() {
	for _, c := range append(r.canaries, secret) {
		if r.snoop.SawPlaintext(c) {
			r.failf("I1 violated: plaintext %q on the host bus", c)
		}
	}
	r.snoop.Reset()
	r.canaries, r.seen = r.canaries[:0], 0
	if u := r.audit.reuses(); len(u) != 0 {
		r.failf("IV REUSE: %v", u)
	}
}

// monotone holds a slice the model could not predict to the protocol's
// order: a slice with no session holds no key at the TVM, and none,
// nor a stream context or region, at the SC — unless a fault dropped the
// teardown write in this op or an earlier one (I6); within a generation
// no IV, epoch, tail or A3 sequence runs backwards, and the SC is never
// an epoch ahead of the Adaptor.
func (r *traceRun) monotone(before, got sliceState, faulted bool) {
	switch {
	case !got.Trusted:
		scHeld := func(s sliceState) bool { return s.Active+s.SCKeys+s.Regions != 0 }
		if got.TVMKeys != 0 || scHeld(got) && !faulted && (before.Trusted || !scHeld(before)) {
			r.failf("I6 violated: a slice with no session holds state: %+v", got)
		}
		return
	case !before.Trusted:
		return // a fresh generation
	}
	for s := range got.IV {
		if got.IV[s] < before.IV[s] || got.EpochSC[s] < before.EpochSC[s] {
			r.failf("%s ran backwards: %+v after %+v", modelStreams[s], got, before)
		}
	}
	if got.EpochSC[sH2D] > got.EpochA[sH2D] || got.EpochSC[sD2H] > got.EpochA[sD2H] {
		r.failf("the SC is an epoch ahead of the Adaptor: %+v", got)
	}
	if got.Tail < before.Tail || got.MMIOSC < before.MMIOSC {
		r.failf("ring tail or A3 sequence ran backwards: %+v after %+v", got, before)
	}
}

// calm ends the fault episode: the outcome line is taken and the
// injector's tap leaves the host bus. Its device, crypto and tag hooks
// stay.
func (r *traceRun) calm() {
	var b strings.Builder
	for i, e := range r.errs {
		fmt.Fprintf(&b, "err%d=%v ", i+1, e)
	}
	fmt.Fprintf(&b, "fired=%d trusted=%v rec=%+v", r.inj.TotalFired(), r.p.trusted, r.p.Adaptor.Recovery())
	r.sig, r.episode = b.String(), false
	r.resetTaps()
}

// resetTaps leaves the standing taps on the host bus: the extra tap if
// any, the snooper, the recorder and, during the episode, the injector.
func (r *traceRun) resetTaps() {
	r.mp.Host.ClearTaps()
	if r.extra != nil {
		r.mp.Host.AddTap(r.extra)
	}
	r.mp.Host.AddTap(r.snoop)
	r.mp.Host.AddTap(r.rec)
	if r.episode {
		r.mp.Host.AddTap(r.inj)
	}
}

// quiet reports whether an op that started with a session, on a
// predicted slice — nothing a fault left behind still to land — ran with
// no fault firing: its oracles hold exactly.
func (r *traceRun) quiet(live bool, fired uint64) bool {
	return live && !r.poisoned && r.m.lag == nil && r.inj.TotalFired() == fired
}

// run runs tk, holds its output to I2 — the exact result or an error,
// never silently wrong data — and moves the model: a task on a live
// session stages, submits and collects.
//
// The SC's metadata records are held to the task too: one that succeeds
// on a quiet slice moves exactly one — its output region's — to the
// chunks it sealed.
func (r *traceRun) run(tk Task) error {
	live, fired, meta, tail := r.live(), r.inj.TotalFired(), r.metadata(), r.tail()
	out, err := r.p.RunTask(tk)
	if live && err == nil && r.snoop.PayloadBytes() == 0 {
		r.failf("the snooper saw no traffic: I1 checked nothing")
	}
	r.checkWire()
	r.leftCommands = r.leftCommands || r.left(err, tail)
	switch {
	case err != nil && out != nil:
		r.failf("I2 violated: a failed task handed back %d bytes", len(out))
	case err == nil && !bytes.Equal(out, tk.want()):
		r.failf("I2 violated: task result silently corrupted")
	}
	if live {
		r.m.stage(tk)
		r.m.submit(tk)
	}
	if err == nil && r.quiet(live, fired) {
		var moved []uint64
		for i, v := range r.metadata() {
			if v != meta[i] {
				moved = append(moved, v)
			}
		}
		if len(moved) != 1 || moved[0] != uint64(chunks(int(tk.outLen()))) {
			r.failf("the task moved metadata records to %v, want its output region's to %d", moved, chunks(int(tk.outLen())))
		}
	}
	return err
}

// left reports whether a submission that ended err, rung from the
// driver's tail at tail, left its commands in the ring for the next
// doorbell on a slice still trusted: the device runs them against
// regions already released, and that submission fails closed. An
// output refused at collect — ErrAuth, ErrReplay — was read after the
// device had run them all.
func (r *traceRun) left(err error, tail uint64) bool {
	collected := errors.Is(err, secmem.ErrAuth) || errors.Is(err, secmem.ErrReplay)
	return err != nil && !collected && r.live() && r.tail() != tail
}

// metadata is the SC's metadata records — one D2H progress count per
// region ID — as the host-memory page they are DMA-written into, the
// first thing bring-up stages in the shared window, holds them.
func (r *traceRun) metadata() []uint64 {
	page, ok := r.p.Guest.Space.Resolve(sharedBase)
	if !ok || page.Name() != "dma-metadata" {
		r.t.Fatal("no metadata page at the start of the shared window")
	}
	recs := make([]uint64, page.Size()/8)
	for i := range recs {
		recs[i] = binary.LittleEndian.Uint64(page.Bytes()[8*i:])
	}
	return recs
}

// task runs tk: on a quiet slice it succeeds; right after the host moved
// the ring (moved), it fails the session closed. Later on, which of the
// producer's entries the SC skips decides, and the model only adopts.
func (r *traceRun) task(tk Task, moved bool) error {
	live, fired := r.live(), r.inj.TotalFired()
	err := r.run(tk)
	switch {
	case err != nil && r.quiet(live, fired):
		r.failf("a task failed on a quiet slice: %v", err)
	case live && moved && r.inj.TotalFired() == fired && (err == nil || r.live()):
		r.failf("a task over a ring the host moved did not fail closed: %v", err)
	}
	return err
}

// retrust is a fresh trust generation on a slice whose session is gone.
func (r *traceRun) retrust(live bool) {
	p, fired := r.p, r.inj.TotalFired()
	if live {
		return
	}
	if err := p.EstablishTrust(); err != nil {
		if p.trusted || p.tvmKeys.Count() != 0 {
			r.failf("a failed bring-up (%v) left the slice trusted, or keys at the TVM (I6)", err)
		}
		r.m.adopt(r.observe()) // where it failed decides what it left
		return
	}
	r.m.trust()
	r.auditGeneration()
	// The fresh stream replicas get the crypto point; the device and tag
	// points outlive a session.
	p.Adaptor.InstallCryptoFault(r.inj.CryptoFault)
	// A bring-up a fault hit may have placed the metadata page or the ring
	// amiss: that generation is not the model's to predict.
	r.rec.Captured, r.poisoned = nil, r.inj.TotalFired() != fired
}

// exhaust is I8: an h2d counter at 2^32-9 moves both ends to a new h2d
// epoch before the next seal. A probe that succeeds shows it on both
// ends. Once the episode is over, on a predicted slice, the probe must
// succeed — the device, crypto and tag points still armed included —
// as long as the plan is one the recovery budget absorbs.
func (r *traceRun) exhaust() {
	p := r.p
	if !r.live() {
		return
	}
	strict, epoch := !r.episode && !r.poisoned && r.absorbable(), p.Adaptor.StreamEpoch(core.StreamH2D)
	if err := p.Adaptor.ForceStreamCounter(core.StreamH2D, ^uint32(0)-8); err != nil {
		r.t.Fatal(err)
	}
	r.m.rekey(sH2D)
	var err error
	if ts := r.runStep(); ts != nil {
		err, strict = ts.err, strict && ts.kvGen == r.m.gen // a session older than the keys is refused
	} else {
		err = r.run(traceTasks[7]) // the exhaustion probe
	}
	switch {
	case err != nil && strict:
		r.failf("I8 probe failed: %v", err)
	case err == nil && r.live(): // a release after collect may still fail the session closed
		if got := r.observe(); got.EpochA[sH2D] != epoch+1 || got.EpochSC[sH2D] != epoch+1 {
			r.failf("I8 violated: counter at 2^32-9 did not move both ends to a new h2d epoch: %+v", got)
		}
	}
}

// absorbable reports whether the plan is the matrix's shape — at most
// two firings in all — which the recovery ladder absorbs.
func (r *traceRun) absorbable() bool {
	n := 0
	for _, e := range r.plan.Events {
		n += int(e.Count)
	}
	return n <= 2
}

// attestFlashed is I7: a slice whose xPU runs flashed firmware is never
// provisioned, under the same fault plan.
func (r *traceRun) attestFlashed() {
	p7, err := New(WithXPU(xpu.A100), WithMode(Protected), WithGoldenFirmware("flashed-rogue-firmware-v666"))
	if err != nil {
		r.t.Fatal(err)
	}
	defer p7.Close()
	wireFault(&p7.pipeline, p7.Host, fault.NewInjector(r.plan))
	if err := p7.EstablishTrust(); err == nil || p7.trusted || p7.scKeys.Count()+p7.tvmKeys.Count() != 0 {
		r.failf("I7 violated: flashed firmware attested, or holds keys")
	}
}

// cancel runs the cancelled task with its context cancelled at one of
// the two safe points. Before the doorbell it is abandoned after staging
// and the device sees nothing; after it, it drains, collect included,
// and only then reports the cancellation. The result is withheld.
func (r *traceRun) cancel(afterCollect bool) {
	p := r.p
	live, fired, tail := r.live(), r.inj.TotalFired(), r.tail()
	tk := traceTasks[6]
	ctx := &flipCtx{Context: context.Background(), after: 1} // the entry check passes
	if afterCollect {
		ctx.after = 2 // and the pre-doorbell one
	}
	out, err := p.RunTaskCtx(ctx, tk)
	if out != nil {
		r.failf("a cancelled task handed back %d bytes", len(out))
	}
	r.leftCommands = r.leftCommands || !errors.Is(err, context.Canceled) && r.left(err, tail)
	if !live {
		return
	}
	r.m.stage(tk)
	if afterCollect {
		r.m.submit(tk)
	}
	if !r.quiet(live, fired) {
		return
	}
	if !errors.Is(err, context.Canceled) {
		r.failf("cancelled run returned %v, want context.Canceled", err)
	}
	if got, want := r.tail()-tail, r.m.state.Tail-tail; got != want {
		r.failf("cancelled run rang %d commands, want %d", got, want)
	}
}

// close is I6: teardown leaves no residue and no keys, whether the
// session is live or failed closed earlier. Teardown is idempotent, so
// it is issued either way, as a driver would after losing one. The TVM
// end always forgets its keys; a teardown write the host drops leaves
// the SC's end to the next one that lands.
func (r *traceRun) close() {
	p, fired := r.p, r.inj.TotalFired()
	p.Adaptor.Teardown()
	p.trusted = false
	if p.tvmKeys.Count() != 0 || r.inj.TotalFired() == fired &&
		(p.Device.MemResidue() || p.SC.Params().Active() != 0 || p.scKeys.Count() != 0) {
		r.failf("I6 violated: residue on the device, or a stream context or key, after teardown")
	}
	r.downModel()
}

// downModel is the model following a session torn down: the SC keeps
// nothing of the inference sessions either.
func (r *traceRun) downModel() {
	r.m.teardown()
	for _, ts := range r.sess {
		if ts != nil {
			ts.regions = 0
		}
	}
}

// --- adversity ----------------------------------------------------------------

// attackRun is what an adversary op's verdict reads: the SC's and the
// Adaptor's counters around the run, the task's error or what ended the
// attacked step's stream, how often the adversary acted, how often the
// attacked step's ids — and the step before's — reached the device,
// whether the slice kept its session, and whether a step doorbell's
// burst carried the guarded doorbell's MAC record.
type attackRun struct {
	st, st2            core.Stats
	rec, rec2          adaptor.RecoveryStats
	err                error
	acted              int
	device, prevDevice int
	trusted, carried   bool
}

func (a *attackRun) authFailed() bool { return a.st2.AuthFailures > a.st.AuthFailures }

// recovered: the run is exact at the cost of recovery only.
func (a *attackRun) recovered() bool { return a.err == nil && a.rec2.FailClosed == a.rec.FailClosed }

// healed: the run is exact at the cost of recovery only, the session
// kept.
func (a *attackRun) healed() bool { return a.recovered() && a.trusted }

// aborted: the stream aborted at the attacked step, whose ids reached
// the device reads times, and the session was torn down or kept.
func (a *attackRun) aborted(reads int, tornDown bool) bool {
	return errors.Is(a.err, ErrStreamAborted) && a.device == reads &&
		tornDown == (a.rec2.FailClosed > a.rec.FailClosed) && tornDown != a.trusted
}

// failedClosed: an attacked step's read failed authentication at the
// SC, was not served from a verified record, and neither it nor the step
// before reached the device; the stream aborted and the session is gone.
func (a *attackRun) failedClosed(int) bool {
	return a.authFailed() && a.st2.DuplicateReads == a.st.DuplicateReads && a.prevDevice == 0 && a.aborted(0, true)
}

// An adversary is a T, D or R op — one task run — or an S, M or L op —
// the next step run — with an adversary behind the standing taps. A
// step op is judged when the model predicts the session stepped and need
// holds of it before the step (a prefill: need is asked with k 0). A
// judged run on a quiet slice must see the adversary act, and ok hold.
type adversary struct {
	task int // the task a T, D or R op runs
	arm  func(r *traceRun, a *attackRun, d int) pcie.Tap
	need func(r *traceRun, ts *traceStream, k, d int) bool
	want string
	ok   func(a *attackRun, d int) bool
}

// Packets the attacks aim at, by role: the H2D data and the command
// runs the SC fetches, the results it writes, the TVM's ring doorbell.
func dataToSC(pk *pcie.Packet) bool { return pk.Kind == pcie.CplD && pk.Role == pcie.RoleH2DData }

func commandRun(pk *pcie.Packet) bool { return pk.Kind == pcie.CplD && pk.Role == pcie.RoleCommandRun }

func resultWrite(pk *pcie.Packet) bool { return pk.Role == pcie.RoleD2HData }

func ringDoorbell(pk *pcie.Packet) bool { return pk.Role == pcie.RoleRingDoorbell }

func tamperOnce(match func(*pcie.Packet) bool) func(*traceRun, *attackRun, int) pcie.Tap {
	return func(*traceRun, *attackRun, int) pcie.Tap { return &attack.Tamperer{Count: 1, Match: match} }
}

func dropOnce(match func(*pcie.Packet) bool) func(*traceRun, *attackRun, int) pcie.Tap {
	return func(*traceRun, *attackRun, int) pcie.Tap { return &attack.Dropper{Count: 1, Match: match} }
}

// truncater cuts the first H2D data completion toward the SC to half its
// length, keeping no byte past the cut.
type truncater struct{ done bool }

func (c *truncater) Tap(p *pcie.Packet) *pcie.Packet {
	if c.done || !dataToSC(p) {
		return p
	}
	c.done = true
	q := p.Clone()
	n := len(q.Payload) / 2
	q.Payload, q.Length = q.Payload[:n:n], uint32(n)
	return q
}

// ringEdit rewrites the submission-ring slots the SC fetches in flight;
// edit reports whether it changed a slot.
type ringEdit func(slot []byte) bool

func (e ringEdit) Tap(p *pcie.Packet) *pcie.Packet {
	q, edited := p.Clone(), false
	for _, slot := range ringSlots(q) {
		edited = e(slot) || edited
	}
	if !edited {
		return p
	}
	return q
}

// editArms rewrites every positioned tag entry the step's bursts carry.
func editArms(edit func(r *traceRun, e armEntry, slot []byte) bool) func(*traceRun, *attackRun, int) pcie.Tap {
	return func(r *traceRun, _ *attackRun, _ int) pcie.Tap {
		return ringEdit(func(slot []byte) bool {
			e, ok := positionedEntry(slot)
			return ok && edit(r, e, slot)
		})
	}
}

// Step needs: a decode step; a steady one — its session's window open
// and not spent, so the step renews nothing; an armed one — steady and
// not its window's first, so a neighbour's record and an earlier output
// exist.
func decode(_ *traceRun, _ *traceStream, k, _ int) bool { return k > 0 }

func steady(_ *traceRun, ts *traceStream, k, _ int) bool {
	return k > 0 && ts.slot >= 0 && ts.slot < adaptor.StepWindowSlots
}

func armed(r *traceRun, ts *traceStream, k, d int) bool { return steady(r, ts, k, d) && ts.slot > 0 }

// stepDoorbell loses or duplicates a step's one ring doorbell, which
// publishes its whole submission, the guarded doorbell's MAC record
// included: carried says the record rode the burst.
func stepDoorbell(dup bool) func(*traceRun, *attackRun, int) pcie.Tap {
	return func(r *traceRun, a *attackRun, _ int) pcie.Tap {
		mmio, rung, bursts := core.TagRecord{Stream: core.StreamMMIO}.Marshal()[:4], false, 0
		return pcie.TapFunc(func(pk *pcie.Packet) *pcie.Packet {
			switch {
			case ringDoorbell(pk) && !rung:
				rung = true
				if dup {
					r.mp.Host.Route(pk.Clone())
					return pk.Clone()
				}
				return nil
			case bursts == 0 && len(ringSlots(pk)) > 0:
				bursts++
				for _, slot := range ringSlots(pk) {
					op, arg, rec := ringEntry(slot)
					a.carried = a.carried || op == core.RingOpTags && arg == 0 && len(rec) == core.TagRecordSize && bytes.Equal(rec[:4], mmio)
				}
			}
			return pk
		})
	}
}

// deposit is the SC writing a step's output region: a chunk of
// ciphertext, or its tag record.
func deposit(p *pcie.Packet) bool { return p.Role == pcie.RoleD2HData || p.Role == pcie.RoleTagRecord }

// stepWindow is the step window of an open session that is (own) or is
// not window id; nil when none is. The step attacks call it inside a
// step's flush, on the worker that holds the tenant.
func (r *traceRun) stepWindow(id uint32, own bool) *adaptor.Region {
	for _, ts := range r.sess {
		if ts != nil && ts.s.step != nil && (ts.s.step.Window.Desc.ID == id) == own {
			return ts.s.step.Window
		}
	}
	return nil
}

// forgedArm is a positioned tag entry's data: one h2d record carrying a
// counter the Adaptor never sealed anything under.
var forgedArm = core.TagRecord{Stream: core.StreamH2D, Chunk: 4242}.Marshal()

// misaim is where M<d> aims its forged arm, given the step's own: M0 past
// the window, M1 a wrapped slot index, M2 a window that does not exist,
// M3 the slot before (consumed), M4 a window already released, M6 a slot
// ahead, not yet sealed, which arms and costs nothing (the step that
// reaches it re-arms it).
func (r *traceRun) misaim(d int, e armEntry) uint64 {
	pos := [...]uint64{core.ArmPosition(e.region, adaptor.StepWindowSlots), core.ArmPosition(e.region, ^uint32(0)),
		core.ArmPosition(e.region+1000, 0), core.ArmPosition(e.region, e.first-1), core.ArmPosition(r.released, 1),
		0, core.ArmPosition(e.region, e.first+4)}
	return pos[d]
}

var adversaries = map[byte][]adversary{
	'T': {
		// One tampered H2D data completion costs the session: the device's
		// read is refused, and the ladder's reposts do not get it to read
		// again (the corrupt-tlp cells of the matrix end the same way).
		{2, tamperOnce(dataToSC), nil, "tampered H2D data caught at the SC, the task exact or the session failed closed",
			func(a *attackRun, _ int) bool {
				return a.authFailed() && (a.err == nil || a.rec2.FailClosed > a.rec.FailClosed)
			}},
		{3, tamperOnce(resultWrite), nil, "a tampered result refused by the Adaptor",
			func(a *attackRun, _ int) bool { return a.err != nil }},
		{4, tamperOnce(func(pk *pcie.Packet) bool {
			return pk.Kind == pcie.MWr && pk.Requester == TVMID && pk.Address >= xpuBARBase && pk.Address < xpuBARBase+0x1000
		}), nil, "a tampered A3 write blocked, and resynced if the task completes: never executed",
			func(a *attackRun, _ int) bool {
				return a.authFailed() && (a.err != nil || a.rec2.Resyncs > a.rec.Resyncs)
			}},
		{2, func(*traceRun, *attackRun, int) pcie.Tap { return &ringSeqCorrupter{} }, nil, "tampered ring framing refused and the session failed closed",
			func(a *attackRun, _ int) bool {
				return a.err != nil && a.st2.ConfigRejects > a.st.ConfigRejects && a.rec2.FailClosed > a.rec.FailClosed &&
					a.rec2.LastFailure == "submission ring desync"
			}},
		{2, tamperOnce(commandRun), nil, "a tampered command run refused at the SC and the task re-driven",
			func(a *attackRun, _ int) bool { return a.authFailed() && a.err == nil }},
		{2, func(*traceRun, *attackRun, int) pcie.Tap { return &truncater{} }, nil, "a cut-short H2D data completion refused, not served whole, and re-driven",
			func(a *attackRun, _ int) bool { return a.err == nil && a.rec2.Reposts > a.rec.Reposts }},
	},
	'D': {
		{5, dropOnce(func(pk *pcie.Packet) bool { return dataToSC(pk) && len(pk.Payload) >= 64 }), nil,
			"a lost data completion reposted and recovered",
			func(a *attackRun, _ int) bool { return a.recovered() && a.rec2.Reposts > a.rec.Reposts }},
		{2, dropOnce(ringDoorbell), nil, "a lost ring doorbell re-rung and recovered",
			func(a *attackRun, _ int) bool {
				return a.recovered() && a.rec2.Retries > a.rec.Retries && a.rec2.Recovered > a.rec.Recovered
			}},
		{5, dropOnce(commandRun), nil, "a lost command-run completion reposted and recovered",
			func(a *attackRun, _ int) bool { return a.recovered() && a.rec2.Reposts > a.rec.Reposts }},
	},
	// The SC's result writes re-aimed into host memory the adversary reads
	// (attack checks it never holds the plaintext).
	'R': {{3, func(r *traceRun, _ *attackRun, _ int) pcie.Tap {
		landing, err := r.p.Guest.Space.Alloc("shared"+tenantLabel(0), "attacker-landing", 4096)
		if err != nil {
			r.t.Fatal(err)
		}
		r.landing = landing
		return &attack.Redirector{NewDst: landing.Base(), Match: resultWrite}
	}, nil, "a redirected transfer noticed", func(a *attackRun, _ int) bool { return a.err != nil }}},
	'S': {
		// A forged counter on every positioned tag, reposts included: the
		// slot arms, the device's read fails GCM.
		{-1, editArms(func(_ *traceRun, e armEntry, _ []byte) bool {
			binary.LittleEndian.PutUint32(e.recs[4:], binary.LittleEndian.Uint32(e.recs[4:])+1000)
			return true
		}), decode, "a forged counter failed closed", (*attackRun).failedClosed},
		// The arm suppressed — rewritten into a bare notify: the slot stays
		// unarmed, and is not served from a neighbour's verified record.
		{-1, editArms(func(_ *traceRun, e armEntry, slot []byte) bool {
			rewriteEntry(slot, core.RingOpNotify, uint64(e.region), nil)
			return true
		}), decode, "a suppressed arm failed closed, no read served from a neighbour", (*attackRun).failedClosed},
		// The full replay: slot k's ciphertext and record replaced by slot
		// k-1's, re-aimed at slot k. Genuine counter and tag, for another
		// position: the AAD binds the slot, the watermark is past the
		// counter.
		{-1, editArms(func(r *traceRun, e armEntry, _ []byte) bool {
			prev, ok := r.arms[e.region]
			win := r.stepWindow(e.region, true)
			if !ok || prev.first+1 != e.first || win == nil {
				return false
			}
			b := win.Buf.Bytes()
			copy(b[int(e.first)*core.ChunkSize:][:core.ChunkSize], b[int(prev.first)*core.ChunkSize:])
			copy(e.recs, prev.recs)
			return true
		}), armed, "a replayed step failed closed, its source step's ids not read again", (*attackRun).failedClosed},
		// The SC's deposits into the output region dropped: it still holds
		// the step before's, which the d2h replica's strictly increasing
		// counter refuses.
		{-1, func(*traceRun, *attackRun, int) pcie.Tap { return &attack.Dropper{Count: 1 << 30, Match: deposit} }, armed,
			"a stale output refused as a replay, the session kept",
			func(a *attackRun, _ int) bool {
				return a.acted >= 2 && errors.Is(a.err, secmem.ErrReplay) && a.aborted(1, false)
			}},
		{-1, stepDoorbell(false), steady, "a lost step doorbell re-rung and recovered",
			func(a *attackRun, _ int) bool {
				return a.carried && a.healed() && a.rec2.Retries > a.rec.Retries && a.rec2.Recovered > a.rec.Recovered && !a.authFailed()
			}},
		{-1, stepDoorbell(true), steady, "a duplicated step doorbell absorbed without recovery",
			func(a *attackRun, _ int) bool { return a.carried && a.healed() && a.rec2 == a.rec && !a.authFailed() }},
	},
	// M<d>: the step's region-ready notify — an entry the SC does nothing
	// with — rewritten into a forged arm (misaim); M5 re-aims the step's own
	// arms into the other session's window instead.
	'M': {{-1, func(r *traceRun, a *attackRun, d int) pcie.Tap {
		var own armEntry
		forged := false // one forged arm a run
		return ringEdit(func(slot []byte) bool {
			if e, ok := positionedEntry(slot); ok {
				own = e
				if to := r.stepWindow(e.region, false); d == 5 && to != nil {
					binary.LittleEndian.PutUint64(slot[8:], core.ArmPosition(to.Desc.ID, e.first))
					return true
				}
			} else if slot[0] == core.RingOpNotify && d != 5 && !forged && (own.region != 0 || d == 4) {
				forged = true
				rewriteEntry(slot, core.RingOpTags, r.misaim(d, own), forgedArm)
				return true
			}
			return false
		})
	}, func(r *traceRun, ts *traceStream, k, d int) bool {
		other := r.sess[1-ts.i]
		return steady(r, ts, k, d) && (d != 3 || ts.slot > 0) && (d != 6 || ts.slot+4 < adaptor.StepWindowSlots) &&
			(d != 5 || other != nil && other.slot >= 0) // M5: a foreign window
	}, "a misaimed arm refused at no cost to the stream (one ahead accepted); one into a foreign window failed closed",
		func(a *attackRun, d int) bool {
			if d == 5 {
				return a.failedClosed(d)
			}
			rejects := uint64(1)
			if d == 6 {
				rejects = 0 // M6 arms a fresh slot
			}
			return a.acted == 1 && a.healed() && !a.authFailed() && a.st2.ConfigRejects == a.st.ConfigRejects+rejects
		}}},
	// L<d>: the d-th h2d tag record of the step lost at the SC's tag
	// manager — of a prefill, its KV region's; of a decode step (L0), its
	// positioned tag. The ladder reposts every region the step staged.
	'L': {{-1, func(r *traceRun, a *attackRun, d int) pcie.Tap {
		seen := 0
		r.p.SC.Tags().SetFaultHook(func(rec core.TagRecord) bool {
			if rec.Stream != core.StreamH2D {
				return r.inj.TagFault(rec)
			}
			seen++
			if seen == d+1 {
				a.acted++
				return true
			}
			return r.inj.TagFault(rec)
		})
		return nil
	}, func(_ *traceRun, _ *traceStream, k, d int) bool { return k == 0 || d == 0 }, "a lost tag record reposted and healed",
		func(a *attackRun, _ int) bool { return a.acted == 1 && a.healed() && a.rec2.Reposts > a.rec.Reposts }}},
}

// attack runs an adversary op: a T, D or R task, or the next step under
// an S, M or L attack — M4 with no step queued rides a task's burst. A
// redirect's landing buffer is host memory the adversary reads: it must
// never hold the plaintext.
func (r *traceRun) attack(op traceOp) {
	list, d := adversaries[op.code], int(op.arg)
	adv := list[d%len(list)]
	if op.code == 'M' {
		d %= 7
	}
	live, fired, known := r.live(), r.inj.TotalFired(), r.sessionsKnown()
	a := attackRun{st: r.p.SC.Stats(), rec: r.p.Adaptor.Recovery()}
	if tap := adv.arm(r, &a, d); tap != nil {
		r.mp.Host.AddTap(pcie.TapFunc(func(p *pcie.Packet) *pcie.Packet { // counts the packets it acts on
			q := tap.Tap(p)
			if q != p {
				a.acted++
			}
			return q
		}))
	}
	inner := attack.NewSnooper()
	judged := adv.task >= 0
	if judged {
		a.err = r.run(traceTasks[adv.task])
	} else {
		r.p.internal.AddTap(inner)
		// M0–M4 only add an entry the SC refuses: the step stays the
		// model's to predict.
		r.attacking = op.code != 'M' || d > 4
		ts := r.runStep()
		r.attacking = false
		r.p.internal.ClearTaps()
		switch {
		case ts != nil:
			p, k := r.pre, r.pre.got
			a.err = ts.err
			judged = known && p.known && (k == 0 || p.kvGen == r.m.gen) && adv.need(r, &p, k, d)
			if k > 0 {
				a.device, a.prevDevice = deliveries(inner, ts.ids(k)), deliveries(inner, ts.ids(k-1))
			}
		case op.code == 'M' && d == 4:
			judged, a.err = r.released != 0, r.run(traceTasks[5])
		}
	}
	r.resetTaps()
	r.p.SC.Tags().SetFaultHook(r.inj.TagFault)
	if r.landing != nil {
		if bytes.Contains(r.landing.Bytes(), secret) {
			r.failf("the redirected payload held the plaintext secret")
		}
		r.p.Guest.Space.Free(r.landing)
		r.landing = nil
	}
	if !judged || !r.quiet(live, fired) {
		r.unjudged++
		return
	}
	a.st2, a.rec2, a.trusted = r.p.SC.Stats(), r.p.Adaptor.Recovery(), r.p.trusted
	if a.acted == 0 || !adv.ok(&a, d) {
		r.failf("want %s; the adversary acted %d times, the run ended %v, device reads %d/%d, recovery %+v",
			adv.want, a.acted, a.err, a.device, a.prevDevice, a.rec2)
	}
}

// deliveries counts the internal-segment packets carrying ids.
func deliveries(inner *attack.Snooper, ids []byte) int {
	n := 0
	for _, p := range inner.Packets() {
		if bytes.Contains(p.Payload, ids) {
			n++
		}
	}
	return n
}

// replay is I3: the TVM writes recorded this generation, re-injected,
// earn no fresh decryption. Among them are ring doorbells whose tail the
// SC has consumed past: it takes a doorbell running backwards for lost
// framing and flags the ring, so the next flush fails the session closed
// — unless a fault had left the SC behind the producer, which a replayed
// doorbell may as well bring up to date.
func (r *traceRun) replay() {
	p := r.p
	dec := p.SC.Stats().DecryptedChunks
	r.rec.Replay(r.mp.Host)
	if p.SC.Stats().DecryptedChunks != dec {
		r.failf("I3 violated: replayed traffic was decrypted again")
	}
	if len(r.rec.Captured) == 0 && r.m.state.Tail > 0 {
		r.failf("a generation that rang the doorbell recorded nothing to replay")
	}
	r.poisoned = r.poisoned || r.live() && len(r.rec.Captured) > 0
	if !r.live() {
		r.m.adopt(r.observe()) // a replayed teardown write may clear what a dropped one left
	}
}

// rogue is I4: an unauthorized requester reaches neither the xPU through
// the L1 filter nor the SC's control BAR. With no fault in the way, both
// refusals are on the SC's counters.
func (r *traceRun) rogue() {
	p := r.p
	rogue := &attack.RogueRequester{ID: pcie.MakeID(0, 9, 0), Bus: r.mp.Host}
	st, fired := p.SC.Stats(), r.inj.TotalFired()
	rogue.Write(xpuBARBase+xpu.RegDoorbell, []byte{1, 0, 0, 0, 0, 0, 0, 0})
	// A stale-completion fault may hand the rogue someone else's
	// completion; only one answering its own read would be a breach.
	if cpl := rogue.Read(xpuBARBase+xpu.RegStatus, 8); cpl != nil && cpl.Status == pcie.CplSuccess && cpl.Requester == rogue.ID {
		r.failf("I4 violated: a rogue requester read xPU state")
	}
	mid := p.SC.Stats()
	rogue.Write(scBARBase+core.RegTeardown, []byte{1, 0, 0, 0, 0, 0, 0, 0})
	got := p.SC.Stats()
	if got.Teardowns != st.Teardowns {
		r.failf("I4 violated: a rogue requester tore the session down")
	}
	if r.inj.TotalFired() == fired && (mid.Filter.Dropped <= st.Filter.Dropped || got.ConfigRejects <= mid.ConfigRejects) {
		r.failf("I4: the filter or the control BAR did not refuse the rogue requester: %+v", got)
	}
}

// forge is I5: policy without the config key is refused, session or
// not — an unsealed rule entry and a plaintext one appended to the ring
// in the TVM's name, one sealed under the attacker's key, and writes at
// the offsets the old sealed-rule window and its doorbell had. With no
// fault in the way, each costs one config reject.
func (r *traceRun) forge() {
	p := r.p
	rej, fired := p.SC.Stats().ConfigRejects, r.inj.TotalFired()
	l1, l2 := p.SC.Filter().RuleCount()
	garbage := make([]byte, 4+secmem.TagSize+32)
	for i := range garbage {
		garbage[i] = byte(i*7 + 1)
	}
	evil := core.Rule{ID: 99, Mask: 0, Action: core.ActionPassThrough}.Marshal() // match-all allow
	wrong, _ := secmem.NewStream(secmem.FreshKey(), secmem.FreshNonce())
	sealed, _ := wrong.Seal(evil, nil)
	for _, entry := range [][]byte{garbage, evil, core.MarshalBlob(sealed)} {
		forgeRingEntry(r.t, &p.pipeline, r.mp.Host, core.RingOpRule, 0, entry)
	}
	r.mp.Host.Route(pcie.NewMemWrite(TVMID, scBARBase+0x100, core.MarshalBlob(sealed)))
	r.mp.Host.Route(pcie.NewMemWrite(TVMID, scBARBase+0x010, []byte{1, 0, 0, 0, 0, 0, 0, 0}))
	// The host's entries sit behind the producer's tail: the SC's head is
	// now ahead of it (TestRingAppendedEntry) — unless a fault had left
	// entries of the producer's queued, which the forged ones overwrote.
	r.moved = r.live() && !r.poisoned && r.m.lag == nil && r.inj.TotalFired() == fired
	r.poisoned = r.poisoned || r.live()
	if n1, n2 := p.SC.Filter().RuleCount(); n1 != l1 || n2 != l2 {
		r.failf("I5 violated: forged policy installed")
	}
	if got := p.SC.Stats().ConfigRejects - rej; got != 5 && r.inj.TotalFired() == fired {
		r.failf("%d config rejects for 5 forged attempts", got)
	}
}

// --- inference sessions -------------------------------------------------------

// traceSessions are the two sessions a script may open: 99 decode steps
// each, so a stream renews its 64-slot step window once, and a prompt
// holding the canary, so I1 covers its upload.
var traceSessions = [2]llm.Config{
	{MaxNewTokens: 800, ChunkTokens: 8, TokenBytes: 4, KVBytesPerToken: 64, MaxPromptTokens: 16, Seed: 0xa77ac4},
	{MaxNewTokens: 800, ChunkTokens: 8, TokenBytes: 4, KVBytesPerToken: 64, MaxPromptTokens: 16, Seed: 0xa77ac5},
}

var tracePrompt = append([]byte("prompt "), secret...)

// A step channel is two SC regions, its window and its output, and three
// host buffers: those two and the output's tag table. A session's slot
// is noChannel while it has none.
const (
	chanRegions = 2
	chanBuffers = 3
	noChannel   = -1
)

// traceStream is one open session of a trace: its handles, what its
// stream delivered, and what the model predicts of it.
type traceStream struct {
	i       int
	s       *InferenceSession
	ch      <-chan DecodeChunk
	cancel  context.CancelFunc
	prefill chan error // Prefill's outcome; nil until called
	want    []byte
	got     int   // data chunks delivered: the next step's chunk index
	over    bool  // the stream ended
	err     error // what ended it at the last step run, nil if it delivered
	// kvGen is the trust generation its prefill ran in; attacked is
	// whether one of its steps ran under a step attack. The model, while
	// known: the next window slot a decode step arms and its window; the
	// SC regions (this generation's) and host buffers the session holds;
	// the h2d epoch its KV was sealed under, and whether a decode step
	// has run past it.
	kvGen            int
	attacked, known  bool
	slot             int
	win              uint32
	regions, buffers int
	kvEpoch          uint32
	fenced           bool
}

// ids is the plaintext decode step k seals into its window slot.
func (ts *traceStream) ids(k int) []byte {
	cfg := traceSessions[ts.i]
	return llm.TokenIDs(nil, llm.Digest(cfg.Seed, tracePrompt), k, cfg.ChunkSpan(k), cfg.TokenBytes)
}

// settle waits, when a step is queued, for the dispatcher to claim it:
// which step that is must not race the trace's next push.
func (r *traceRun) settle() {
	r.await("the dispatcher claimed no step", func() bool { return !r.anyStreaming() || r.gate.parked.Load() == 1 })
}

// anyStreaming reports whether an open session has a step queued.
func (r *traceRun) anyStreaming() bool { return r.sess[0].streaming() || r.sess[1].streaming() }

// streaming reports whether the session has a step queued: prefilled
// and its stream not over.
func (ts *traceStream) streaming() bool { return ts != nil && ts.prefill != nil && !ts.over }

// hold moves what the model says a session holds: SC regions in this
// generation and host buffers.
func (m *refSession) hold(ts *traceStream, regions, buffers int) {
	m.state.Regions += regions
	m.state.HostBuffersAlive += buffers
	if m.lag != nil {
		m.lag.Regions += regions
	}
	m.held[0], m.held[1] = m.held[0]+regions, m.held[1]+buffers
	ts.regions, ts.buffers = ts.regions+regions, ts.buffers+buffers
}

// armEntry is a positioned tag entry: its window, first slot, records.
type armEntry struct {
	region, first uint32
	recs          []byte
}

func positionedEntry(slot []byte) (armEntry, bool) {
	op, arg, recs := ringEntry(slot)
	return armEntry{uint32(arg >> 32), uint32(arg), recs}, op == core.RingOpTags && arg != 0
}

// ringEntry decodes a submission-ring slot: its op, argument and data.
func ringEntry(slot []byte) (op uint8, arg uint64, data []byte) {
	n := min(int(binary.LittleEndian.Uint16(slot[2:])), len(slot)-core.RingEntryHdrSize)
	return slot[0], binary.LittleEndian.Uint64(slot[8:]), slot[core.RingEntryHdrSize:][:n]
}

// ringSlots splits a ring fetch's completion toward the SC into its
// slots; there are none in any other packet.
func ringSlots(p *pcie.Packet) (slots [][]byte) {
	if p.Kind != pcie.CplD || p.Role != pcie.RoleSlotFetch {
		return nil
	}
	for off := 0; off < len(p.Payload); off += core.RingSlotSize {
		slots = append(slots, p.Payload[off:][:core.RingSlotSize])
	}
	return slots
}

// await polls until cond holds, failing the trace after 30 s.
func (r *traceRun) await(what string, cond func() bool) {
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			r.failf("%s", what)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// open is o: session i opened and its stream taken.
func (r *traceRun) open(i int) {
	if r.sess[i] != nil {
		return
	}
	s, err := r.p.OpenSession(context.Background(), traceSessions[i])
	if err != nil {
		if r.p.trusted {
			r.failf("a trusted slice refused a session: %v", err)
		}
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch, _ := s.Decode(ctx) // refused only on a closed session or a done context
	r.sess[i] = &traceStream{i: i, s: s, ch: ch, cancel: cancel, known: true, slot: noChannel,
		want: expectedStream(traceSessions[i], tracePrompt)}
}

// startPrefill is p: session i's Prefill called, its step queued — it
// waits at the gate, or behind the step that does — but not run.
func (r *traceRun) startPrefill(i int) {
	ts := r.sess[i]
	if ts == nil || ts.prefill != nil {
		return
	}
	r.settle()
	queued := func() int { return r.mp.Engine().Pending() + int(r.gate.parked.Load()) }
	n := queued()
	ts.prefill = make(chan error, 1)
	go func() { ts.prefill <- ts.s.Prefill(context.Background(), tracePrompt) }()
	r.await("a prefill never queued", func() bool { return queued() > n || len(ts.prefill) > 0 })
	ts.over = ts.over || len(ts.prefill) > 0 // refused before it queued
}

// runStep lets the dispatcher run one step of an open session — steps
// of sessions closed while the worker held them settle on the way,
// touching nothing — and returns the session stepped, nil when none had
// a step queued.
func (r *traceRun) runStep() *traceStream {
	live, fired, tail := r.live(), r.fired, r.tail() // a fault earlier in the op counts: k and x rekey first
	for r.anyStreaming() {
		if !r.gate.pass() {
			r.failf("the dispatcher claimed no step")
		}
		var rec llm.StepRecord
		r.await("a step never settled", func() bool {
			if log := r.mp.Engine().StepLog(); len(log) > r.settled {
				r.settled, rec = len(log), log[len(log)-1]
			}
			return rec.Session != 0
		})
		for _, ts := range r.sess {
			if ts.streaming() && ts.s.state.ID == rec.Session {
				r.stepped(ts, rec.Kind == llm.StepPrefill, live, fired)
				r.leftCommands = r.leftCommands || r.left(ts.err, tail)
				r.settle()
				return ts
			}
		}
	}
	return nil
}

// stepped holds a step to I2 — the session's exact next chunk, or an
// abort with ErrStreamAborted ending its stream — and the KV to its
// residency: only a prefill reads it. A step the model predicts moves
// it, and must match it: regions and buffers as the step channel opens,
// renews and goes back, the positioned entry at the model's slot,
// counter and epoch, the fence.
func (r *traceRun) stepped(ts *traceStream, prefill, live bool, fired uint64) {
	cfg, k := traceSessions[ts.i], ts.got
	span := chunks(cfg.ChunkSpan(k) * cfg.TokenBytes)
	r.pre = *ts
	c, ok := <-ts.ch // a step settles after its chunk, or its stream's abort, is out
	ts.err = c.Err
	switch {
	case !ok || c.Err != nil && !errors.Is(c.Err, ErrStreamAborted):
		r.failf("I2 violated: session %d's stream ended at step %d with %v", ts.i, k, c.Err)
	case c.Err == nil && (c.Index != k || !bytes.Equal(c.Tokens, ts.want[k*cfg.ChunkTokens*cfg.TokenBytes:][:len(c.Tokens)])):
		r.failf("I2 violated: session %d step %d delivered chunk %d, not its own or not exact", ts.i, k, c.Index)
	case c.Err == nil:
		ts.got++
	}
	ts.over = ts.err != nil || ts.got == cfg.Chunks()
	if ts.over {
		readStream(r.t, ts.ch)
		r.drained(ts)
	}
	if prefill {
		err := <-ts.prefill
		if (err == nil) != (ts.err == nil) {
			r.failf("Prefill returned %v for a step that ended %v", err, ts.err)
		}
		if live {
			ts.kvGen = r.m.gen
		}
	} else {
		ids := ts.ids(k)
		for off := 0; off+8 <= len(ids); off += 8 { // any 8 bytes of them
			r.canaries = append(r.canaries, ids[off:off+8])
		}
	}
	// The step's packets on the host bus: the positioned tag entries the
	// SC fetched, and its reads of the KV staging, which only a prefill
	// may cause.
	pkts, staged := r.snoop.Packets(), false
	ts.s.mu.Lock()
	kv := ts.s.kvRegion
	ts.s.mu.Unlock()
	var entries []armEntry
	for _, p := range pkts[min(r.seen, len(pkts)):] {
		for _, slot := range ringSlots(p) {
			if e, ok := positionedEntry(slot); ok {
				entries, r.arms[e.region] = append(entries, e), e
			}
		}
		staged = staged || kv != nil && p.Kind == pcie.MRd && p.Role == pcie.RoleH2DData &&
			p.Address-kv.Buf.Base() < uint64(kv.Buf.Size())
	}
	r.seen = len(pkts)
	if staged && !prefill {
		r.failf("a decode step read the KV staging")
	}
	if r.attacking || !r.quiet(live, fired) || !r.sessionsKnown() || ts.kvGen != r.m.gen {
		ts.attacked = ts.attacked || r.attacking
		if !ts.attacked && live && ts.kvGen == r.m.gen {
			r.strayed++
		}
		ts.known = false
		r.m.hold(ts, -ts.regions, -ts.buffers)
		return
	}
	if ts.err != nil || prefill && !staged {
		r.failf("session %d step %d failed on a quiet slice (%v), or a prefill read no KV", ts.i, k, ts.err)
	}
	m, commands := &r.m, uint64(taskCommands)
	if prefill {
		m.seal(sH2D, chunks(int(cfg.KVBytes(cfg.MaxPromptTokens)))+chunks(len(tracePrompt)))
		m.seal(sConfig, 3) // KV, prompt and output descriptors
		m.hold(ts, 1, 1)   // the KV stays
		ts.kvEpoch, commands = m.state.EpochA[sH2D], taskCommands+1
	} else {
		if ts.slot == adaptor.StepWindowSlots {
			r.release(ts) // spent: renewed
		}
		if ts.slot == noChannel {
			m.seal(sConfig, 2) // window and output descriptors
			m.hold(ts, chanRegions, chanBuffers)
			ts.slot = 0
		}
		m.seal(sH2D, span)
		want := core.TagRecord{Stream: core.StreamH2D, Chunk: m.ctr[sH2D], Epoch: m.state.EpochA[sH2D]}.Marshal()
		// One h2d record at the model's slot, counter and epoch (all but the
		// GCM tag), in the window the session's last step armed unless this
		// step opened a new one.
		if len(entries) != 1 || entries[0].first != uint32(ts.slot) || ts.slot > 0 && entries[0].region != ts.win ||
			len(entries[0].recs) != core.TagRecordSize || !bytes.Equal(entries[0].recs[:12], want[:12]) {
			r.failf("decode step %d: positioned entries %+v, want one h2d record at slot %d of window %d, counter %d, epoch %d",
				k, entries, ts.slot, ts.win, m.ctr[sH2D], m.state.EpochA[sH2D])
		}
		ts.slot, ts.win = ts.slot+1, entries[0].region
		ts.fenced = ts.fenced || m.state.EpochA[sH2D] != ts.kvEpoch
	}
	m.rung(commands, span)
	if ts.over {
		r.release(ts)
	}
	if ts.s.KVFenced() != ts.fenced || ts.s.KVSealEpoch() != ts.kvEpoch {
		r.failf("session %d: fenced %v at KV seal epoch %d, want %v at %d", ts.i, ts.s.KVFenced(), ts.s.KVSealEpoch(), ts.fenced, ts.kvEpoch)
	}
}

// release is the model's step channel of a known session going back.
func (r *traceRun) release(ts *traceStream) {
	if ts.known && ts.slot != noChannel {
		r.m.hold(ts, -min(chanRegions, ts.regions), -chanBuffers) // none left at the SC after a teardown
		ts.slot, r.released = noChannel, ts.win
	}
}

// sessionsKnown reports whether the model predicts every open session.
func (r *traceRun) sessionsKnown() bool {
	return (r.sess[0] == nil || r.sess[0].known) && (r.sess[1] == nil || r.sess[1].known)
}

// window is w: steps until session i has spent its step window — the
// rest of the current one, or a whole new one — or its stream ends.
// While the other session streams too, the dispatcher interleaves them.
func (r *traceRun) window(i int) {
	ts, own, other, both := r.sess[i], 0, 0, true
	for ts.streaming() && own <= adaptor.StepWindowSlots && (own == 0 || !ts.known || ts.slot < adaptor.StepWindowSlots) {
		both = both && r.sess[1-i].streaming()
		switch r.runStep() {
		case ts:
			own++
		case nil:
			return
		default:
			other++
		}
	}
	if both && own > 2*other+2 {
		r.failf("session %d ran %d steps to the other's %d: the sessions did not interleave", i, own, other)
	}
}

// drained waits for an ended stream's step channel to go back, which
// the stream's end does after its last chunk.
func (r *traceRun) drained(ts *traceStream) {
	r.await("a step channel outlived its stream", func() bool {
		r.p.mu.Lock()
		defer r.p.mu.Unlock()
		return ts.s.step == nil
	})
}

// end is q and e: session i's stream aborted through its Decode context,
// or the session closed (I6). An unfinished stream ends with
// ErrStreamAborted and the cause, delivering nothing more, and its step
// channel goes back; a closed session gives back its KV too.
func (r *traceRun) end(i int, closing bool) {
	ts, cause := r.sess[i], error(context.Canceled)
	if ts == nil {
		return
	}
	if closing {
		ts.s.Close()
		cause = ErrSessionClosed
	}
	ts.cancel()
	if chunks, err := readStream(r.t, ts.ch); len(chunks) != 0 || !ts.over && !(errors.Is(err, ErrStreamAborted) && errors.Is(err, cause)) {
		r.failf("the stream was left %d chunks and ended %v", len(chunks), err)
	}
	ts.over = true
	r.drained(ts)
	r.release(ts)
	if closing {
		r.m.hold(ts, -ts.regions, -ts.buffers)
		r.sess[i] = nil
	}
}

// --- saved traces -------------------------------------------------------------

// FuzzProtocolTrace plays arbitrary traces against the model, from the
// saved ones in testdata/fuzz/FuzzProtocolTrace.
func FuzzProtocolTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, _, ok := decodeTrace(data); ok {
			runTrace(t, data)
		}
	})
}

// savedTrace reads a trace of the corpus: a file holding the "go test
// fuzz v1" header and one []byte("…").
func savedTrace(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzProtocolTrace", name))
	if err != nil {
		t.Fatal(err)
	}
	_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n[]byte(")
	data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("%s: not a one-value fuzz corpus file: %v", name, err)
	}
	return []byte(data)
}

// playTrace plays the saved trace name, which must check what it
// names: every adversary op judged, and no session leaving the model
// other than at an attacked step or with its trust generation. The fuzz
// target, exploring, does not ask this of its inputs.
func playTrace(t *testing.T, name string) {
	t.Helper()
	if r := runTrace(t, savedTrace(t, name)); r.unjudged+r.strayed != 0 {
		t.Fatalf("%s: %d adversary ops unjudged, %d sessions left the model: the trace checks nothing there", name, r.unjudged, r.strayed)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/fault_matrix.golden from the matrix traces")

// matrixSeeds are the seeds of the matrix's cells; a cell's trace is
// testdata/fuzz/FuzzProtocolTrace/matrix-<class>-<seed>. A hook class's
// plan is matrixEvent(class, 0, seed); a link class's names the roles and
// ordinals of the packets the cell hits.
var matrixSeeds = []uint64{0x0c0ffee1, 0x5eed0002, 0xfa117003}

// matrixEvent derives a cell's injection schedule from the seed: small
// skips so scarce injection points (doorbells, MSIs) still get hit, and
// a count the recovery budget can absorb. role is zero for a hook class.
func matrixEvent(class fault.Class, role pcie.Role, seed uint64) fault.Plan {
	skip := int((seed >> 4) % 3)
	count := 1 + int(seed%2)
	switch class {
	case fault.DoorbellHang, fault.DropMSI,
		fault.HeadWritebackLoss, fault.HeadRegress, fault.DuplicateCplBurst:
		// Scarce injection points: one doorbell (and so one completion
		// writeback) per task, so large skips would miss the episode.
		skip = int(seed % 2)
	}
	return fault.Single(seed, class, role, skip, count)
}

// cellPlan reports whether plan is a matrix cell's: matrixEvent itself
// for a hook class, events of the cell's class alone for a link class.
func cellPlan(plan fault.Plan, class fault.Class, seed uint64) bool {
	if class.Hook() {
		return bytes.Equal(plan.Marshal(), matrixEvent(class, 0, seed).Marshal())
	}
	for _, e := range plan.Events {
		if e.Class != class {
			return false
		}
	}
	return plan.Seed == seed && len(plan.Events) > 0
}

// TestFaultMatrix is the fault matrix: every fault class with an
// injection point on a protected slice × matrixSeeds, each cell a saved trace —
// two tasks under injection, then the I8 exhaustion, I3 replay, I4
// rogue, I5 forged-config, I6 teardown and I7 attestation ops — played
// twice, its outcome line diffed against testdata/fault_matrix.golden.
// Benign failures may cost retries or the session, never an invariant;
// and every class must land. Regenerate the golden file with -update
// only when an outcome is meant to move.
func TestFaultMatrix(t *testing.T) {
	var got strings.Builder
	for _, class := range fault.Classes() {
		if class == fault.SchedStall || class == fault.CancelRace {
			continue // no injection point on a slice: TestSchedulerFaultMatrix
		}
		var fired uint64
		for _, seed := range matrixSeeds {
			cell := fmt.Sprintf("%v/seed=%#x", class, seed)
			t.Run(cell, func(t *testing.T) {
				data := savedTrace(t, fmt.Sprintf("matrix-%v-%#x", class, seed))
				if _, plan, _ := decodeTrace(data); !cellPlan(plan, class, seed) {
					t.Fatalf("the trace's fault plan is not the cell's: %+v", plan)
				}
				r := runTrace(t, data)
				if r2 := runTrace(t, data); r2.sig != r.sig {
					t.Fatalf("nondeterministic:\n run1: %s\n run2: %s", r.sig, r2.sig)
				}
				got.WriteString(cell + " " + r.sig + "\n")
				fired += r.inj.TotalFired()
			})
		}
		if fired == 0 {
			t.Errorf("%v never fired on any seed; its cells are vacuous", class)
		}
	}
	path := filepath.Join("testdata", "fault_matrix.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if got.String() != string(want) {
		t.Fatalf("fault matrix moved from %s:\n got:\n%s\n want:\n%s", path, got.String(), want)
	}
}
