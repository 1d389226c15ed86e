package ccai

// One protocol model of a protected slice's SC session, run in lockstep
// with a live Platform. A trace is a script of ops — tasks, rekeys,
// exhaustion, cancellation, teardown, re-trust, attestation of flashed
// firmware, and host adversity — optionally followed by a fault plan
// (fault.Plan.Marshal) injected for the whole script. After every op the
// harness compares what refSession predicts with what the slice reports
// through its accessors, and checks the invariants of DESIGN.md §6 (I1–
// I8) and "no IV reuse" as assertions of the model.
//
// The fault matrix, the RQ2 tamper, replay, redirect, drop, rogue,
// forged-config and IV-exhaustion cells and the ring's doorbell-drop and
// desync cells are saved traces in testdata/fuzz/FuzzProtocolTrace, the
// corpus FuzzProtocolTrace explores from.
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
	"sync/atomic"
	"testing"

	"ccai/internal/adaptor"
	"ccai/internal/attack"
	"ccai/internal/core"
	"ccai/internal/fault"
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
const (
	traceOpCodes = "tkxrabcz.TDRPGF"
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
		Active: 3, SCKeys: 4, TVMKeys: 4, HostBuffersAlive: m.buffers}
}

// teardown is a session torn down, by Close or fail-closed: keys, stream
// contexts, regions and the A3 sequence gone on both ends. The driver's
// tail and the staging memory stay until the next bring-up.
func (m *refSession) teardown() {
	s := &m.state
	s.Trusted, s.EpochA, s.EpochSC, m.lag = false, [2]uint32{}, [3]uint32{}, nil
	s.Regions, s.Tags, s.MMIOA, s.MMIOSC, s.Active, s.SCKeys, s.TVMKeys = 0, 0, 0, 0, 0, 0, 0
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

// submit is a staged task rung and collected: the result sealed under
// d2h.
func (m *refSession) submit(tk Task) {
	m.seal(sD2H, chunks(int(tk.outLen())))
	m.state.Tail += taskCommands
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
		quiet.Regions, quiet.Tags = trustRegions, 0
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
func wireFault(p *Platform, inj *fault.Injector) {
	p.Device.SetFaultHook(inj.DeviceFault)
	p.Host.AddTap(inj)
	if p.trusted {
		p.Adaptor.InstallCryptoFault(inj.CryptoFault)
		p.SC.Tags().SetFaultHook(inj.TagFault)
	}
}

// --- the harness --------------------------------------------------------------

// traceRun is one trace in flight: the live platform, its model, the
// injector and the instruments the invariants read.
type traceRun struct {
	t     *testing.T
	p     *Platform
	m     refSession
	plan  fault.Plan
	inj   *fault.Injector
	audit *ivAuditor
	snoop *attack.Snooper
	rec   *attack.Recorder
	at    string // the op in flight, for failure messages
	// episode is whether the injector is still on the host bus; errs are
	// the outcomes of the tasks run in it, sig the outcome line taken
	// when it ends.
	episode bool
	errs    []bool
	sig     string
	// poisoned marks a generation the model no longer predicts exactly:
	// the host advanced its ring behind the producer's back (F) or rang
	// it backwards (P), or a failed submission left its commands in the
	// driver's ring (leftCommands, from the end of the op that did). moved
	// says the op just run advanced the ring.
	poisoned, moved, leftCommands bool
}

// runTrace plays one trace on a fresh protected platform. It returns
// the outcome line — each pre-calm task's error, the faults fired, the
// trusted flag and the recovery counters when the episode ended, then
// the injector's whole log — and the faults fired over the trace.
func runTrace(t *testing.T, data []byte) (string, uint64) {
	t.Helper()
	ops, plan, ok := decodeTrace(data)
	if !ok {
		t.Fatal("the trace's fault plan does not decode")
	}
	r := &traceRun{t: t, p: protectedPlatform(t, xpu.A100), plan: plan, inj: fault.NewInjector(plan),
		audit: newIVAuditor(), snoop: attack.NewSnooper(), episode: true}
	r.rec = &attack.Recorder{Match: func(pk *pcie.Packet) bool { return pk.Kind == pcie.MWr && pk.Requester == TVMID }}
	r.m.buffers = r.p.Guest.Space.Live()
	r.m.trust()
	r.auditGeneration()
	r.p.Host.AddTap(r.snoop)
	r.p.Host.AddTap(r.rec)
	wireFault(r.p, r.inj)
	for i, op := range ops {
		r.at = fmt.Sprintf("op %d %v", i, op)
		r.step(op)
	}
	if r.episode {
		r.calm()
	}
	sig := fmt.Sprintf("%s log=%v", r.sig, r.inj.Log())
	// Whatever the script left — releases a fault kept queued on the
	// producer's side of the ring included — teardown takes it all (I6).
	r.at = "final teardown"
	r.close()
	return sig, r.inj.TotalFired()
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

// live is whether the slice holds a session: trusted, and its Adaptor
// not failed closed on its own — a desynced submission ring tears the
// Adaptor down with trusted still set, until the next bring-up or Close.
func (r *traceRun) live() bool { return r.p.trusted && r.p.tvmKeys.Count() > 0 }

// observe reads the slice's protocol state through its accessors.
func (r *traceRun) observe() sliceState {
	p := r.p
	s := sliceState{Trusted: r.live(), Regions: p.SC.Regions(), Tags: p.SC.Tags().Depth(),
		Tail: p.Driver.Tail(), MMIOA: p.Adaptor.MMIOSeq(), MMIOSC: p.SC.MMIOSeq(),
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
	before, fired, exact := r.observe(), r.inj.TotalFired(), !r.poisoned
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
	case 'T', 'D', 'R':
		r.attack(op)
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
		r.m.teardown() // failed closed: the model follows the slice down
	}
	// Fault-free, on a predicted slice, and no attack that may move it:
	// exact — a replay moves nothing. Otherwise the order of the protocol
	// must hold, and the model adopts the slice.
	if exact && r.inj.TotalFired() == fired && strings.IndexByte("TDRF", op.code) < 0 {
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
	if r.snoop.SawPlaintext(secret) {
		r.failf("I1 violated: plaintext secret on the host bus")
	}
	r.snoop.Reset()
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

// resetTaps leaves the standing taps on the host bus: the snooper, the
// recorder and, during the episode, the injector.
func (r *traceRun) resetTaps() {
	r.p.Host.ClearTaps()
	r.p.Host.AddTap(r.snoop)
	r.p.Host.AddTap(r.rec)
	if r.episode {
		r.p.Host.AddTap(r.inj)
	}
}

// quiet reports whether an op that started with a session, on a
// predicted slice, ran with no fault firing: its oracles hold exactly.
func (r *traceRun) quiet(live bool, fired uint64) bool {
	return live && !r.poisoned && r.inj.TotalFired() == fired
}

// run runs tk, holds its output to I2 — the exact result or an error,
// never silently wrong data — and moves the model: a task on a live
// session stages, submits and collects.
//
// The SC's metadata records are held to the task too: one that succeeds
// on a quiet slice moves exactly one — its output region's — to the
// chunks it sealed.
func (r *traceRun) run(tk Task) error {
	live, fired, meta, tail := r.live(), r.inj.TotalFired(), r.metadata(), r.p.Driver.Tail()
	out, err := r.p.RunTask(tk)
	if live && err == nil && r.snoop.PayloadBytes() == 0 {
		r.failf("the snooper saw no traffic: I1 checked nothing")
	}
	r.checkWire()
	// A submission that failed with its commands in the ring, the slice
	// still trusted, leaves them for the next doorbell: the device runs
	// them against regions already released, and that task fails closed.
	r.leftCommands = r.leftCommands || err != nil && r.live() && r.p.Driver.Tail() != tail
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
	p := r.p
	if live {
		return
	}
	if err := p.EstablishTrust(); err != nil {
		if p.trusted {
			r.failf("a failed bring-up (%v) left the slice trusted", err)
		}
		return
	}
	r.m.trust()
	r.auditGeneration()
	// The fresh stream replicas get the crypto point; the device and tag
	// points outlive a session.
	p.Adaptor.InstallCryptoFault(r.inj.CryptoFault)
	r.rec.Captured, r.poisoned = nil, false
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
	switch err := r.run(traceTasks[7]); { // the exhaustion probe
	case err != nil && strict:
		r.failf("I8 probe task failed: %v", err)
	case err == nil:
		if got := r.observe(); got.EpochA[sH2D] != epoch+1 || got.EpochSC[sH2D] != epoch+1 {
			r.failf("I8 violated: counter at 2^32-9 did not move both ends to a new h2d epoch: %+v", got)
		}
	}
}

// absorbable reports whether the plan is the matrix's shape — one
// event, fired at most twice — which the recovery ladder absorbs.
func (r *traceRun) absorbable() bool {
	return len(r.plan.Events) <= 1 && (len(r.plan.Events) == 0 || r.plan.Events[0].Count <= 2)
}

// attestFlashed is I7: a slice whose xPU runs flashed firmware is never
// provisioned, under the same fault plan.
func (r *traceRun) attestFlashed() {
	p7, err := New(WithXPU(xpu.A100), WithMode(Protected), WithGoldenFirmware("flashed-rogue-firmware-v666"))
	if err != nil {
		r.t.Fatal(err)
	}
	defer p7.Close()
	wireFault(p7, fault.NewInjector(r.plan))
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
	live, fired, tail := r.live(), r.inj.TotalFired(), p.Driver.Tail()
	tk := traceTasks[6]
	ctx := &flipCtx{Context: context.Background(), after: 1} // the entry check passes
	if afterCollect {
		ctx.after = 2 // and the pre-doorbell one
	}
	out, err := p.RunTaskCtx(ctx, tk)
	if out != nil {
		r.failf("a cancelled task handed back %d bytes", len(out))
	}
	r.leftCommands = r.leftCommands || err != nil && !errors.Is(err, context.Canceled) && r.live() && p.Driver.Tail() != tail
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
	if got, want := p.Driver.Tail()-tail, r.m.state.Tail-tail; got != want {
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
	r.m.teardown()
}

// --- host adversity ------------------------------------------------------------

// attackRun is what a host attack's verdict reads: the SC's and the
// Adaptor's counters around the task, and its error.
type attackRun struct {
	st, st2   core.Stats
	rec, rec2 adaptor.RecoveryStats
	err       error
}

// A hostAttack is a T, D or R op: one task run with an adversary's tap
// behind the standing ones. ok judges a quiet run; want says what it
// must show.
type hostAttack struct {
	task int
	tap  func() pcie.Tap // nil: the redirect, built around its landing buffer
	want string
	ok   func(a attackRun) bool
}

// Packets the attacks aim at. Ring fetches are whole ring slots
// (tampering with them is T3's) and command-run fetches whole command
// slots; the tasks the attacks run stage inputs that are neither.
func dataToSC(pk *pcie.Packet) bool {
	return pk.Kind == pcie.CplD && pk.Requester == SCID &&
		len(pk.Payload)%core.RingSlotSize != 0 && len(pk.Payload)%xpu.CmdSize != 0
}

func commandRun(pk *pcie.Packet) bool {
	return pk.Kind == pcie.CplD && pk.Requester == SCID &&
		len(pk.Payload)%core.RingSlotSize != 0 && len(pk.Payload)%xpu.CmdSize == 0
}

func resultWrite(pk *pcie.Packet) bool {
	return pk.Kind == pcie.MWr && pk.Requester == SCID && len(pk.Payload) >= 64 // not a tag-table write
}

func tamperOnce(match func(*pcie.Packet) bool) func() pcie.Tap {
	return func() pcie.Tap { return &attack.Tamperer{Count: 1, Match: match} }
}

func dropOnce(match func(*pcie.Packet) bool) func() pcie.Tap {
	return func() pcie.Tap { return &attack.Dropper{Count: 1, Match: match} }
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

// acting counts the packets an attack's tap acted on: dropped, or handed
// on changed.
type acting struct {
	tap pcie.Tap
	n   atomic.Int64
}

func (a *acting) Tap(p *pcie.Packet) *pcie.Packet {
	q := a.tap.Tap(p)
	if q != p {
		a.n.Add(1)
	}
	return q
}

// recovered: the task is exact at the cost of recovery only.
func recovered(a attackRun) bool { return a.err == nil && a.rec2.FailClosed == a.rec.FailClosed }

var hostAttacks = map[byte][]hostAttack{
	'T': {
		// One tampered H2D data completion costs the session: the device's
		// read is refused, and the ladder's reposts do not get it to read
		// again (the corrupt-tlp cells of the matrix end the same way).
		{2, tamperOnce(dataToSC), "tampered H2D data caught at the SC, the task exact or the session failed closed",
			func(a attackRun) bool {
				return a.st2.AuthFailures > a.st.AuthFailures && (a.err == nil || a.rec2.FailClosed > a.rec.FailClosed)
			}},
		{3, tamperOnce(resultWrite), "a tampered result refused by the Adaptor",
			func(a attackRun) bool { return a.err != nil }},
		{4, tamperOnce(func(pk *pcie.Packet) bool {
			return pk.Kind == pcie.MWr && pk.Requester == TVMID && pk.Address >= xpuBARBase && pk.Address < xpuBARBase+0x1000
		}), "a tampered A3 write blocked, and resynced if the task completes: never executed",
			func(a attackRun) bool {
				return a.st2.AuthFailures > a.st.AuthFailures && (a.err != nil || a.rec2.Resyncs > a.rec.Resyncs)
			}},
		{2, func() pcie.Tap { return &ringSeqCorrupter{} }, "tampered ring framing refused and the session failed closed",
			func(a attackRun) bool {
				return a.err != nil && a.st2.ConfigRejects > a.st.ConfigRejects &&
					a.rec2.FailClosed > a.rec.FailClosed && a.rec2.LastFailure == "submission ring desync"
			}},
		{2, tamperOnce(commandRun), "a tampered command run refused at the SC and the task re-driven",
			func(a attackRun) bool { return a.st2.AuthFailures > a.st.AuthFailures && a.err == nil }},
		{2, func() pcie.Tap { return &truncater{} }, "a cut-short H2D data completion refused, not served whole, and re-driven",
			func(a attackRun) bool { return a.err == nil && a.rec2.Reposts > a.rec.Reposts }},
	},
	'D': {
		{5, dropOnce(func(pk *pcie.Packet) bool { return dataToSC(pk) && len(pk.Payload) >= 64 }),
			"a lost data completion reposted and recovered",
			func(a attackRun) bool { return recovered(a) && a.rec2.Reposts > a.rec.Reposts }},
		{2, dropOnce(func(pk *pcie.Packet) bool {
			return pk.Kind == pcie.MWr && pk.Requester == TVMID && pk.Address == scBARBase+core.RegRingDoorbell
		}), "a lost ring doorbell re-rung and recovered",
			func(a attackRun) bool {
				return recovered(a) && a.rec2.Retries > a.rec.Retries && a.rec2.Recovered > a.rec.Recovered
			}},
		{5, dropOnce(commandRun), "a lost command-run completion reposted and recovered",
			func(a attackRun) bool { return recovered(a) && a.rec2.Reposts > a.rec.Reposts }},
	},
	'R': {{3, nil, "a redirected transfer noticed", func(a attackRun) bool { return a.err != nil }}},
}

// attack runs a T, D or R op. A redirect's landing buffer is host memory
// the adversary reads: it must never hold the plaintext.
func (r *traceRun) attack(op traceOp) {
	p, atk := r.p, hostAttacks[op.code]
	a := atk[int(op.arg)%len(atk)]
	live, fired := r.live(), r.inj.TotalFired()
	tap := &acting{}
	if a.tap != nil {
		tap.tap = a.tap()
	} else {
		landing, err := p.Guest.Space.Alloc("shared", "attacker-landing", 4096)
		if err != nil {
			r.t.Fatal(err)
		}
		defer func() {
			if bytes.Contains(landing.Bytes(), secret) {
				r.failf("the redirected payload held the plaintext secret")
			}
			p.Guest.Space.Free(landing)
		}()
		tap.tap = &attack.Redirector{NewDst: landing.Base(), Match: resultWrite}
	}
	run := attackRun{st: p.SC.Stats(), rec: p.Adaptor.Recovery()}
	p.Host.AddTap(tap)
	run.err = r.run(traceTasks[a.task])
	r.resetTaps()
	if !r.quiet(live, fired) {
		return
	}
	run.st2, run.rec2 = p.SC.Stats(), p.Adaptor.Recovery()
	if tap.n.Load() == 0 || !a.ok(run) {
		r.failf("want %s; the tap acted %d times, the task ended %v, recovery %+v", a.want, tap.n.Load(), run.err, run.rec2)
	}
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
	r.rec.Replay(p.Host)
	if p.SC.Stats().DecryptedChunks != dec {
		r.failf("I3 violated: replayed traffic was decrypted again")
	}
	if len(r.rec.Captured) == 0 && r.m.state.Tail > 0 {
		r.failf("a generation that rang the doorbell recorded nothing to replay")
	}
	r.poisoned = r.poisoned || r.live() && len(r.rec.Captured) > 0
}

// rogue is I4: an unauthorized requester reaches neither the xPU through
// the L1 filter nor the SC's control BAR. With no fault in the way, both
// refusals are on the SC's counters.
func (r *traceRun) rogue() {
	p := r.p
	rogue := &attack.RogueRequester{ID: pcie.MakeID(0, 9, 0), Bus: p.Host}
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
		forgeRingEntry(r.t, p, core.RingOpRule, 0, entry)
	}
	p.Host.Route(pcie.NewMemWrite(TVMID, scBARBase+0x100, core.MarshalBlob(sealed)))
	p.Host.Route(pcie.NewMemWrite(TVMID, scBARBase+0x010, []byte{1, 0, 0, 0, 0, 0, 0, 0}))
	// The host's entries sit behind the producer's tail: the SC's head is
	// now ahead of it (TestRingAppendedEntry) — unless a fault had left
	// entries of the producer's queued, which the forged ones overwrote.
	r.moved = r.live() && !r.poisoned && r.m.lag == nil
	r.poisoned = r.poisoned || r.live()
	if n1, n2 := p.SC.Filter().RuleCount(); n1 != l1 || n2 != l2 {
		r.failf("I5 violated: forged policy installed")
	}
	if got := p.SC.Stats().ConfigRejects - rej; got != 5 && r.inj.TotalFired() == fired {
		r.failf("%d config rejects for 5 forged attempts", got)
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

var update = flag.Bool("update", false, "rewrite testdata/fault_matrix.golden from the matrix traces")

// matrixSeeds are the seeds of the matrix's cells; a cell's trace is
// testdata/fuzz/FuzzProtocolTrace/matrix-<class>-<seed>, its fault plan
// matrixEvent(class, seed).
var matrixSeeds = []uint64{0x0c0ffee1, 0x5eed0002, 0xfa117003}

// matrixEvent derives a cell's injection schedule from the seed: small
// skips so scarce injection points (doorbells, MSIs) still get hit, and
// a count the recovery budget can absorb.
func matrixEvent(class fault.Class, seed uint64) fault.Plan {
	skip := int((seed >> 4) % 3)
	count := 1 + int(seed%2)
	switch class {
	case fault.DoorbellHang, fault.DropMSI,
		fault.HeadWritebackLoss, fault.HeadRegress, fault.DuplicateCplBurst:
		// Scarce injection points: one doorbell (and so one completion
		// writeback) per task, so large skips would miss the episode.
		skip = int(seed % 2)
	}
	return fault.Single(seed, class, skip, count)
}

// TestFaultMatrix is the fault matrix: every fault class with an
// injection point on a Platform × matrixSeeds, each cell a saved trace —
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
			continue // no injection point on a Platform: TestSchedulerFaultMatrix
		}
		var fired uint64
		for _, seed := range matrixSeeds {
			cell := fmt.Sprintf("%v/seed=%#x", class, seed)
			t.Run(cell, func(t *testing.T) {
				data := savedTrace(t, fmt.Sprintf("matrix-%v-%#x", class, seed))
				if _, plan, _ := decodeTrace(data); !bytes.Equal(plan.Marshal(), matrixEvent(class, seed).Marshal()) {
					t.Fatalf("the trace's fault plan is not the cell's: %+v", plan)
				}
				sig, n := runTrace(t, data)
				if sig2, _ := runTrace(t, data); sig2 != sig {
					t.Fatalf("nondeterministic:\n run1: %s\n run2: %s", sig, sig2)
				}
				got.WriteString(cell + " " + sig + "\n")
				fired += n
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
