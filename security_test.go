package ccai

// RQ2 (§8.2): the security analysis run as executable tests. Each test
// launches one attack class from the paper's threat model against a
// live platform and asserts the defence holds.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"ccai/internal/adaptor"
	"ccai/internal/attack"
	"ccai/internal/core"
	"ccai/internal/llm"
	"ccai/internal/pcie"
	"ccai/internal/secmem"
	"ccai/internal/xpu"
)

var secret = []byte("TOP-SECRET-MODEL-WEIGHTS-0123456789")

// taskInput builds an input embedding the canary secret.
func taskInput() []byte {
	in := make([]byte, 900)
	for i := range in {
		in[i] = byte(i * 3)
	}
	copy(in[100:], secret)
	copy(in[700:], secret)
	return in
}

// TestRQ2_SnoopVanillaSeesPlaintext establishes the attack works at
// all: without ccAI, a bus snooper reads the workload directly.
func TestRQ2_SnoopVanillaSeesPlaintext(t *testing.T) {
	p := vanillaPlatform(t, xpu.A100)
	snoop := attack.NewSnooper()
	p.Host.AddTap(snoop)
	if _, err := p.RunTask(Task{Input: taskInput(), Kernel: KernelAdd, Param: 0}); err != nil {
		t.Fatal(err)
	}
	if !snoop.SawPlaintext(secret) {
		t.Fatal("baseline broken: snooper missed plaintext on unprotected bus")
	}
}

// TestRQ2_SnoopProtectedSeesOnlyCiphertext is invariant 1 of DESIGN.md:
// no A2 plaintext on the untrusted segment.
func TestRQ2_SnoopProtectedSeesOnlyCiphertext(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	snoop := attack.NewSnooper()
	p.Host.AddTap(snoop)
	in := taskInput()
	out, err := p.RunTask(Task{Input: in, Kernel: KernelAdd, Param: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Param 0: output equals input, so the result also contains the
	// secret — and its D2H path must be encrypted too.
	if !bytes.Contains(out, secret) {
		t.Fatal("task did not round-trip the canary")
	}
	if snoop.SawPlaintext(secret) {
		t.Fatal("CONFIDENTIALITY BREACH: secret visible on untrusted bus")
	}
	if snoop.PayloadBytes() == 0 {
		t.Fatal("snooper saw no traffic; test not exercising the bus")
	}
	// On the internal (trusted, sealed-chassis) segment the xPU does
	// receive plaintext — that is by design.
	inner := attack.NewSnooper()
	p.Internal.AddTap(inner)
	if _, err := p.RunTask(Task{Input: in, Kernel: KernelAdd, Param: 0}); err != nil {
		t.Fatal(err)
	}
	if !inner.SawPlaintext(secret) {
		t.Fatal("xPU never received plaintext; computation would be garbage")
	}
}

// The RQ2 attacks below are saved traces of the protocol model
// (protocol_model_test.go): each test plays its trace, and the
// op's oracles and the model's invariant checks are the assertions.

// TestRQ2_TamperedDataDetected flips a bit in flight toward the SC: of
// a command-run fetch, which the SC refuses and the ladder re-drives to
// an exact result (T4); then of encrypted H2D data, which the SC's GCM
// check catches before any byte reaches the device, at the cost of the
// session (T0).
func TestRQ2_TamperedDataDetected(t *testing.T) { runTrace(t, savedTrace(t, "rq2-tamper-h2d")) }

// TestRQ2_TamperedResultDetected flips a bit of the sealed D2H result:
// the Adaptor's open refuses it (T1).
func TestRQ2_TamperedResultDetected(t *testing.T) { runTrace(t, savedTrace(t, "rq2-tamper-result")) }

// TestRQ2_TamperedDoorbellBlocked flips a bit of an A3 write to the xPU
// window: the SC's MAC check blocks it, and a task that completes does
// so exactly, after a resync — never by executing the forged write (T2).
func TestRQ2_TamperedDoorbellBlocked(t *testing.T) { runTrace(t, savedTrace(t, "rq2-tamper-doorbell")) }

// TestRQ2_ReplayRejected re-injects every TVM write of a finished task:
// no replayed chunk is decrypted again (t3 P).
func TestRQ2_ReplayRejected(t *testing.T) { runTrace(t, savedTrace(t, "rq2-replay")) }

// TestRQ2_RedirectedResultUnreadable re-aims the sealed result writes
// at attacker-readable host memory: the transfer fails and what landed
// is ciphertext (R).
func TestRQ2_RedirectedResultUnreadable(t *testing.T) { runTrace(t, savedTrace(t, "rq2-redirect")) }

// TestRQ2_DroppedPacketDetected deletes a completion toward the SC in
// flight — of a command run (D2), then of encrypted H2D data (D0): each
// time the recovery ladder reposts and re-drives, and the task is exact
// — never computed on a hole.
func TestRQ2_DroppedPacketDetected(t *testing.T) { runTrace(t, savedTrace(t, "rq2-drop")) }

// TestRQ2_RogueTVMBlockedByFilter: an unauthorized requester's writes and
// reads at the xPU window die in the L1 filter, and its teardown write
// at the control BAR is refused (G, Figure 5 ①).
func TestRQ2_RogueTVMBlockedByFilter(t *testing.T) { runTrace(t, savedTrace(t, "rq2-rogue")) }

// TestRQ2_MaliciousDeviceBlockedByIOMMU aims a rogue peripheral at TVM
// private memory; default-deny IOMMU must fault it.
func TestRQ2_MaliciousDeviceBlockedByIOMMU(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	// Write a secret into TVM private memory.
	priv, err := p.Guest.Space.Alloc("private", "tvm-secret", 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Guest.Space.Free(priv)
	copy(priv.Bytes(), secret)

	evil := &attack.RogueRequester{ID: pcie.MakeID(3, 0, 0), Bus: p.Host}
	cpl := evil.Read(priv.Base(), 64)
	if cpl != nil && cpl.Status == pcie.CplSuccess {
		t.Fatal("malicious device read TVM private memory")
	}
	evil.Write(priv.Base(), []byte("overwrite"))
	if !bytes.Equal(priv.Bytes()[:len(secret)], secret) {
		t.Fatal("malicious device modified TVM private memory")
	}
	if len(p.IOMMU.Faults) == 0 {
		t.Fatal("IOMMU recorded no faults")
	}
}

// TestRQ2_SCNeverReadsPrivateMemory: even the trusted SC holds no
// mapping for TVM-private pages (least privilege).
func TestRQ2_SCNeverReadsPrivateMemory(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	priv, err := p.Guest.Space.Alloc("private", "tvm-secret2", 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Guest.Space.Free(priv)
	cpl := p.Host.Route(pcie.NewMemRead(SCID, priv.Base(), 64, 0))
	if cpl != nil && cpl.Status == pcie.CplSuccess {
		t.Fatal("SC mapping extends into private memory")
	}
}

// TestRQ2_ForgedConfigInjectionRejected: policy without the config key
// — unsealed rules and one sealed under the attacker's key, as ring
// entries in the TVM's name, and writes at the offsets the old
// sealed-rule window and its doorbell had — installs nothing and costs
// one config reject an attempt (F, §4.1).
func TestRQ2_ForgedConfigInjectionRejected(t *testing.T) {
	runTrace(t, savedTrace(t, "rq2-forged-config"))
}

// TestRQ2_EnvGuardBlocksRoguePageTable installs the paper's example
// environment check (page-table register validity) and verifies a
// malicious value is stopped even with a valid MAC.
func TestRQ2_EnvGuardBlocksRoguePageTable(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	p.SC.Guard().AddCheck(core.MMIOCheck{
		Name:  "page-table-range",
		Reg:   xpu.RegPageTable,
		Valid: func(v uint64) bool { return v < 1<<20 }, // must stay in device memory
	})
	// Legitimate write passes.
	if err := p.Adaptor.GuardedWrite(xpu.RegPageTable, 0x4000); err != nil {
		t.Fatal(err)
	}
	// The Adaptor is trusted, but suppose compromised guest software
	// convinced it to point the page table at host memory: the SC's
	// independent check still blocks the value.
	blocksBefore := p.SC.Stats().GuardBlocks
	_ = p.Adaptor.GuardedWrite(xpu.RegPageTable, 0xffff_0000_0000)
	if p.SC.Stats().GuardBlocks != blocksBefore+1 {
		t.Fatal("environment guard did not block the rogue page table")
	}
	// Device register must still hold the legitimate value.
	v, err := p.Adaptor.DeviceRead(xpu.RegPageTable)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x4000 {
		t.Fatalf("page table register = %#x, want 0x4000", v)
	}
}

// TestRQ2_IVExhaustionForcesRekey puts the Adaptor's h2d counter at
// 2^32-9 and runs a task: both ends move to a new h2d epoch before the
// next seal, no IV is reused, and the task is exact (x, §6 key
// management).
func TestRQ2_IVExhaustionForcesRekey(t *testing.T) { runTrace(t, savedTrace(t, "rq2-iv-exhaustion")) }

// TestRQ2_FilterStatsAccounting sanity-checks that a clean protected
// run drops nothing and classifies traffic into all three permit
// classes.
func TestRQ2_FilterStatsAccounting(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	if _, err := p.RunTask(Task{Input: taskInput(), Kernel: KernelAdd, Param: 1}); err != nil {
		t.Fatal(err)
	}
	st := p.SC.Stats().Filter
	if st.Dropped != 0 {
		t.Fatalf("clean run dropped %d packets", st.Dropped)
	}
	if st.Protected == 0 || st.Verified == 0 || st.Passed == 0 {
		t.Fatalf("expected A2+A3+A4 traffic, got %+v", st)
	}
}

// --- step channel (DESIGN.md §6, §16) ------------------------------------------
//
// A decode step's positioned tag entry travels unsealed: slot index, IV
// counter, epoch and GCM tag in a submission-ring slot the host can
// rewrite at will. The cells below are the attacks that freedom buys.
// Each must end fail-closed — the SC counts an auth failure or a config
// reject, the attacked step's plaintext reaches neither the device nor
// the caller, the chunks already delivered are the right ones — and the
// tenant must serve a clean session afterwards (after re-trust where
// the attack cost it the session).

// ringEdit is a host-bus tap rewriting submission-ring entries in
// flight: every ring-fetch completion toward the SC (an exact multiple
// of RingSlotSize) is cloned and each slot handed to edit.
type ringEdit struct{ edit func(slot []byte) }

func (r ringEdit) Tap(p *pcie.Packet) *pcie.Packet {
	if p.Kind != pcie.CplD || len(p.Payload) == 0 || len(p.Payload)%core.RingSlotSize != 0 {
		return p
	}
	q := p.Clone()
	for off := 0; off < len(q.Payload); off += core.RingSlotSize {
		r.edit(q.Payload[off : off+core.RingSlotSize])
	}
	return q
}

// positionedEntry decodes a ring slot holding a positioned tag entry:
// its window's descriptor ID, first slot, and the packed records.
func positionedEntry(slot []byte) (region, first uint32, recs []byte, ok bool) {
	arg := binary.LittleEndian.Uint64(slot[8:])
	if slot[0] != core.RingOpTags || arg == 0 {
		return 0, 0, nil, false
	}
	n := int(binary.LittleEndian.Uint16(slot[2:]))
	return uint32(arg >> 32), uint32(arg), slot[core.RingEntryHdrSize : core.RingEntryHdrSize+n], true
}

// stepAttack is one adversarial decode stream on a one-tenant chassis:
// a host-bus attacker, a snooper on the trusted internal segment (what
// the device actually received), and the oracle for what the caller
// may have been handed.
type stepAttack struct {
	mp     *MultiPlatform
	tenant *Tenant
	inner  *attack.Snooper
	cfg    llm.Config
	prompt []byte
}

func newStepAttack(t *testing.T) *stepAttack {
	t.Helper()
	mp := llmChassis(t, []xpu.Profile{xpu.A100}, WithLLMEngine(llm.EngineConfig{Workers: 1}))
	a := &stepAttack{mp: mp, tenant: mp.Tenants[0], inner: attack.NewSnooper(),
		cfg:    llm.Config{MaxNewTokens: 64, ChunkTokens: 8, MaxPromptTokens: 16, Seed: 0xa77ac4},
		prompt: []byte("step channel under attack")}
	if err := a.cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	a.tenant.internal.AddTap(a.inner)
	return a
}

// ids is the plaintext decode step k seals into its window slot.
func (a *stepAttack) ids(k int) []byte {
	return llm.TokenIDs(nil, llm.Digest(a.cfg.Seed, a.prompt), k, a.cfg.ChunkSpan(k), a.cfg.TokenBytes)
}

// deliveredToDevice counts internal-bus packets carrying step k's ids.
func (a *stepAttack) deliveredToDevice(k int) int {
	n, ids := 0, a.ids(k)
	for _, p := range a.inner.Packets() {
		if bytes.Contains(p.Payload, ids) {
			n++
		}
	}
	return n
}

// stream runs the session and returns the data chunks it delivered and
// the error that ended it (nil for a clean stream).
func (a *stepAttack) stream(t *testing.T) (*InferenceSession, []DecodeChunk, error) {
	t.Helper()
	s, ch := openStream(t, a.tenant, a.cfg, a.prompt)
	chunks, err := drainStream(t, ch)
	return s, chunks, err
}

// drainStream reads a decode stream to its end: the data chunks it
// delivered and the error that aborted it, if one did.
func drainStream(t *testing.T, ch <-chan DecodeChunk) (chunks []DecodeChunk, err error) {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case c, ok := <-ch:
			switch {
			case !ok:
				return chunks, err
			case c.Err != nil:
				err = c.Err
			default:
				chunks = append(chunks, c)
			}
		case <-deadline:
			t.Fatal("attacked stream stalled")
		}
	}
}

// failedClosed asserts the common verdict: the stream aborted at decode
// step `at` with every earlier chunk correct, step `at`'s plaintext was
// handed to the device `reads` times (never, for an attack on the way
// up), and the session (torn down or not) is followed by a clean one.
func (a *stepAttack) failedClosed(t *testing.T, s *InferenceSession, chunks []DecodeChunk, err error, at, reads int, tornDown bool) {
	t.Helper()
	if err == nil || !errors.Is(err, ErrStreamAborted) {
		t.Fatalf("attacked stream ended with %v after %d chunks, want ErrStreamAborted", err, len(chunks))
	}
	want := expectedStream(a.cfg, a.prompt)
	if len(chunks) != at {
		t.Fatalf("%d chunks delivered, want the %d before the attacked step", len(chunks), at)
	}
	for i, c := range chunks {
		span := a.cfg.ChunkTokens * a.cfg.TokenBytes
		if c.Index != i || !bytes.Equal(c.Tokens, want[i*span:i*span+len(c.Tokens)]) {
			t.Fatalf("chunk %d delivered wrong: stale or forged plaintext reached the caller", i)
		}
	}
	if n := a.deliveredToDevice(at); n != reads {
		t.Fatalf("the attacked step's plaintext reached the device %d times, want %d", n, reads)
	}
	rec := a.tenant.Adaptor.Recovery()
	if tornDown != (rec.FailClosed > 0) || tornDown == a.tenant.trusted {
		t.Fatalf("torn down %v, want %v: %+v", !a.tenant.trusted, tornDown, rec)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	a.mp.Host.ClearTaps()
	if tornDown {
		if err := a.tenant.EstablishTrust(); err != nil {
			t.Fatalf("re-trust: %v", err)
		}
	}
	s2, ch := openStream(t, a.tenant, a.cfg, a.prompt)
	if got := collectStream(t, ch); !bytes.Equal(got, want) {
		t.Fatal("session after the attack is not clean")
	}
	s2.Close()
	if a.tenant.SC.Regions() != 1 {
		t.Fatalf("SC holds %d regions after the clean session, want the command ring only", a.tenant.SC.Regions())
	}
}

// TestStepChannelForgedCounter is cell (a): from decode step 3 on, every
// positioned tag (reposts included) carries a counter the Adaptor never
// sealed that slot under. The slot arms, and the read fails GCM.
func TestStepChannelForgedCounter(t *testing.T) {
	a := newStepAttack(t)
	forged := 0
	a.mp.Host.AddTap(ringEdit{func(slot []byte) {
		if _, first, recs, ok := positionedEntry(slot); ok && first >= 2 {
			binary.LittleEndian.PutUint32(recs[4:], binary.LittleEndian.Uint32(recs[4:])+1000)
			forged++
		}
	}})
	s, chunks, err := a.stream(t)
	if forged == 0 {
		t.Fatal("vacuous: no positioned tag forged")
	}
	if a.tenant.SC.Stats().AuthFailures == 0 {
		t.Fatal("forged counter cost no auth failure")
	}
	a.failedClosed(t, s, chunks, err, 3, 0, true)
}

// TestStepChannelSuppressedArm is cell (b): from decode step 3 on the
// positioned tag never arrives (the entry is rewritten into a bare
// notify). The slot stays unarmed and the device's read is rejected —
// in particular it is not served from slot 1's verified record.
func TestStepChannelSuppressedArm(t *testing.T) {
	a := newStepAttack(t)
	suppressed := 0
	a.mp.Host.AddTap(ringEdit{func(slot []byte) {
		if region, first, _, ok := positionedEntry(slot); ok && first >= 2 {
			slot[0] = core.RingOpNotify
			binary.LittleEndian.PutUint16(slot[2:], 0)
			binary.LittleEndian.PutUint64(slot[8:], uint64(region))
			suppressed++
		}
	}})
	s, chunks, err := a.stream(t)
	if suppressed == 0 {
		t.Fatal("vacuous: no positioned tag suppressed")
	}
	st := a.tenant.SC.Stats()
	if st.AuthFailures == 0 {
		t.Fatal("read of an unarmed slot cost no auth failure")
	}
	if st.DuplicateReads != 0 {
		t.Fatalf("%d reads served from a verified record: the unarmed slot borrowed its neighbour's", st.DuplicateReads)
	}
	a.failedClosed(t, s, chunks, err, 3, 0, true)
}

// TestStepChannelReplayedStep is cell (c), the full replay: from decode
// step 3 on, slot k's ciphertext is overwritten with slot k−1's and its
// positioned tag with slot k−1's record, re-aimed at slot k. Counter
// and tag are genuine — for another position. The AAD binds the slot
// and the h2d watermark is already past the counter.
func TestStepChannelReplayedStep(t *testing.T) {
	a := newStepAttack(t)
	var sess *InferenceSession
	orig := make(map[uint32][]byte) // slot → the record the Adaptor armed it with
	replayed := 0
	a.mp.Host.AddTap(ringEdit{func(slot []byte) {
		_, first, recs, ok := positionedEntry(slot)
		if !ok {
			return
		}
		if _, seen := orig[first]; !seen {
			orig[first] = append([]byte(nil), recs...)
		}
		if first >= 2 {
			// The tap runs inside the step's flush, on the worker that holds
			// the tenant: the session's window is stable here.
			win := sess.step.Window.Buf.Bytes()
			copy(win[int(first)*core.ChunkSize:][:core.ChunkSize], win[int(first-1)*core.ChunkSize:][:core.ChunkSize])
			copy(recs, orig[first-1])
			replayed++
		}
	}})
	s, err := a.tenant.OpenSession(context.Background(), a.cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess = s
	ch, err := s.Decode(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Prefill(context.Background(), a.prompt); err != nil {
		t.Fatal(err)
	}
	chunks, streamErr := drainStream(t, ch)
	if replayed == 0 {
		t.Fatal("vacuous: nothing replayed")
	}
	st := a.tenant.SC.Stats()
	if st.AuthFailures == 0 {
		t.Fatal("replayed step cost no auth failure")
	}
	if st.DuplicateReads != 0 {
		t.Fatalf("%d replayed reads re-served as duplicates", st.DuplicateReads)
	}
	if n := a.deliveredToDevice(2); n != 1 {
		t.Fatalf("step 2's plaintext reached the device %d times, want once (its own step)", n)
	}
	a.failedClosed(t, s, chunks, streamErr, 3, 0, true)
}

// forgedArm is a positioned tag entry's data: one h2d record carrying
// a counter the Adaptor never sealed anything under.
var forgedArm = core.TagRecord{Stream: core.StreamH2D, Chunk: 4242}.Marshal()

// TestStepChannelMisaimedArm is cell (d): a positioned tag for a slot
// outside the window and for a window already released is a config
// reject and costs the streams nothing; a session's arms redirected into
// another session's window on the same tenant leave its own slot unarmed
// and the tenant fails closed.
func TestStepChannelMisaimedArm(t *testing.T) {
	a := newStepAttack(t)
	// The host forges arms into a live stream without moving the ring's
	// indices: once decode step 1 has run (slot 0 is consumed), each
	// burst's region-ready notify — an entry the SC does nothing with —
	// is rewritten into the next forged arm. First a slot not yet used:
	// accepted for now and overwritten by the step's own, it costs
	// nothing. Then four misaimed ones: past the window, a wrapped slot
	// index, a window that does not exist, and slot 0, consumed under
	// another counter.
	var win uint32
	var aims []uint64
	forge := ringEdit{func(slot []byte) {
		if region, first, _, ok := positionedEntry(slot); ok && first == 1 && win == 0 {
			win = region
			aims = []uint64{core.ArmPosition(win, 5), core.ArmPosition(win, adaptor.StepWindowSlots),
				core.ArmPosition(win, ^uint32(0)), core.ArmPosition(win+1000, 0), core.ArmPosition(win, 0)}
		}
		if slot[0] == core.RingOpNotify && len(aims) > 0 {
			rewriteEntry(slot, core.RingOpTags, aims[0], forgedArm)
			aims = aims[1:]
		}
	}}
	a.mp.Host.AddTap(forge)
	rejects := a.tenant.SC.Stats().ConfigRejects
	s, ch := openStream(t, a.tenant, a.cfg, a.prompt)
	if got := collectStream(t, ch); !bytes.Equal(got, expectedStream(a.cfg, a.prompt)) {
		t.Fatal("stream disturbed by rejected arms")
	}
	if win == 0 || len(aims) != 0 {
		t.Fatalf("vacuous: window %d, %d forged arms never injected", win, len(aims))
	}
	if got := a.tenant.SC.Stats().ConfigRejects; got != rejects+4 {
		t.Fatalf("%d config rejects for four misaimed arms, want 4", got-rejects)
	}
	s.Close()
	// The window is released: an arm for it, riding a blob task's burst,
	// is refused and the task is none the wiser.
	rejects = a.tenant.SC.Stats().ConfigRejects
	aims = []uint64{core.ArmPosition(win, 1)}
	if _, err := a.tenant.RunTask(Task{Input: taskInput(), Kernel: KernelAdd, Param: 1}); err != nil {
		t.Fatal(err)
	}
	if got := a.tenant.SC.Stats().ConfigRejects; len(aims) != 0 || got != rejects+1 {
		t.Fatal("arm for a released window not rejected")
	}
	if a.tenant.SC.Stats().AuthFailures != 0 || !a.tenant.trusted {
		t.Fatal("rejected arms cost the tenant an auth failure or the session")
	}
	a.mp.Host.ClearTaps()

	// Two sessions, two windows: once both have armed, the first one's
	// arms from its third step on are redirected into the other's.
	a.inner.Reset()
	var from, to uint32
	redirected, at := 0, 0
	a.mp.Host.AddTap(ringEdit{func(slot []byte) {
		region, first, _, ok := positionedEntry(slot)
		if !ok {
			return
		}
		switch {
		case from == 0:
			from = region
		case to == 0 && region != from:
			to = region
		}
		if region == from && to != 0 && first >= 2 {
			binary.LittleEndian.PutUint64(slot[8:], core.ArmPosition(to, first))
			if redirected++; at == 0 {
				at = int(first) + 1 // slot k carries decode step k+1
			}
		}
	}})
	other := a.cfg
	other.Seed++
	gate := holdStep(a.mp, 1)
	sa, err := a.tenant.OpenSession(context.Background(), a.cfg)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := a.tenant.OpenSession(context.Background(), other)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	cha, _ := sa.Decode(context.Background())
	chb, _ := sb.Decode(context.Background())
	errs := make(chan error, 2)
	go func() { errs <- sa.Prefill(context.Background(), a.prompt) }()
	for a.mp.Engine().Pending() < 1 {
		time.Sleep(100 * time.Microsecond)
	}
	go func() { errs <- sb.Prefill(context.Background(), a.prompt) }()
	for a.mp.Engine().Pending() < 2 {
		time.Sleep(100 * time.Microsecond)
	}
	gate.release()
	chunks, streamErr := drainStream(t, cha)
	for range chb {
	}
	<-errs
	<-errs
	if redirected == 0 {
		t.Fatal("vacuous: no arm redirected")
	}
	if a.tenant.SC.Stats().AuthFailures == 0 {
		t.Fatal("a slot armed only in a foreign window cost no auth failure")
	}
	a.failedClosed(t, sa, chunks, streamErr, at, 0, true)
}

// TestStepChannelStaleOutput is cell (e): from decode step 2 on the SC's
// deposits into the output region (ciphertext and tag record) are
// dropped, so the region still holds step 1's. The d2h replica's
// strictly-increasing counter check refuses them: the caller gets an
// error, not chunk 1 again.
func TestStepChannelStaleOutput(t *testing.T) {
	a := newStepAttack(t)
	span := a.cfg.ChunkTokens * a.cfg.TokenBytes
	deposits, dropped := 0, 0
	a.mp.Host.AddTap(pcie.TapFunc(func(p *pcie.Packet) *pcie.Packet {
		if p.Kind != pcie.MWr || p.Requester != SCID {
			return p
		}
		switch len(p.Payload) {
		case span: // chunk ciphertext: prefill's, then one per decode step
			deposits++
		case core.TagRecordSize:
		default:
			return p
		}
		if deposits >= 3 {
			dropped++
			return nil
		}
		return p
	}))
	s, chunks, err := a.stream(t)
	if dropped < 2 {
		t.Fatalf("vacuous: %d deposits dropped", dropped)
	}
	if !errors.Is(err, secmem.ErrReplay) {
		t.Fatalf("stale output region ended the stream with %v, want the replica's replay verdict", err)
	}
	a.failedClosed(t, s, chunks, err, 2, 1, false)
}

// TestStepChannelEntryCarriesNoPayload is cell (f): over a whole stream,
// every positioned entry is exactly one tag record per slot — stream
// hash, IV counter, epoch, GCM tag — at consecutive slots with
// increasing counters, and neither it nor anything else on the host bus
// carries a window of the step's plaintext.
func TestStepChannelEntryCarriesNoPayload(t *testing.T) {
	a := newStepAttack(t)
	snoop := attack.NewSnooper()
	a.mp.Host.AddTap(snoop)
	var entries [][]byte
	var slots, counters []uint32
	a.mp.Host.AddTap(ringEdit{func(slot []byte) {
		if _, first, recs, ok := positionedEntry(slot); ok {
			entries = append(entries, append([]byte(nil), slot[:core.RingEntryHdrSize+len(recs)]...))
			slots = append(slots, first)
			counters = append(counters, binary.LittleEndian.Uint32(recs[4:]))
		}
	}})
	s, chunks, err := a.stream(t)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	steps := a.cfg.Chunks() - 1
	if len(chunks) != steps+1 || len(entries) != steps {
		t.Fatalf("%d chunks and %d positioned entries for %d decode steps", len(chunks), len(entries), steps)
	}
	h2d := core.TagRecord{Stream: core.StreamH2D}.Marshal()[:4]
	for i, e := range entries {
		recs := e[core.RingEntryHdrSize:]
		if len(recs) != core.TagRecordSize || !bytes.Equal(recs[:4], h2d) {
			t.Fatalf("entry %d is not one h2d tag record: % x", i, e)
		}
		if slots[i] != uint32(i) || (i > 0 && counters[i] <= counters[i-1]) {
			t.Fatalf("entry %d: slot %d counter %d after counter %d", i, slots[i], counters[i], counters[max(i-1, 0)])
		}
	}
	canaries := [][]byte{a.prompt[:8]}
	for k := 1; k <= steps; k++ {
		ids := a.ids(k)
		for off := 0; off+8 <= len(ids); off += 8 {
			canaries = append(canaries, ids[off:off+8])
		}
	}
	for _, c := range canaries {
		for i, e := range entries {
			if bytes.Contains(e, c) {
				t.Fatalf("positioned entry %d carries plaintext % x", i, c)
			}
		}
		if snoop.SawPlaintext(c) {
			t.Fatalf("plaintext % x on the host bus", c)
		}
	}
}
