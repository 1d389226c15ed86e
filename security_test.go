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

// TestRQ2_TamperedDataDetected flips bits in encrypted H2D traffic; the
// SC's integrity check must catch it — the tampered bytes never reach
// the device, and the recovered task (the retransmit re-verifies) must
// produce the exact untampered result.
func TestRQ2_TamperedDataDetected(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	tamper := &attack.Tamperer{
		Match: func(pk *pcie.Packet) bool {
			// Corrupt ciphertext completions returning bounce-buffer
			// data toward the SC. Submission-ring fetches are exact
			// RingSlotSize multiples and are skipped: tampering ring
			// framing is a separate fail-closed path (fault matrix).
			return pk.Kind == pcie.CplD && pk.Requester == SCID &&
				len(pk.Payload)%core.RingSlotSize != 0
		},
		Count: 1,
	}
	p.Host.AddTap(tamper)
	in := taskInput()
	out, err := p.RunTask(Task{Input: in, Kernel: KernelAdd, Param: 2})
	if tamper.Tampered() == 0 {
		t.Fatal("tamperer never fired; test vacuous")
	}
	if p.SC.Stats().AuthFailures == 0 {
		t.Fatal("SC did not record the integrity failure")
	}
	if err != nil {
		t.Fatalf("recovery should re-drive after a single tamper: %v", err)
	}
	for i := range in {
		if out[i] != in[i]+2 {
			t.Fatalf("output corrupted at byte %d: tampered data reached the computation", i)
		}
	}
}

// TestRQ2_TamperedResultDetected corrupts the encrypted D2H result in
// the bounce buffer; the Adaptor's decrypt must fail.
func TestRQ2_TamperedResultDetected(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	tamper := &attack.Tamperer{
		Match: func(pk *pcie.Packet) bool {
			// Corrupt SC→host encrypted result writes into the shared
			// window (skip the small tag-table writes).
			return pk.Kind == pcie.MWr && pk.Requester == SCID && len(pk.Payload) >= 64
		},
		Count: 1,
	}
	p.Host.AddTap(tamper)
	if _, err := p.RunTask(Task{Input: taskInput(), Kernel: KernelAdd, Param: 0}); err == nil {
		t.Fatal("Adaptor accepted a tampered result")
	}
}

// TestRQ2_TamperedDoorbellBlocked corrupts an A3 MMIO write; the MAC
// check must reject it and the device must never see the command.
func TestRQ2_TamperedDoorbellBlocked(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	tamper := &attack.Tamperer{
		Match: func(pk *pcie.Packet) bool {
			return pk.Kind == pcie.MWr && pk.Requester == TVMID && pk.Address >= 0xd000_0000 && pk.Address < 0xd000_1000
		},
		Count: 1,
	}
	p.Host.AddTap(tamper)
	in := []byte("cmd tamper")
	out, err := p.RunTask(Task{Input: in, Kernel: KernelAdd, Param: 0})
	if p.SC.Stats().AuthFailures == 0 {
		t.Fatal("A3 MAC failure not recorded")
	}
	// The tampered write itself must be blocked at the SC; recovery then
	// re-syncs the A3 sequence and re-issues it, so the task completes
	// with the correct result (or fails — never executes a forged write).
	if err != nil {
		t.Logf("task failed closed after tampered control write: %v", err)
		return
	}
	if !bytes.Equal(out, in) {
		t.Fatalf("recovered output %q != input %q", out, in)
	}
	if p.Adaptor.Recovery().Resyncs == 0 {
		t.Fatal("task succeeded without an A3 resync; tampered write was not actually blocked")
	}
}

// TestRQ2_ReplayRejected replays captured encrypted traffic; the IV
// counter discipline must reject every replayed chunk.
func TestRQ2_ReplayRejected(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	rec := &attack.Recorder{
		Match: func(pk *pcie.Packet) bool {
			return pk.Kind == pcie.MWr && pk.Requester == TVMID
		},
	}
	p.Host.AddTap(rec)
	if _, err := p.RunTask(Task{Input: taskInput(), Kernel: KernelAdd, Param: 0}); err != nil {
		t.Fatal(err)
	}
	if len(rec.Captured) == 0 {
		t.Fatal("nothing captured to replay")
	}
	authBefore := p.SC.Stats().AuthFailures
	decBefore := p.SC.Stats().DecryptedChunks
	rec.Replay(p.Host)
	if p.SC.Stats().DecryptedChunks != decBefore {
		t.Fatal("replayed traffic caused fresh decryptions")
	}
	_ = authBefore // replayed control writes may or may not hit counters; decryption count is the oracle
}

// TestRQ2_RedirectedResultUnreadable redirects encrypted result chunks
// to a different shared-memory location; the stolen bytes must be
// ciphertext (adversary holds no keys), so secrecy is preserved even
// though the legitimate transfer is disturbed.
func TestRQ2_RedirectedResultUnreadable(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	// Attacker-readable landing zone inside shared memory.
	landing, err := p.Guest.Space.Alloc("shared", "attacker-landing", 4096)
	if err != nil {
		t.Fatal(err)
	}
	redir := &attack.Redirector{
		Match: func(pk *pcie.Packet) bool {
			return pk.Kind == pcie.MWr && pk.Requester == SCID && len(pk.Payload) >= 64
		},
		NewDst: landing.Base(),
	}
	p.Host.AddTap(redir)
	_, taskErr := p.RunTask(Task{Input: taskInput(), Kernel: KernelAdd, Param: 0})
	if redir.Hits() == 0 {
		t.Fatal("redirector never fired")
	}
	if taskErr == nil {
		t.Fatal("redirected transfer went unnoticed")
	}
	if bytes.Contains(landing.Bytes(), secret) {
		t.Fatal("redirected payload contained plaintext secret")
	}
}

// TestRQ2_DroppedPacketDetected deletes an encrypted chunk in flight.
// The stall is detected and the recovery ladder (tag repost + driver
// kick) re-drives the transfer; the task must either fail or complete
// with the correct result — never silently compute on a hole.
func TestRQ2_DroppedPacketDetected(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	drop := &attack.Dropper{
		Match: func(pk *pcie.Packet) bool {
			// Data completions only; ring fetches (RingSlotSize
			// multiples) self-heal via the SC's bounded re-read and
			// would absorb the drop.
			return pk.Kind == pcie.CplD && pk.Requester == SCID &&
				len(pk.Payload) >= 64 && len(pk.Payload)%core.RingSlotSize != 0
		},
		Count: 1,
	}
	p.Host.AddTap(drop)
	in := taskInput()
	out, err := p.RunTask(Task{Input: in, Kernel: KernelAdd, Param: 1})
	if drop.Dropped() == 0 {
		t.Fatal("dropper never fired")
	}
	if err != nil {
		t.Fatalf("recovery should re-drive the transfer after a single drop: %v", err)
	}
	for i := range in {
		if out[i] != in[i]+1 {
			t.Fatalf("recovered output wrong at byte %d: got %#x want %#x", i, out[i], in[i]+1)
		}
	}
	if rec := p.Adaptor.Recovery(); rec.Reposts == 0 {
		t.Fatalf("recovery never engaged: %+v", rec)
	}
}

// TestRQ2_RogueTVMBlockedByFilter sends forged requests from an
// unauthorized requester at the xPU window and the SC control BAR; the
// L1 table must drop all of them (Figure 5 ①).
func TestRQ2_RogueTVMBlockedByFilter(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	rogue := &attack.RogueRequester{ID: pcie.MakeID(0, 9, 0), Bus: p.Host}

	droppedBefore := p.SC.Stats().Filter.Dropped
	rogue.Write(0xd000_0000+xpu.RegDoorbell, []byte{1, 0, 0, 0, 0, 0, 0, 0})
	cpl := rogue.Read(0xd000_0000+xpu.RegStatus, 8)
	if cpl != nil && cpl.Status == pcie.CplSuccess {
		t.Fatal("rogue TVM read xPU state through the SC")
	}
	if p.SC.Stats().Filter.Dropped <= droppedBefore {
		t.Fatal("filter did not record the rogue drops")
	}
	// Control BAR: requester pinning rejects it.
	rejBefore := p.SC.Stats().ConfigRejects
	rogue.Write(scBARBase+core.RegTeardown, []byte{1, 0, 0, 0, 0, 0, 0, 0})
	if p.SC.Stats().Teardowns != 0 {
		t.Fatal("rogue TVM triggered teardown")
	}
	if p.SC.Stats().ConfigRejects <= rejBefore {
		t.Fatal("control-BAR rejection not recorded")
	}
}

// TestRQ2_MaliciousDeviceBlockedByIOMMU aims a rogue peripheral at TVM
// private memory; default-deny IOMMU must fault it.
func TestRQ2_MaliciousDeviceBlockedByIOMMU(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	// Write a secret into TVM private memory.
	priv, err := p.Guest.Space.Alloc("private", "tvm-secret", 4096)
	if err != nil {
		t.Fatal(err)
	}
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
	cpl := p.Host.Route(pcie.NewMemRead(SCID, priv.Base(), 64, 0))
	if cpl != nil && cpl.Status == pcie.CplSuccess {
		t.Fatal("SC mapping extends into private memory")
	}
}

// TestRQ2_ForgedConfigInjectionRejected writes unsealed / wrongly-keyed
// policy blobs into the SC configuration space; only config-stream
// sealed blobs may install rules (§4.1).
func TestRQ2_ForgedConfigInjectionRejected(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	l1Before, l2Before := p.SC.Filter().RuleCount()

	evil := core.Rule{ID: 99, Mask: 0, Action: core.ActionPassThrough} // match-all allow
	// Attempt 1: raw plaintext rule (no sealing), as a ring entry
	// published in the real TVM's name.
	forgeRingEntry(t, p, core.RingOpRule, 0, evil.Marshal())

	// Attempt 2: sealed under an attacker-chosen key.
	wrongStream, _ := secmem.NewStream(secmem.FreshKey(), secmem.FreshNonce())
	sealed, _ := wrongStream.Seal(evil.Marshal(), nil)
	forgeRingEntry(t, p, core.RingOpRule, 0, core.MarshalBlob(sealed))

	// Attempt 3: at the offsets the sealed-rule window and its doorbell
	// once had. Nothing decodes them any more.
	p.Host.Route(pcie.NewMemWrite(TVMID, scBARBase+0x100, core.MarshalBlob(sealed)))
	p.Host.Route(pcie.NewMemWrite(TVMID, scBARBase+0x010, []byte{1, 0, 0, 0, 0, 0, 0, 0}))

	l1After, l2After := p.SC.Filter().RuleCount()
	if l1After != l1Before || l2After != l2Before {
		t.Fatal("forged policy installed")
	}
	if got := p.SC.Stats().ConfigRejects; got != 4 {
		t.Fatalf("config rejects = %d, want 4", got)
	}
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

// TestRQ2_IVExhaustionForcesRekey drives a stream to counter exhaustion
// and verifies the session refuses to reuse an IV and recovers after
// rekey (§6 key management).
func TestRQ2_IVExhaustionForcesRekey(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	// Exhaust the TVM-side h2d counter artificially.
	h2d, err := p.tvmKeys.Stream(core.StreamH2D)
	if err != nil {
		t.Fatal(err)
	}
	_ = h2d // direct stream replica; the Adaptor holds its own.
	// Force the Adaptor's stream near exhaustion via many small stages
	// is impractical; instead verify at the secmem layer with the same
	// material, then verify rekey on the SC's manager.
	key, nonce, err := p.scKeys.Material(core.StreamH2D)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := secmem.NewStream(key, nonce)
	s.ForceCounter(^uint32(0))
	if _, err := s.Seal([]byte("x"), nil); err == nil {
		t.Fatal("IV reuse permitted")
	}
	if err := p.SC.Params().Rekey(core.StreamH2D, secmem.FreshKey(), secmem.FreshNonce()); err != nil {
		t.Fatal(err)
	}
	scStream, _ := p.SC.Params().Stream(core.StreamH2D)
	if scStream.Epoch() != 1 {
		t.Fatalf("SC stream epoch = %d after rekey", scStream.Epoch())
	}
}

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
