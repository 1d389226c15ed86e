package ccai

// RQ2 (§8.2): the security analysis run as executable tests. Each test
// launches one attack class from the paper's threat model against a
// live platform and asserts the defence holds; the attack cells, on
// blob tasks and on the step channel, are saved traces of the protocol
// model (protocol_model_test.go).

import (
	"bytes"
	"testing"

	"ccai/internal/attack"
	"ccai/internal/pcie"
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
// a command run's entry in the slot fetch, whose span the seal refuses
// whole, so no command of that copy executes, and the SC's re-fetch gets
// the sealed one: the task is exact at the cost of one config reject
// (T4); then of encrypted H2D data, which the SC's GCM check catches
// before any byte reaches the device, at the cost of the session (T0).
func TestRQ2_TamperedDataDetected(t *testing.T) { playTrace(t, "rq2-tamper-h2d") }

// TestRQ2_TamperedResultDetected flips a bit of the sealed D2H result:
// the Adaptor's open refuses it (T1).
func TestRQ2_TamperedResultDetected(t *testing.T) { playTrace(t, "rq2-tamper-result") }

// TestRQ2_TamperedDoorbellBlocked flips a bit of the value of the A3
// doorbell write's ring entry in every fetch of its span: the span's
// seal refuses it whole, its re-fetch too, so the forged write never
// executes, and the session fails closed (T2).
func TestRQ2_TamperedDoorbellBlocked(t *testing.T) { playTrace(t, "rq2-tamper-doorbell") }

// TestRQ2_ReplayRejected re-injects every TVM write of a finished task:
// no replayed chunk is decrypted again (t3 P).
func TestRQ2_ReplayRejected(t *testing.T) { playTrace(t, "rq2-replay") }

// TestRQ2_RedirectedResultUnreadable re-aims the sealed result writes
// at attacker-readable host memory: the transfer fails and what landed
// is ciphertext (R).
func TestRQ2_RedirectedResultUnreadable(t *testing.T) { playTrace(t, "rq2-redirect") }

// TestRQ2_DroppedPacketDetected deletes a completion toward the SC in
// flight — of the slot fetch carrying a command run (D2), which the SC
// fetches again, then of encrypted H2D data (D0), which the recovery
// ladder reposts and re-drives: the task is exact each time — never
// computed on a hole.
func TestRQ2_DroppedPacketDetected(t *testing.T) { playTrace(t, "rq2-drop") }

// TestRQ2_RogueTVMBlockedByFilter: an unauthorized requester's writes and
// reads at the xPU window die in the L1 filter, and its teardown write
// at the control BAR is refused (G, Figure 5 ①).
func TestRQ2_RogueTVMBlockedByFilter(t *testing.T) { playTrace(t, "rq2-rogue") }

// TestRQ2_DirectDoorbellRefused: a write to the device doorbell put on
// the host bus in the TVM's name is classified A3 and refused, since a
// guarded write reaches the device only as an entry of a sealed ring
// span; the device is not rung and the session carries on (G1).
func TestRQ2_DirectDoorbellRefused(t *testing.T) { playTrace(t, "rq2-direct-doorbell") }

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
func TestRQ2_ForgedConfigInjectionRejected(t *testing.T) { playTrace(t, "rq2-forged-config") }

// TestRQ2_EnvGuardBlocksRoguePageTable: the platform installs the
// paper's example environment check (page-table register validity), so
// a malicious value is stopped even with a valid MAC.
func TestRQ2_EnvGuardBlocksRoguePageTable(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	// Legitimate write passes.
	if err := p.Adaptor.GuardedWrite(xpu.RegPageTable, 0x4000); err != nil {
		t.Fatal(err)
	}
	// The Adaptor is trusted, but suppose compromised guest software
	// convinced it to point the page table at host memory: the SC's
	// independent check still blocks the value.
	blocksBefore := p.SC.Stats().GuardBlocks
	_ = p.Adaptor.GuardedWrite(xpu.RegPageTable, 0xffff_0000_0000)
	// Both writes are posted; one doorbell publishes them, in order.
	if err := p.Adaptor.Publish(); err != nil {
		t.Fatal(err)
	}
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
func TestRQ2_IVExhaustionForcesRekey(t *testing.T) { playTrace(t, "rq2-iv-exhaustion") }

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
// A decode step's positioned tag entry travels unsealed by the config
// stream: slot index, IV counter, epoch and GCM tag in a
// submission-ring slot the host can rewrite. The cells below are the
// attacks on it, saved traces of the protocol model whose S and M ops
// are the attacks. Since every published span carries a seal, a
// rewritten entry refuses its whole span: each rewrite ends fail-closed
// — a config reject at the SC, no entry of the span dispatched, the
// attacked step's plaintext at neither the device nor the caller, the
// chunks already delivered exact — and a clean session follows after
// re-trust.

// TestStepChannelForgedCounter: decode step 3's positioned tag carries a
// counter the Adaptor never sealed that slot under. The edit breaks the
// span's seal: refused whole, before the slot arms (S0).
func TestStepChannelForgedCounter(t *testing.T) { playTrace(t, "step-forged-counter") }

// TestStepChannelSuppressedArm: decode step 3's positioned tag is
// rewritten into a bare notify. The span's seal refuses it whole: the
// device never reads the unarmed slot, nor slot 1's record in its place
// (S1).
func TestStepChannelSuppressedArm(t *testing.T) { playTrace(t, "step-suppressed-arm") }

// TestStepChannelReplayedStep is the full replay: slot k's ciphertext is
// overwritten with slot k−1's and its positioned tag with slot k−1's
// record, re-aimed at slot k. Counter and tag are genuine — for another
// position — but the rewritten entry breaks the span's seal, and step
// k−1's ids reach the device only in their own step (S2).
func TestStepChannelReplayedStep(t *testing.T) { playTrace(t, "step-replayed") }

// TestStepChannelMisaimedArm: the step's positioned tag forged, in
// place and well framed, for a slot past the window, a wrapped slot
// index, a window that does not exist, a consumed slot, a window already
// released or a slot ahead (M0–M4, M6), each in a fresh session, and a
// session's arms redirected into another session's window (M5): every
// one breaks its span's seal in every fetch, so no aim is tried — the
// span is refused whole, its re-fetch too, and the tenant fails closed.
func TestStepChannelMisaimedArm(t *testing.T) {
	playTrace(t, "step-misaimed-arm")
	playTrace(t, "step-foreign-arm")
}

// TestStepChannelStaleOutput: decode step 2's deposits into the output
// region are dropped, so it still holds step 1's. The d2h replica's
// strictly increasing counter refuses them: the stream ends with
// secmem.ErrReplay, not chunk 1 again, and the session stays (S3).
func TestStepChannelStaleOutput(t *testing.T) { playTrace(t, "step-stale-output") }

// TestStepChannelEntryCarriesNoPayload: over a whole stream, every
// positioned entry is one h2d tag record at the model's slot, counter
// and epoch, and no window of a step's ids, nor the prompt, is on the
// host bus (I1).
func TestStepChannelEntryCarriesNoPayload(t *testing.T) { playTrace(t, "step-entry-no-payload") }
