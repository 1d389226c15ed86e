package ccai

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"testing"

	"ccai/internal/core"
	"ccai/internal/pcie"
	"ccai/internal/xpu"
)

func protectedPlatform(t *testing.T, profile xpu.Profile) *Platform {
	t.Helper()
	p, err := New(WithXPU(profile), WithMode(Protected))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EstablishTrust(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	sliceHygiene(t, &p.pipeline, nil, p.Guest.Space)
	return p
}

func vanillaPlatform(t *testing.T, profile xpu.Profile) *Platform {
	t.Helper()
	p, err := New(WithXPU(profile), WithMode(Vanilla))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestVanillaTaskRoundTrip(t *testing.T) {
	p := vanillaPlatform(t, xpu.A100)
	input := []byte("hello unprotected world, this is plaintext DMA")
	out, err := p.RunTask(Task{Input: input, Kernel: KernelXOR, Param: 0x5a})
	if err != nil {
		t.Fatal(err)
	}
	for i := range input {
		if out[i] != input[i]^0x5a {
			t.Fatalf("byte %d: got %#x", i, out[i])
		}
	}
}

func TestProtectedTaskRoundTrip(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	input := []byte("confidential patient record: diagnosis code 42-X, model input tensor")
	out, err := p.RunTask(Task{Input: input, Kernel: KernelAdd, Param: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range input {
		if out[i] != input[i]+1 {
			t.Fatalf("byte %d: got %#x, want %#x", i, out[i], input[i]+1)
		}
	}
	// The SC must have actually decrypted and encrypted chunks.
	st := p.SC.Stats()
	if st.DecryptedChunks == 0 || st.EncryptedChunks == 0 {
		t.Fatalf("crypto path not exercised: %+v", st)
	}
	if st.AuthFailures != 0 {
		t.Fatalf("unexpected auth failures: %+v", st)
	}
}

func TestProtectedTaskMultiChunk(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	// > 4 chunks of 256 bytes, with a partial tail chunk.
	input := make([]byte, 1111)
	for i := range input {
		input[i] = byte(i * 7)
	}
	out, err := p.RunTask(Task{Input: input, Kernel: KernelXOR, Param: 0xff})
	if err != nil {
		t.Fatal(err)
	}
	for i := range input {
		if out[i] != input[i]^0xff {
			t.Fatalf("byte %d mismatch", i)
		}
	}
}

// TestD2HSealsWriteSpansAsBatches runs one 64 KiB protected task and
// checks that the D2H path sealed its result as engine batches, one per
// write span — a span ends at MaxReadReq bytes, here one 4 KiB chunk:
// 16 — rather than one per TLP. (The crypto/DMA overlap of the paper's
// hardware exists only on the virtual clock; internal/bench's overlap
// test holds it there.)
func TestD2HSealsWriteSpansAsBatches(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	input := make([]byte, 64<<10)
	for i := range input {
		input[i] = byte(i * 13)
	}
	before := p.SC.Stats()
	if _, err := p.RunTask(Task{Input: input, Kernel: KernelXOR, Param: 0x5a}); err != nil {
		t.Fatal(err)
	}
	after := p.SC.Stats()
	if d2h := after.BatchedD2HSpans - before.BatchedD2HSpans; d2h != 16 {
		t.Fatalf("%d D2H write spans sealed as batches, want 16", d2h)
	}
}

func TestProtectedMatchesVanillaResults(t *testing.T) {
	input := []byte("determinism check: both modes compute identical results")
	van := vanillaPlatform(t, xpu.T4)
	pro := protectedPlatform(t, xpu.T4)
	a, err := van.RunTask(Task{Input: input, Kernel: KernelChecksum})
	if err != nil {
		t.Fatal(err)
	}
	b, err := pro.RunTask(Task{Input: input, Kernel: KernelChecksum})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("vanilla %x != protected %x", a, b)
	}
}

// TestMultiXPUCompatibility is the functional core of RQ1/Figure 10:
// the same unmodified driver + Adaptor stack runs every device in the
// fleet.
func TestMultiXPUCompatibility(t *testing.T) {
	input := []byte("one adaptor, one driver, five devices")
	for _, prof := range xpu.Fleet() {
		t.Run(prof.Name, func(t *testing.T) {
			p := protectedPlatform(t, prof)
			out, err := p.RunTask(Task{Input: input, Kernel: KernelAdd, Param: 3})
			if err != nil {
				t.Fatal(err)
			}
			for i := range input {
				if out[i] != input[i]+3 {
					t.Fatalf("%s: byte %d wrong", prof.Name, i)
				}
			}
		})
	}
}

func TestSequentialTasksOneSession(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	for i := 0; i < 5; i++ {
		input := bytes.Repeat([]byte{byte(i + 1)}, 300+i*17)
		out, err := p.RunTask(Task{Input: input, Kernel: KernelXOR, Param: 0x11})
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		for j := range input {
			if out[j] != input[j]^0x11 {
				t.Fatalf("task %d byte %d wrong", i, j)
			}
		}
	}
}

func TestInterruptsDeliveredThroughSC(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	if _, err := p.RunTask(Task{Input: []byte("irq"), Kernel: KernelAdd, Param: 0}); err != nil {
		t.Fatal(err)
	}
	if len(p.Bridge.Interrupts()) == 0 {
		t.Fatal("MSI did not traverse the SC to the host bridge")
	}
}

func TestTaskWithoutTrustRejected(t *testing.T) {
	p, err := New(WithMode(Protected))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunTask(Task{Input: []byte("x"), Kernel: KernelAdd}); err == nil {
		t.Fatal("task ran without trust establishment")
	}
}

func TestTeardownCleansDeviceAndKeys(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	if _, err := p.RunTask(Task{Input: []byte("leave residue"), Kernel: KernelAdd, Param: 0}); err != nil {
		t.Fatal(err)
	}
	if !p.Device.MemResidue() {
		t.Fatal("expected device residue before teardown")
	}
	p.Close()
	if p.Device.MemResidue() {
		t.Fatal("environment guard left workload residue on the device")
	}
	if p.SC.Params().Active() != 0 {
		t.Fatal("teardown left live stream contexts")
	}
	st := p.SC.Stats()
	if st.Teardowns != 1 {
		t.Fatalf("teardowns = %d", st.Teardowns)
	}
}

func TestEnvResetFallbackForNPU(t *testing.T) {
	p := protectedPlatform(t, xpu.N150d) // no soft reset support
	if _, err := p.RunTask(Task{Input: []byte("npu job"), Kernel: KernelAdd, Param: 0}); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if p.Device.ColdBoots() == 0 {
		t.Fatal("NPU teardown should fall back to cold boot")
	}
}

// TestRetrustReusesStagingMemory: the memory a session stages its fixed
// structures in — the metadata page, the command ring — is the previous
// session's, given back or scrubbed, not a fresh 8 KiB of the slice's
// shared window per re-trust (at which a Platform's window was spent
// after 8,188 re-trusts and a tenant's after 2,046, for good).
func TestRetrustReusesStagingMemory(t *testing.T) {
	cycles := 10000
	if raceDetector {
		cycles = 500
	}
	p := protectedPlatform(t, xpu.A100)
	tn := servingPlatform(t, 2).Tenants[1]
	for name, c := range map[string]struct {
		pl      *pipeline
		host    *pcie.Bus
		scBar   uint64
		retrust func() error
		run     func(Task) ([]byte, error)
	}{
		"platform": {&p.pipeline, p.Host, scBARBase, func() error { p.teardown(); return p.EstablishTrust() }, p.RunTask},
		"tenant":   {&tn.pipeline, tn.parent.Host, scBARBase + tenantStride, func() error { tn.Close(); return tn.EstablishTrust() }, tn.RunTask},
	} {
		t.Run(name, func(t *testing.T) {
			// One observed re-trust: where the metadata page (its address
			// crosses the host bus) and the command ring land.
			bases := func() (meta, cmdring uint64) {
				t.Helper()
				c.host.AddTap(pcie.TapFunc(func(pk *pcie.Packet) *pcie.Packet {
					if pk.Kind == pcie.MWr && pk.Address == c.scBar+core.RegMetaBase {
						meta = binary.LittleEndian.Uint64(pk.Payload)
					}
					return pk
				}))
				defer c.host.ClearTaps()
				if err := c.retrust(); err != nil {
					t.Fatal(err)
				}
				return meta, c.pl.ring.Buf.Base()
			}
			meta, cmdring := bases()
			for i := 0; i < cycles; i++ {
				if err := c.retrust(); err != nil {
					t.Fatalf("re-trust %d: %v", i, err)
				}
			}
			if m, r := bases(); meta == 0 || m != meta || r != cmdring {
				t.Fatalf("after %d re-trusts the metadata page moved %#x → %#x, the command ring %#x → %#x", cycles, meta, m, cmdring, r)
			}
			out, err := c.run(Task{Input: []byte("still serving"), Kernel: KernelAdd, Param: 1})
			if err != nil || out[0] != 's'+1 {
				t.Fatalf("task after %d re-trusts: %q, %v", cycles, out, err)
			}
		})
	}
}

func TestEmptyTaskRejected(t *testing.T) {
	p := vanillaPlatform(t, xpu.A100)
	if _, err := p.RunTask(Task{}); err == nil {
		t.Fatal("empty task accepted")
	}
}

// TestAttestationGatesKeyProvisioning models a flashed/compromised xPU:
// the device answers the software-attestation challenge with a digest
// derived from its (wrong) firmware, the SC's golden measurement does
// not match, and trust establishment refuses to hand out keys (§6).
func TestAttestationGatesKeyProvisioning(t *testing.T) {
	p, err := New(WithMode(Protected), WithGoldenFirmware("550.90.07-genuine"))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EstablishTrust(); err == nil {
		t.Fatal("compromised firmware attested successfully")
	}
	if p.SC.Params().Active() != 0 {
		t.Fatal("keys provisioned despite failed attestation")
	}
	if _, err := p.RunTask(Task{Input: []byte("x"), Kernel: KernelAdd}); err == nil {
		t.Fatal("task ran on unattested platform")
	}
}

// flipCtx reports context.Canceled from its (after+1)-th Err call on:
// a cancellation landing at an exact point of the pipeline, without a
// goroutine racing it.
type flipCtx struct {
	context.Context
	calls, after int
}

func (c *flipCtx) Err() error {
	if c.calls++; c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestRunTaskCtxSafePoints pins the cancellation contract of the one
// protected pipeline for both owners: a context cancelled after staging
// is abandoned before the doorbell (the device sees nothing); one
// cancelled after the doorbell drains fully — collect included — and
// only then reports the cancellation, withholding the result. Either
// way the slice stays usable: the next clean task succeeds. A Tenant's
// cells are saved traces of the protocol model (b, c).
func TestRunTaskCtxSafePoints(t *testing.T) {
	points := []struct {
		name     string
		after    int    // Err calls answered nil: entry check, pre-doorbell check
		consumed uint64 // ring slots the cancelled run may use
	}{
		{"before-doorbell", 1, 0},
		{"after-collect", 2, 3},
	}
	task := Task{Input: make([]byte, 4096), Kernel: KernelXOR, Param: 0x5a}
	for _, pt := range points {
		p := protectedPlatform(t, xpu.A100)
		t.Run("Platform/"+pt.name, func(t *testing.T) {
			before := p.Driver.Tail()
			out, err := p.RunTaskCtx(&flipCtx{Context: context.Background(), after: pt.after}, task)
			if !errors.Is(err, context.Canceled) || out != nil {
				t.Fatalf("cancelled run returned (%d bytes, %v), want (nil, context.Canceled)", len(out), err)
			}
			if got := p.Driver.Tail() - before; got != pt.consumed {
				t.Fatalf("cancelled run rang %d commands, want %d", got, pt.consumed)
			}
			out, err = p.RunTaskCtx(context.Background(), task)
			if err != nil {
				t.Fatalf("clean task after cancellation: %v", err)
			}
			for i, b := range out {
				if b != 0x5a {
					t.Fatalf("clean task after cancellation: byte %d = %#x", i, b)
				}
			}
		})
		t.Run("Tenant/"+pt.name, func(t *testing.T) { playTrace(t, "cancel-"+pt.name) })
	}
}
