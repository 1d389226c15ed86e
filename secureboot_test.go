package ccai

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"testing"

	"ccai/internal/attest"
	"ccai/internal/hrot"
	"ccai/internal/xpu"
)

func newVendorCA(t *testing.T) *ecdsa.PrivateKey {
	t.Helper()
	ca, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

func TestPlatformSecureBootMeasuresPolicy(t *testing.T) {
	ca := newVendorCA(t)
	p, err := New(WithXPU(xpu.A100), WithMode(Protected))
	if err != nil {
		t.Fatal(err)
	}
	blade, err := p.SecureBoot(ca)
	if err != nil {
		t.Fatal(err)
	}
	if !blade.Booted() || p.Blade != blade {
		t.Fatal("boot did not populate the platform")
	}
	var zero hrot.Digest
	for _, pcr := range []int{hrot.PCRBitstream, hrot.PCRFirmware, hrot.PCRPolicy, hrot.PCRXPU} {
		if blade.PCRs().Read(pcr) == zero {
			t.Fatalf("PCR %d unmeasured", pcr)
		}
	}
	// The measured policy image is the live rule set, non-empty.
	if len(p.BootPolicyImage()) == 0 {
		t.Fatal("boot policy image empty")
	}
}

func TestPlatformSecureBootSensitiveToPolicy(t *testing.T) {
	ca := newVendorCA(t)
	a, err := New(WithXPU(xpu.A100), WithMode(Protected))
	if err != nil {
		t.Fatal(err)
	}
	bladeA, err := a.SecureBoot(ca)
	if err != nil {
		t.Fatal(err)
	}
	// A different device profile installs window rules over a BAR of
	// the same geometry, but its firmware PCR differs; more to the
	// point, a platform whose *policy* got an extra rule diverges in
	// PCRPolicy.
	b, err := New(WithXPU(xpu.A100), WithMode(Protected))
	if err != nil {
		t.Fatal(err)
	}
	b.recordBootRule(b.bootRules[0]) // policy image differs by one rule
	bladeB, err := b.SecureBoot(ca)
	if err != nil {
		t.Fatal(err)
	}
	if bladeA.PCRs().Read(hrot.PCRPolicy) == bladeB.PCRs().Read(hrot.PCRPolicy) {
		t.Fatal("policy substitution not reflected in PCRs")
	}
}

func TestPlatformSecureBootVanillaRejected(t *testing.T) {
	ca := newVendorCA(t)
	p, err := New(WithXPU(xpu.A100), WithMode(Vanilla))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.SecureBoot(ca); err == nil {
		t.Fatal("vanilla platform secure-booted")
	}
}

// TestBootToAttestationToTask is the full deployment flow: measured
// boot → remote attestation against golden PCRs → key provisioning →
// confidential task.
func TestBootToAttestationToTask(t *testing.T) {
	ca := newVendorCA(t)
	p, err := New(WithXPU(xpu.S60), WithMode(Protected))
	if err != nil {
		t.Fatal(err)
	}
	blade, err := p.SecureBoot(ca)
	if err != nil {
		t.Fatal(err)
	}

	platform, err := attest.NewPlatform(blade)
	if err != nil {
		t.Fatal(err)
	}
	verifier, err := attest.NewVerifier(&ca.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := platform.Establish(verifier.Hello()); err != nil {
		t.Fatal(err)
	}
	if err := verifier.Establish(platform.Hello()); err != nil {
		t.Fatal(err)
	}
	if err := verifier.ValidateCertificates(platform.Certificates()); err != nil {
		t.Fatal(err)
	}
	sel := []int{hrot.PCRBitstream, hrot.PCRFirmware, hrot.PCRPolicy, hrot.PCRXPU}
	verifier.Expected = [][]byte{blade.PCRs().Snapshot(sel)}
	ch, err := verifier.NewChallenge(1, sel)
	if err != nil {
		t.Fatal(err)
	}
	quote, err := platform.Respond(ch)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifier.Verify(ch, quote); err != nil {
		t.Fatal(err)
	}

	// Attestation passed: provision and run.
	if err := p.EstablishTrust(); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	out, err := p.RunTask(Task{Input: []byte("attested end-to-end"), Kernel: KernelAdd, Param: 0})
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "attested end-to-end" {
		t.Fatalf("out = %q", out)
	}
}
