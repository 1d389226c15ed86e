package hrot

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"testing"
)

func newCA(t *testing.T) *ecdsa.PrivateKey {
	t.Helper()
	ca, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

func bootChain(t *testing.T, vendor *ecdsa.PrivateKey) []BootImage {
	t.Helper()
	var chain []BootImage
	images := []struct {
		name string
		pcr  int
		data string
	}{
		{"packet-filter-bitstream", PCRBitstream, "bitstream v1: L1/L2 tables, handlers, AES-GCM-SHA engine"},
		{"hrot-firmware", PCRFirmware, "hrot-blade fw 1.0"},
		{"boot-policy", PCRPolicy, "static L1/L2 rules"},
		{"xpu-firmware", PCRXPU, "A100 fw 550.90.07"},
	}
	for _, im := range images {
		sig, err := SignImage(vendor, []byte(im.data))
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, BootImage{Name: im.name, PCR: im.pcr, Content: []byte(im.data), Signature: sig})
	}
	return chain
}

func bootedBlade(t *testing.T) (*Blade, *ecdsa.PrivateKey) {
	t.Helper()
	ca := newCA(t)
	b, err := NewBlade(ca)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SecureBoot(&ca.PublicKey, bootChain(t, ca)); err != nil {
		t.Fatal(err)
	}
	return b, ca
}

func TestPCRExtendSemantics(t *testing.T) {
	var bank PCRBank
	zero := bank.Read(0)
	v := sha256.Sum256([]byte("m1"))
	if err := bank.Extend(0, v); err != nil {
		t.Fatal(err)
	}
	once := bank.Read(0)
	if once == zero {
		t.Fatal("extend did not change PCR")
	}
	// Extending with the same value again changes it further (chaining).
	if err := bank.Extend(0, v); err != nil {
		t.Fatal(err)
	}
	if bank.Read(0) == once {
		t.Fatal("extend not chained")
	}
	// Order matters.
	var a, b PCRBank
	v2 := sha256.Sum256([]byte("m2"))
	_ = a.Extend(1, v)
	_ = a.Extend(1, v2)
	_ = b.Extend(1, v2)
	_ = b.Extend(1, v)
	if a.Read(1) == b.Read(1) {
		t.Fatal("extend order-insensitive")
	}
	if err := bank.Extend(PCRCount, v); err == nil {
		t.Fatal("out-of-range PCR accepted")
	}
}

func TestSecureBootHappyPath(t *testing.T) {
	b, _ := bootedBlade(t)
	if !b.Booted() {
		t.Fatal("blade not booted")
	}
	if b.AKPub() == nil {
		t.Fatal("AK not generated at boot")
	}
	var zero Digest
	for _, pcr := range []int{PCRBitstream, PCRFirmware, PCRPolicy, PCRXPU} {
		if b.PCRs().Read(pcr) == zero {
			t.Fatalf("PCR %d unmeasured", pcr)
		}
	}
}

func TestSecureBootRejectsTamperedImage(t *testing.T) {
	ca := newCA(t)
	b, err := NewBlade(ca)
	if err != nil {
		t.Fatal(err)
	}
	chain := bootChain(t, ca)
	chain[0].Content = append(chain[0].Content, []byte(" backdoor")...)
	if err := b.SecureBoot(&ca.PublicKey, chain); err == nil {
		t.Fatal("tampered bitstream booted")
	}
	if b.Booted() {
		t.Fatal("blade booted after rejection")
	}
	if _, err := b.GenerateQuote([]byte("n"), []int{0}); err == nil {
		t.Fatal("unbooted blade produced a quote")
	}
}

func TestSecureBootRejectsWrongVendor(t *testing.T) {
	ca := newCA(t)
	mallory := newCA(t)
	b, _ := NewBlade(ca)
	chain := bootChain(t, mallory) // signed by the wrong key
	if err := b.SecureBoot(&ca.PublicKey, chain); err == nil {
		t.Fatal("foreign-signed firmware booted")
	}
}

func TestTamperedFirmwareChangesPCR(t *testing.T) {
	ca := newCA(t)
	good, _ := NewBlade(ca)
	if err := good.SecureBoot(&ca.PublicKey, bootChain(t, ca)); err != nil {
		t.Fatal(err)
	}
	// A different (but validly signed) firmware produces different PCRs
	// — the verifier's golden-value check catches it.
	evil, _ := NewBlade(ca)
	chain := bootChain(t, ca)
	evilFW := []byte("hrot-blade fw 1.0-evil")
	sig, _ := SignImage(ca, evilFW)
	chain[1] = BootImage{Name: "hrot-firmware", PCR: PCRFirmware, Content: evilFW, Signature: sig}
	if err := evil.SecureBoot(&ca.PublicKey, chain); err != nil {
		t.Fatal(err)
	}
	if good.PCRs().Read(PCRFirmware) == evil.PCRs().Read(PCRFirmware) {
		t.Fatal("different firmware measured equal")
	}
}

func TestQuoteVerifyHappyPath(t *testing.T) {
	b, _ := bootedBlade(t)
	nonce := []byte("fresh-nonce-123")
	sel := []int{PCRBitstream, PCRFirmware}
	q, err := b.GenerateQuote(nonce, sel)
	if err != nil {
		t.Fatal(err)
	}
	expected := b.PCRs().Snapshot(sel)
	if err := VerifyQuote(b.AKPub(), q, nonce, expected); err != nil {
		t.Fatal(err)
	}
}

func TestQuoteRejectsWrongNonce(t *testing.T) {
	b, _ := bootedBlade(t)
	q, _ := b.GenerateQuote([]byte("nonce-A"), []int{0})
	if err := VerifyQuote(b.AKPub(), q, []byte("nonce-B"), nil); err == nil {
		t.Fatal("stale nonce accepted")
	}
}

func TestQuoteRejectsTamperedPCRs(t *testing.T) {
	b, _ := bootedBlade(t)
	nonce := []byte("n")
	q, _ := b.GenerateQuote(nonce, []int{0})
	q.PCRs[5] ^= 1
	if err := VerifyQuote(b.AKPub(), q, nonce, nil); err == nil {
		t.Fatal("tampered PCR snapshot accepted")
	}
}

func TestQuoteRejectsForeignKey(t *testing.T) {
	b, _ := bootedBlade(t)
	other, _ := bootedBlade(t)
	nonce := []byte("n")
	q, _ := b.GenerateQuote(nonce, []int{0})
	if err := VerifyQuote(other.AKPub(), q, nonce, nil); err == nil {
		t.Fatal("quote verified under foreign AK")
	}
}

func TestQuoteRejectsUnexpectedPCRValues(t *testing.T) {
	b, _ := bootedBlade(t)
	nonce := []byte("n")
	sel := []int{PCRBitstream}
	q, _ := b.GenerateQuote(nonce, sel)
	wrong := make([]byte, len(q.PCRs))
	if err := VerifyQuote(b.AKPub(), q, nonce, wrong); err == nil {
		t.Fatal("unexpected platform state accepted")
	}
}

func TestCertificateHelpers(t *testing.T) {
	b, ca := bootedBlade(t)
	if !VerifyPub(&ca.PublicKey, b.EKPub(), b.EKCert()) {
		t.Fatal("EK cert invalid")
	}
	if !VerifyPub(b.EKPub(), b.AKPub(), b.AKCert()) {
		t.Fatal("AK cert invalid")
	}
	mallory := newCA(t)
	if VerifyPub(&mallory.PublicKey, b.EKPub(), b.EKCert()) {
		t.Fatal("EK cert verified under wrong CA")
	}
}

// fakeSensor implements Sensor for sealing tests.
type fakeSensor struct {
	name string
	ok   bool
}

func (f *fakeSensor) Name() string            { return f.name }
func (f *fakeSensor) Sample() (float64, bool) { return 1.0, f.ok }

// intactSealing is the sealing PCR of a blade whose one sensor reads
// healthy on each of n polls: the value a verifier whitelists.
func intactSealing(t *testing.T, n int) Digest {
	b, _ := bootedBlade(t)
	b.AddSensor(&fakeSensor{name: "chassis-lid", ok: true})
	for range n {
		b.PollSensors()
	}
	return b.PCRs().Read(PCRSealing)
}

// TestSealingIntactTrajectory: a healthy poll extends the same intact
// record whichever sensors the chassis has, so the PCR follows the
// trajectory the verifier whitelists.
func TestSealingIntactTrajectory(t *testing.T) {
	b, _ := bootedBlade(t)
	b.AddSensor(&fakeSensor{name: "pressure", ok: true})
	b.AddSensor(&fakeSensor{name: "temperature", ok: true})
	for i := 0; i < 3; i++ {
		if !b.PollSensors() {
			t.Fatal("healthy sensors reported tamper")
		}
	}
	if got := b.PCRs().Read(PCRSealing); got != intactSealing(t, 3) || got == intactSealing(t, 2) {
		t.Fatal("sealing PCR off the intact trajectory")
	}
}

func TestSealingTamperDivergesPCR(t *testing.T) {
	b, _ := bootedBlade(t)
	lid := &fakeSensor{name: "chassis-lid", ok: true}
	b.AddSensor(lid)
	b.PollSensors()
	lid.ok = false // adversary opens the chassis
	if b.PollSensors() {
		t.Fatal("tamper not detected")
	}
	lid.ok = true // close it again — too late
	b.PollSensors()
	if b.PCRs().Read(PCRSealing) == intactSealing(t, 3) {
		t.Fatal("sealing PCR recovered after physical tamper")
	}
}
