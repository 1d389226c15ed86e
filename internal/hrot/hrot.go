// Package hrot implements ccAI's hardware root of trust: the
// HRoT-Blade (§6), a TPM-compatible trust module on the PCIe-SC board.
// It provides a SHA-256 PCR bank with extend semantics, the secure-boot
// measurement chain over the controller's bitstream and firmware, the
// endorsement/attestation key hierarchy, quote generation for remote
// attestation, and the chassis sealing loop that folds physical-sensor
// status into a PCR.
package hrot

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"ccai/internal/obsv"
)

// PCRCount is the size of the PCR bank.
const PCRCount = 16

// Well-known PCR indices used by the ccAI boot chain.
const (
	// PCRBitstream measures the PCIe-SC bitstream (Packet Filter,
	// Packet Handlers, crypto engines).
	PCRBitstream = 0
	// PCRFirmware measures the HRoT-Blade / controller firmware.
	PCRFirmware = 1
	// PCRPolicy measures the static boot-time Packet Filter policy.
	PCRPolicy = 2
	// PCRXPU measures the attached xPU's firmware identity.
	PCRXPU = 3
	// PCRSealing accumulates chassis physical-sensor status (§6
	// "Sealing").
	PCRSealing = 4
	// PCRAdaptor measures the TVM-side Adaptor module (CPU-side chain).
	PCRAdaptor = 5
)

// Digest is a SHA-256 measurement.
type Digest = [32]byte

// PCRBank is a bank of platform configuration registers with
// TPM-style extend-only semantics.
type PCRBank struct {
	regs [PCRCount]Digest
}

// Extend folds a measurement into PCR[i]: new = H(old || value).
func (b *PCRBank) Extend(i int, value Digest) error {
	if i < 0 || i >= PCRCount {
		return fmt.Errorf("hrot: PCR index %d out of range", i)
	}
	h := sha256.New()
	h.Write(b.regs[i][:])
	h.Write(value[:])
	copy(b.regs[i][:], h.Sum(nil))
	return nil
}

// Read returns PCR[i]'s current value.
func (b *PCRBank) Read(i int) Digest { return b.regs[i] }

// Snapshot serializes selected PCRs for signing.
func (b *PCRBank) Snapshot(sel []int) []byte {
	out := make([]byte, 0, len(sel)*(4+32))
	for _, i := range sel {
		var idx [4]byte
		binary.BigEndian.PutUint32(idx[:], uint32(i))
		out = append(out, idx[:]...)
		out = append(out, b.regs[i][:]...)
	}
	return out
}

// Blade is the HRoT-Blade trust module.
type Blade struct {
	pcrs PCRBank
	// ek is the endorsement key, pre-installed by the vendor during
	// manufacturing; ak is the attestation key, generated at boot.
	ek *ecdsa.PrivateKey
	ak *ecdsa.PrivateKey
	// ekCert is the vendor CA's signature over the EK public key.
	ekCert []byte
	// akCert is the EK's endorsement of the AK.
	akCert []byte
	booted bool

	sensors []Sensor
	hub     *obsv.Hub
}

// SetObserver wires the blade into the observability hub so
// out-of-envelope sensor polls surface as seal-sensor audit events.
func (b *Blade) SetObserver(h *obsv.Hub) { b.hub = h }

// Sensor is a chassis physical-integrity sensor polled over the I²C
// bus (pressure, temperature, intrusion switch).
type Sensor interface {
	Name() string
	// Sample reports the current reading and whether it is within the
	// sealed envelope.
	Sample() (value float64, ok bool)
}

// NewBlade manufactures a blade: the vendor generates and certifies the
// EK with its root CA.
func NewBlade(vendorCA *ecdsa.PrivateKey) (*Blade, error) {
	ek, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	b := &Blade{ek: ek}
	b.ekCert, err = signPub(vendorCA, &ek.PublicKey)
	if err != nil {
		return nil, err
	}
	return b, nil
}

func signPub(priv *ecdsa.PrivateKey, pub *ecdsa.PublicKey) ([]byte, error) {
	sum := sha256.Sum256(elliptic.Marshal(elliptic.P256(), pub.X, pub.Y))
	return ecdsa.SignASN1(rand.Reader, priv, sum[:])
}

// VerifyPub checks a signature binding pub to the signer.
func VerifyPub(signer *ecdsa.PublicKey, pub *ecdsa.PublicKey, cert []byte) bool {
	sum := sha256.Sum256(elliptic.Marshal(elliptic.P256(), pub.X, pub.Y))
	return ecdsa.VerifyASN1(signer, sum[:], cert)
}

// BootImage is one component measured during secure boot. Encrypted
// bitstreams are decrypted by the blade before measurement (the flash
// holds them sealed); here Content is the decrypted image.
type BootImage struct {
	Name    string
	PCR     int
	Content []byte
	// Signature is the vendor's signature over the content hash;
	// required for the boot to proceed.
	Signature []byte
}

// ErrBootRejected reports a secure-boot verification failure.
var ErrBootRejected = errors.New("hrot: secure boot rejected component")

// SecureBoot measures the component chain in order, verifying each
// vendor signature, extending the matching PCR, and generating the AK.
// Any failure leaves the blade unbooted (fail closed).
func (b *Blade) SecureBoot(vendor *ecdsa.PublicKey, chain []BootImage) error {
	for _, img := range chain {
		sum := sha256.Sum256(img.Content)
		if !ecdsa.VerifyASN1(vendor, sum[:], img.Signature) {
			return fmt.Errorf("%w: %s", ErrBootRejected, img.Name)
		}
		if err := b.pcrs.Extend(img.PCR, sum); err != nil {
			return err
		}
	}
	ak, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return err
	}
	b.ak = ak
	if b.akCert, err = signPub(b.ek, &ak.PublicKey); err != nil {
		return err
	}
	b.booted = true
	return nil
}

// SignImage is the vendor-side helper producing a BootImage signature.
func SignImage(vendor *ecdsa.PrivateKey, content []byte) ([]byte, error) {
	sum := sha256.Sum256(content)
	return ecdsa.SignASN1(rand.Reader, vendor, sum[:])
}

// Booted reports whether secure boot completed.
func (b *Blade) Booted() bool { return b.booted }

// PCRs exposes the bank (read/extend) for platform measurement hooks.
func (b *Blade) PCRs() *PCRBank { return &b.pcrs }

// EKPub/AKPub expose the public halves for certificate validation.
func (b *Blade) EKPub() *ecdsa.PublicKey { return &b.ek.PublicKey }

// AKPub returns the attestation public key (nil before boot).
func (b *Blade) AKPub() *ecdsa.PublicKey {
	if b.ak == nil {
		return nil
	}
	return &b.ak.PublicKey
}

// EKCert returns the vendor CA's endorsement certificate.
func (b *Blade) EKCert() []byte { return b.ekCert }

// AKCert returns the EK's signature over the AK.
func (b *Blade) AKCert() []byte { return b.akCert }

// Quote is a signed attestation report r = (nonce, PCRs, S(PCRs)) per
// Figure 6.
type Quote struct {
	Nonce    []byte
	Selected []int
	PCRs     []byte // Snapshot(Selected)
	SigPCRs  []byte // S(PCRs) = Sign_AK(PCRs)
	SigR     []byte // S(r)    = Sign_AK(nonce || PCRs || S(PCRs))
}

// ErrNotBooted reports quote requests before secure boot.
var ErrNotBooted = errors.New("hrot: blade not booted")

// GenerateQuote signs the selected PCRs and the full report with the
// AK (steps ③–④ of Figure 6, blade side).
func (b *Blade) GenerateQuote(nonce []byte, sel []int) (*Quote, error) {
	if !b.booted {
		return nil, ErrNotBooted
	}
	snap := b.pcrs.Snapshot(sel)
	sumP := sha256.Sum256(snap)
	sigP, err := ecdsa.SignASN1(rand.Reader, b.ak, sumP[:])
	if err != nil {
		return nil, err
	}
	r := reportBytes(nonce, snap, sigP)
	sumR := sha256.Sum256(r)
	sigR, err := ecdsa.SignASN1(rand.Reader, b.ak, sumR[:])
	if err != nil {
		return nil, err
	}
	return &Quote{Nonce: append([]byte(nil), nonce...), Selected: append([]int(nil), sel...), PCRs: snap, SigPCRs: sigP, SigR: sigR}, nil
}

func reportBytes(nonce, snap, sigP []byte) []byte {
	out := make([]byte, 0, len(nonce)+len(snap)+len(sigP))
	out = append(out, nonce...)
	out = append(out, snap...)
	out = append(out, sigP...)
	return out
}

// VerifyQuote validates a quote against an attestation public key,
// the expected nonce, and expected PCR values (verifier side of
// Figure 6 step ④).
func VerifyQuote(ak *ecdsa.PublicKey, q *Quote, nonce []byte, expected []byte) error {
	if string(q.Nonce) != string(nonce) {
		return errors.New("hrot: nonce mismatch (replayed report?)")
	}
	sumP := sha256.Sum256(q.PCRs)
	if !ecdsa.VerifyASN1(ak, sumP[:], q.SigPCRs) {
		return errors.New("hrot: PCR signature invalid")
	}
	sumR := sha256.Sum256(reportBytes(q.Nonce, q.PCRs, q.SigPCRs))
	if !ecdsa.VerifyASN1(ak, sumR[:], q.SigR) {
		return errors.New("hrot: report signature invalid")
	}
	if expected != nil && string(q.PCRs) != string(expected) {
		return errors.New("hrot: PCR values do not match expected platform state")
	}
	return nil
}

// --- sealing -----------------------------------------------------------------

// AddSensor registers a chassis sensor on the I²C poll loop.
func (b *Blade) AddSensor(s Sensor) { b.sensors = append(b.sensors, s) }

// PollSensors samples every sensor and extends PCRSealing with the
// combined status. A healthy poll extends a well-known "intact" record
// (keeping the PCR on the expected trajectory); any out-of-envelope
// reading extends a tamper record, permanently diverging the PCR so the
// next attestation fails (§6 "Sealing").
func (b *Blade) PollSensors() (intact bool) {
	intact = true
	h := sha256.New()
	for _, s := range b.sensors {
		_, ok := s.Sample()
		if !ok {
			intact = false
			fmt.Fprintf(h, "TAMPER:%s;", s.Name())
			b.hub.Eventf(obsv.EvSealSensor, "", "sensor=%s", s.Name())
		}
	}
	var rec Digest
	if intact {
		rec = sha256.Sum256([]byte("chassis-intact"))
	} else {
		copy(rec[:], h.Sum(nil))
	}
	_ = b.pcrs.Extend(PCRSealing, rec)
	return intact
}
