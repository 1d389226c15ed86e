// Package attest implements ccAI's remote attestation protocol
// (Figure 6) and the workload key exchange built on top of it. The
// four steps: ① ECDH key exchange yields a SessionKey encrypting all
// subsequent messages; ② the verifier fetches the AK/EK certificates
// and validates them against the vendor root CA; ③ the verifier sends
// a challenge (key id, PCR selection, nonce); ④ the platform returns
// the signed report, which the verifier checks against nonce, signature
// chain and expected PCR values. On success the session key carries the
// workload stream keys to the TVM and the PCIe-SC.
package attest

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"

	"ccai/internal/hrot"
	"ccai/internal/secmem"
)

// Errors surfaced by the protocol.
var (
	ErrCertChain = errors.New("attest: certificate chain invalid")
	ErrReport    = errors.New("attest: attestation report invalid")
)

// Platform is the ccAI side of the protocol: the machine owner's view
// of blade + session state.
type Platform struct {
	Blade   *hrot.Blade
	dh      *ecdh.PrivateKey
	sessKey []byte
}

// Verifier is the remote user's side.
type Verifier struct {
	VendorCA *ecdsa.PublicKey
	dh       *ecdh.PrivateKey
	sessKey  []byte
	akPub    *ecdsa.PublicKey
	// Expected is the whitelist of acceptable PCR snapshots (golden
	// measurements published by the platform operator).
	Expected [][]byte
}

// Hello carries each side's ephemeral ECDH public key (step ①).
type Hello struct {
	Pub []byte
}

// NewPlatform wraps a booted blade.
func NewPlatform(b *hrot.Blade) (*Platform, error) {
	if !b.Booted() {
		return nil, hrot.ErrNotBooted
	}
	key, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	return &Platform{Blade: b, dh: key}, nil
}

// NewVerifier builds a verifier trusting the given vendor root CA.
func NewVerifier(vendorCA *ecdsa.PublicKey) (*Verifier, error) {
	key, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	return &Verifier{VendorCA: vendorCA, dh: key}, nil
}

// Hello emits the platform's key-share.
func (p *Platform) Hello() Hello { return Hello{Pub: p.dh.PublicKey().Bytes()} }

// Hello emits the verifier's key-share.
func (v *Verifier) Hello() Hello { return Hello{Pub: v.dh.PublicKey().Bytes()} }

func deriveSession(priv *ecdh.PrivateKey, peer []byte) ([]byte, error) {
	pub, err := ecdh.P256().NewPublicKey(peer)
	if err != nil {
		return nil, fmt.Errorf("attest: bad peer key share: %w", err)
	}
	shared, err := priv.ECDH(pub)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(shared)
	return sum[:secmem.KeySize], nil
}

// Establish completes step ① on the platform.
func (p *Platform) Establish(peer Hello) error {
	key, err := deriveSession(p.dh, peer.Pub)
	if err != nil {
		return err
	}
	p.sessKey = key
	return nil
}

// Establish completes step ① on the verifier.
func (v *Verifier) Establish(peer Hello) error {
	key, err := deriveSession(v.dh, peer.Pub)
	if err != nil {
		return err
	}
	v.sessKey = key
	return nil
}

// Certificates carries step ②'s S(AttestKey), S(EndorseKey).
type Certificates struct {
	EKPub  *ecdsa.PublicKey
	AKPub  *ecdsa.PublicKey
	EKCert []byte // vendor CA over EK
	AKCert []byte // EK over AK
}

// Certificates exports the platform's key hierarchy.
func (p *Platform) Certificates() Certificates {
	return Certificates{
		EKPub:  p.Blade.EKPub(),
		AKPub:  p.Blade.AKPub(),
		EKCert: p.Blade.EKCert(),
		AKCert: p.Blade.AKCert(),
	}
}

// ValidateCertificates performs step ②: EK endorsed by the vendor CA,
// AK endorsed by the EK.
func (v *Verifier) ValidateCertificates(c Certificates) error {
	if c.EKPub == nil || c.AKPub == nil {
		return fmt.Errorf("%w: missing keys", ErrCertChain)
	}
	if !hrot.VerifyPub(v.VendorCA, c.EKPub, c.EKCert) {
		return fmt.Errorf("%w: EK not endorsed by vendor CA", ErrCertChain)
	}
	if !hrot.VerifyPub(c.EKPub, c.AKPub, c.AKCert) {
		return fmt.Errorf("%w: AK not endorsed by EK", ErrCertChain)
	}
	v.akPub = c.AKPub
	return nil
}

// Challenge is step ③: KeyID selects the xPU set, PCRSel the registers,
// Nonce the freshness.
type Challenge struct {
	KeyID  uint32
	PCRSel []int
	Nonce  []byte
}

// NewChallenge draws a fresh nonce for the selection.
func (v *Verifier) NewChallenge(keyID uint32, sel []int) (Challenge, error) {
	nonce := make([]byte, 32)
	if _, err := rand.Read(nonce); err != nil {
		return Challenge{}, err
	}
	return Challenge{KeyID: keyID, PCRSel: append([]int(nil), sel...), Nonce: nonce}, nil
}

// Respond is step ④ platform-side: the TVM forwards the challenge to
// the HRoT, which signs the selected PCRs.
func (p *Platform) Respond(ch Challenge) (*hrot.Quote, error) {
	return p.Blade.GenerateQuote(ch.Nonce, ch.PCRSel)
}

// Verify is step ④ verifier-side: nonce, signature chain, and PCR
// whitelist.
func (v *Verifier) Verify(ch Challenge, q *hrot.Quote) error {
	if v.akPub == nil {
		return fmt.Errorf("%w: certificates not validated", ErrReport)
	}
	var match []byte
	for _, exp := range v.Expected {
		if string(exp) == string(q.PCRs) {
			match = exp
			break
		}
	}
	if v.Expected != nil && match == nil {
		return fmt.Errorf("%w: PCRs not in golden set", ErrReport)
	}
	if err := hrot.VerifyQuote(v.akPub, q, ch.Nonce, match); err != nil {
		return fmt.Errorf("%w: %v", ErrReport, err)
	}
	return nil
}

// --- workload key delivery -----------------------------------------------------

// KeyBundle is the post-attestation payload: the symmetric material for
// every protected stream, sealed under the session key.
type KeyBundle struct {
	Streams map[string]StreamMaterial
}

// StreamMaterial is one stream's key + nonce base.
type StreamMaterial struct {
	Key   []byte
	Nonce []byte
}

// NewKeyBundle draws fresh material for the standard stream set.
func NewKeyBundle(streams []string) KeyBundle {
	kb := KeyBundle{Streams: make(map[string]StreamMaterial, len(streams))}
	for _, s := range streams {
		kb.Streams[s] = StreamMaterial{Key: secmem.FreshKey(), Nonce: secmem.FreshNonce()}
	}
	return kb
}

// Seal encrypts the bundle under the session key for transport.
func (v *Verifier) Seal(kb KeyBundle) (*secmem.Sealed, error) {
	if v.sessKey == nil {
		return nil, errors.New("attest: no session key")
	}
	stream, err := secmem.NewStream(v.sessKey, fixedSessionNonce)
	if err != nil {
		return nil, err
	}
	return stream.Seal(marshalBundle(kb), nil)
}

// OpenBundle decrypts a delivered bundle on the platform.
func (p *Platform) OpenBundle(sealed *secmem.Sealed) (KeyBundle, error) {
	if p.sessKey == nil {
		return KeyBundle{}, errors.New("attest: no session key")
	}
	stream, err := secmem.NewStream(p.sessKey, fixedSessionNonce)
	if err != nil {
		return KeyBundle{}, err
	}
	pt, err := stream.Open(sealed, nil)
	if err != nil {
		return KeyBundle{}, err
	}
	return unmarshalBundle(pt)
}

// fixedSessionNonce: the session key is single-use (one bundle per
// handshake), so a fixed nonce base with counter 1 is safe; rekeying a
// session requires a fresh handshake.
var fixedSessionNonce = []byte{0x63, 0x63, 0x41, 0x49, 0x2d, 0x4b, 0x42, 0x31}

func marshalBundle(kb KeyBundle) []byte {
	var out []byte
	for name, m := range kb.Streams {
		out = append(out, byte(len(name)))
		out = append(out, name...)
		out = append(out, byte(len(m.Key)))
		out = append(out, m.Key...)
		out = append(out, byte(len(m.Nonce)))
		out = append(out, m.Nonce...)
	}
	return out
}

func unmarshalBundle(b []byte) (KeyBundle, error) {
	kb := KeyBundle{Streams: make(map[string]StreamMaterial)}
	for len(b) > 0 {
		read := func() ([]byte, error) {
			if len(b) < 1 {
				return nil, errors.New("attest: truncated bundle")
			}
			n := int(b[0])
			if len(b) < 1+n {
				return nil, errors.New("attest: truncated bundle field")
			}
			v := append([]byte(nil), b[1:1+n]...)
			b = b[1+n:]
			return v, nil
		}
		name, err := read()
		if err != nil {
			return KeyBundle{}, err
		}
		key, err := read()
		if err != nil {
			return KeyBundle{}, err
		}
		nonce, err := read()
		if err != nil {
			return KeyBundle{}, err
		}
		kb.Streams[string(name)] = StreamMaterial{Key: key, Nonce: nonce}
	}
	return kb, nil
}
