package attest

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"errors"
	"testing"

	"ccai/internal/hrot"
)

func testBlade(t *testing.T) (*hrot.Blade, *ecdsa.PrivateKey) {
	t.Helper()
	ca, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hrot.NewBlade(ca)
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("bitstream v1")
	sig, err := hrot.SignImage(ca, content)
	if err != nil {
		t.Fatal(err)
	}
	chain := []hrot.BootImage{{Name: "bitstream", PCR: hrot.PCRBitstream, Content: content, Signature: sig}}
	if err := b.SecureBoot(&ca.PublicKey, chain); err != nil {
		t.Fatal(err)
	}
	return b, ca
}

func handshake(t *testing.T) (*Platform, *Verifier) {
	t.Helper()
	blade, ca := testBlade(t)
	p, err := NewPlatform(blade)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewVerifier(&ca.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Establish(v.Hello()); err != nil {
		t.Fatal(err)
	}
	if err := v.Establish(p.Hello()); err != nil {
		t.Fatal(err)
	}
	return p, v
}

// TestDHKEAgreement: both ends derive one session key, so a bundle the
// verifier seals under its key opens on the platform under its own.
func TestDHKEAgreement(t *testing.T) {
	p, v := handshake(t)
	kb := NewKeyBundle([]string{"h2d"})
	sealed, err := v.Seal(kb)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.OpenBundle(sealed)
	if err != nil {
		t.Fatalf("session keys diverge: %v", err)
	}
	if !bytes.Equal(got.Streams["h2d"].Key, kb.Streams["h2d"].Key) {
		t.Fatal("bundle opened to other key material")
	}
}

func TestDHKERejectsGarbageShare(t *testing.T) {
	p, _ := handshake(t)
	if err := p.Establish(Hello{Pub: []byte("not a point")}); err == nil {
		t.Fatal("garbage key share accepted")
	}
}

func TestFullProtocolHappyPath(t *testing.T) {
	p, v := handshake(t)
	if err := v.ValidateCertificates(p.Certificates()); err != nil {
		t.Fatal(err)
	}
	sel := []int{hrot.PCRBitstream}
	v.Expected = [][]byte{p.Blade.PCRs().Snapshot(sel)}
	ch, err := v.NewChallenge(1, sel)
	if err != nil {
		t.Fatal(err)
	}
	q, err := p.Respond(ch)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Verify(ch, q); err != nil {
		t.Fatal(err)
	}
}

func TestProtocolRejectsForeignCA(t *testing.T) {
	p, _ := handshake(t)
	malloryCA, _ := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	v2, _ := NewVerifier(&malloryCA.PublicKey)
	if err := v2.ValidateCertificates(p.Certificates()); !errors.Is(err, ErrCertChain) {
		t.Fatalf("foreign CA chain accepted: %v", err)
	}
}

func TestProtocolRejectsSwappedAK(t *testing.T) {
	p, v := handshake(t)
	other, _ := testBlade(t)
	certs := p.Certificates()
	certs.AKPub = other.AKPub() // substitution attack
	if err := v.ValidateCertificates(certs); !errors.Is(err, ErrCertChain) {
		t.Fatalf("swapped AK accepted: %v", err)
	}
}

func TestProtocolRejectsUnexpectedPCRs(t *testing.T) {
	p, v := handshake(t)
	if err := v.ValidateCertificates(p.Certificates()); err != nil {
		t.Fatal(err)
	}
	sel := []int{hrot.PCRBitstream}
	v.Expected = [][]byte{bytes.Repeat([]byte{0xaa}, 36)} // not the real platform
	ch, _ := v.NewChallenge(1, sel)
	q, _ := p.Respond(ch)
	if err := v.Verify(ch, q); !errors.Is(err, ErrReport) {
		t.Fatalf("wrong platform state accepted: %v", err)
	}
}

func TestProtocolRejectsReplayedReport(t *testing.T) {
	p, v := handshake(t)
	if err := v.ValidateCertificates(p.Certificates()); err != nil {
		t.Fatal(err)
	}
	sel := []int{hrot.PCRBitstream}
	v.Expected = [][]byte{p.Blade.PCRs().Snapshot(sel)}
	ch1, _ := v.NewChallenge(1, sel)
	q1, _ := p.Respond(ch1)
	if err := v.Verify(ch1, q1); err != nil {
		t.Fatal(err)
	}
	// New challenge, old report.
	ch2, _ := v.NewChallenge(1, sel)
	if err := v.Verify(ch2, q1); !errors.Is(err, ErrReport) {
		t.Fatalf("replayed report accepted: %v", err)
	}
}

func TestProtocolRequiresCertValidationFirst(t *testing.T) {
	p, v := handshake(t)
	ch, _ := v.NewChallenge(1, []int{0})
	q, _ := p.Respond(ch)
	if err := v.Verify(ch, q); !errors.Is(err, ErrReport) {
		t.Fatalf("verification without certificates: %v", err)
	}
}

func TestKeyBundleDelivery(t *testing.T) {
	p, v := handshake(t)
	kb := NewKeyBundle([]string{"h2d", "d2h", "config", "mmio"})
	sealed, err := v.Seal(kb)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.OpenBundle(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Streams) != 4 {
		t.Fatalf("delivered %d streams", len(got.Streams))
	}
	for name, m := range kb.Streams {
		g, ok := got.Streams[name]
		if !ok || !bytes.Equal(g.Key, m.Key) || !bytes.Equal(g.Nonce, m.Nonce) {
			t.Fatalf("stream %q material corrupted", name)
		}
	}
}

func TestKeyBundleRejectsEavesdropperTamper(t *testing.T) {
	p, v := handshake(t)
	kb := NewKeyBundle([]string{"h2d"})
	sealed, _ := v.Seal(kb)
	sealed.Ciphertext[0] ^= 1
	if _, err := p.OpenBundle(sealed); err == nil {
		t.Fatal("tampered key bundle accepted")
	}
}

func TestKeyBundleUnreadableWithoutSession(t *testing.T) {
	_, v := handshake(t)
	blade2, _ := testBlade(t)
	stranger, _ := NewPlatform(blade2) // never completed the handshake
	kb := NewKeyBundle([]string{"h2d"})
	sealed, _ := v.Seal(kb)
	if _, err := stranger.OpenBundle(sealed); err == nil {
		t.Fatal("bundle opened without the session key")
	}
}

func TestBundleMarshalRejectsTruncation(t *testing.T) {
	if _, err := unmarshalBundle([]byte{5, 'a'}); err == nil {
		t.Fatal("truncated bundle parsed")
	}
}
