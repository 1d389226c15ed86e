package trace

import (
	"strings"
	"testing"

	"ccai/internal/pcie"
	"ccai/internal/secmem"
)

func TestRecorderCountsTraffic(t *testing.T) {
	r := NewRecorder()
	a := pcie.MakeID(0, 1, 0)
	b := pcie.MakeID(2, 0, 0)
	r.Tap(pcie.NewMemWrite(a, 0x1000, make([]byte, 100)))
	r.Tap(pcie.NewMemWrite(a, 0x1100, make([]byte, 50)))
	r.Tap(pcie.NewMemRead(b, 0x2000, 64, 0))
	if r.Packets() != 3 {
		t.Fatalf("packets = %d", r.Packets())
	}
	if r.PayloadBytes() != 150 {
		t.Fatalf("payload = %d", r.PayloadBytes())
	}
	sum := r.Summary("host")
	for _, want := range []string{"MWr", "MRd", "00:01.0", "02:00.0", "3 packets"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}

func TestRecorderRetainLimit(t *testing.T) {
	r := NewRecorder()
	r.Retain(2)
	for i := 0; i < 5; i++ {
		r.Tap(pcie.NewMemWrite(pcie.MakeID(0, 1, 0), 0x1000, []byte{byte(i)}))
	}
	if got := len(r.Retained()); got != 2 {
		t.Fatalf("retained = %d, want 2", got)
	}
	if r.Packets() != 5 {
		t.Fatal("stats must still cover all packets")
	}
}

func TestEntropyDistinguishesCiphertext(t *testing.T) {
	// Structured plaintext: low entropy.
	plain := NewRecorder()
	plain.Retain(100)
	text := []byte(strings.Repeat("model weights block AAAA ", 40))
	plain.Tap(pcie.NewMemWrite(pcie.MakeID(0, 1, 0), 0x1000, text))

	// Real AES-GCM ciphertext: near 8 bits/byte.
	cipher := NewRecorder()
	cipher.Retain(100)
	s, err := secmem.NewStream(secmem.FreshKey(), secmem.FreshNonce())
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := s.Seal(text, nil)
	if err != nil {
		t.Fatal(err)
	}
	cipher.Tap(pcie.NewMemWrite(pcie.MakeID(0, 1, 0), 0x1000, sealed.Ciphertext))

	pe, ce := payloadEntropy(plain.Retained()), payloadEntropy(cipher.Retained())
	if pe >= 6 {
		t.Fatalf("plaintext entropy %.2f too high", pe)
	}
	if ce < 7.0 {
		t.Fatalf("ciphertext entropy %.2f too low", ce)
	}
	if ce <= pe {
		t.Fatal("entropy probe cannot distinguish ciphertext from plaintext")
	}
}

func TestEntropyEmpty(t *testing.T) {
	r := NewRecorder()
	if payloadEntropy(r.Retained()) != 0 {
		t.Fatal("empty recorder has nonzero entropy")
	}
}

func TestRecorderDoesNotMutatePackets(t *testing.T) {
	r := NewRecorder()
	p := pcie.NewMemWrite(pcie.MakeID(0, 1, 0), 0x1000, []byte{9})
	if got := r.Tap(p); got != p {
		t.Fatal("recorder must pass packets through unchanged")
	}
}
