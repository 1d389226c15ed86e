package secmem

import (
	"errors"
	"math"
	"testing"
)

// TestLastSealableCounter pins the exhaustion boundary exactly: the
// final IV a stream may ever consume carries counter 2^32−1, and the
// seal after it fails with ErrIVExhausted without consuming state. The
// off-by-one audit: Seal rejects when
// sendCtr already equals MaxUint32 (pre-increment check), so MaxUint32
// itself is sealable and the counter never wraps back into used IV
// space.
func TestLastSealableCounter(t *testing.T) {
	tx, rx := testStreamPair(t)
	tx.ForceCounter(math.MaxUint32 - 1)

	if got := tx.Remaining(); got != 1 {
		t.Fatalf("Remaining() at max-1 = %d, want exactly 1 seal left", got)
	}
	sealed, err := tx.Seal([]byte("final chunk"), nil)
	if err != nil {
		t.Fatalf("seal of the last counter value failed: %v", err)
	}
	if sealed.Counter != math.MaxUint32 {
		t.Fatalf("last sealable counter = %d, want %d", sealed.Counter, uint32(math.MaxUint32))
	}
	if got := tx.Remaining(); got != 0 {
		t.Fatalf("Remaining() after the last seal = %d, want 0", got)
	}

	// The stream is now exhausted: no further counter may be issued.
	if _, err := tx.Seal([]byte("one too many"), nil); !errors.Is(err, ErrIVExhausted) {
		t.Fatalf("seal past exhaustion: err = %v, want ErrIVExhausted", err)
	}
	if c := tx.SendCounter(); c != math.MaxUint32 {
		t.Fatalf("counter moved to %d on a refused seal", c)
	}

	// The boundary chunk itself is genuine traffic, not a casualty: a
	// receiver at the matching watermark accepts it.
	rx.recvCtr = math.MaxUint32 - 1
	pt, err := rx.Open(sealed, nil)
	if err != nil {
		t.Fatalf("open of the boundary chunk failed: %v", err)
	}
	if string(pt) != "final chunk" {
		t.Fatalf("boundary plaintext = %q", pt)
	}
}

// TestRemainingMatchesSealBudget walks Remaining() against actual seal
// outcomes near the edge: for every claimed remaining value r, exactly
// r seals succeed and the r+1st fails.
func TestRemainingMatchesSealBudget(t *testing.T) {
	for _, headroom := range []uint32{0, 1, 2, 5} {
		tx, _ := testStreamPair(t)
		tx.ForceCounter(math.MaxUint32 - headroom)
		if got := tx.Remaining(); got != headroom {
			t.Fatalf("Remaining() = %d at forced headroom %d", got, headroom)
		}
		var ok uint32
		for i := uint32(0); i < headroom+1; i++ {
			if _, err := tx.Seal([]byte{byte(i)}, nil); err == nil {
				ok++
			} else if !errors.Is(err, ErrIVExhausted) {
				t.Fatalf("unexpected seal error at headroom %d: %v", headroom, err)
			}
		}
		if ok != headroom {
			t.Fatalf("headroom %d: %d seals succeeded, want exactly %d", headroom, ok, headroom)
		}
	}
}
