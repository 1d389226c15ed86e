package secmem

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func newPair(t *testing.T) (*Stream, *Stream) {
	t.Helper()
	key, nonce := FreshKey(), FreshNonce()
	a, err := NewStream(key, nonce)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStream(key, nonce)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func chunkset(n, size int) ([][]byte, [][]byte) {
	pts := make([][]byte, n)
	aads := make([][]byte, n)
	for i := range pts {
		pts[i] = bytes.Repeat([]byte{byte(i + 1)}, size)
		aads[i] = []byte(fmt.Sprintf("aad-%d", i))
	}
	return pts, aads
}

// sealAll seals a batch through SealBatchStream and keeps a copy of
// every chunk (the Ciphertext emit sees is only valid inside emit).
func sealAll(s *Stream, pts, aads [][]byte) ([]Sealed, error) {
	sealed := make([]Sealed, 0, len(pts))
	err := s.SealBatchStream(pts, aads, nil, func(_ int, c *Sealed) error {
		sealed = append(sealed, Sealed{Counter: c.Counter, Epoch: c.Epoch,
			Ciphertext: append([]byte(nil), c.Ciphertext...), Tag: c.Tag})
		return nil
	})
	return sealed, err
}

// cuts splits [0, n) into k contiguous ranges of near-equal length; some
// are empty when k > n.
func cuts(n, k int) [][2]int {
	r := make([][2]int, k)
	for i := range r {
		r[i] = [2]int{i * n / k, (i + 1) * n / k}
	}
	return r
}

// TestBatchRoundTrip seals seven chunks in sealN batches and opens them
// in openN (the subtest is named seal<sealN>_open<openN>; a batch may be
// empty). The plaintexts and the receive watermark must come out right
// however the stream is cut: the Adaptor seals a region as one batch
// and the SC opens it span by span.
func TestBatchRoundTrip(t *testing.T) {
	for _, sealN := range []int{1, 3, 8} {
		for _, openN := range []int{1, 4} {
			t.Run(fmt.Sprintf("seal%d_open%d", sealN, openN), func(t *testing.T) {
				tx, rx := newPair(t)
				pts, aads := chunkset(7, 64)
				var sealed []Sealed
				for _, r := range cuts(7, sealN) {
					part, err := sealAll(tx, pts[r[0]:r[1]], aads[r[0]:r[1]])
					if err != nil {
						t.Fatal(err)
					}
					sealed = append(sealed, part...)
				}
				out := make([]byte, 7*64)
				for _, r := range cuts(7, openN) {
					if err := rx.OpenBatchInto(out[r[0]*64:], sealed[r[0]:r[1]], aads[r[0]:r[1]], nil); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(out, bytes.Join(pts, nil)) {
					t.Fatal("batch corrupted")
				}
				// Watermark advanced: replaying the batch must fail.
				if err := rx.OpenBatchInto(out, sealed, aads, nil); !errors.Is(err, ErrReplay) {
					t.Fatalf("replayed batch: got %v, want ErrReplay", err)
				}
			})
		}
	}
}

// TestSealBatchExhaustionBoundary: a batch that would cross the 32-bit
// counter space fails with ErrIVExhausted and consumes nothing.
func TestSealBatchExhaustionBoundary(t *testing.T) {
	tx, _ := newPair(t)
	tx.ForceCounter(^uint32(0) - 2) // two counters remain usable
	pts, aads := chunkset(4, 16)
	if sealed, err := sealAll(tx, pts, aads); !errors.Is(err, ErrIVExhausted) || len(sealed) != 0 {
		t.Fatalf("got %v after %d chunks, want ErrIVExhausted before any", err, len(sealed))
	}
	if tx.SendCounter() != ^uint32(0)-2 {
		t.Fatal("failed batch moved the counter")
	}
	// A batch that exactly fits still works.
	small, smallAAD := chunkset(2, 16)
	if _, err := sealAll(tx, small, smallAAD); err != nil {
		t.Fatalf("fitting batch: %v", err)
	}
}

// TestOpenBatchTamperRejected: corrupting any chunk fails the batch
// and the watermark does not advance past the corrupted chunk, so the
// legitimate chunks before it are not replayable and the stream stays
// strictly ordered.
func TestOpenBatchTamperRejected(t *testing.T) {
	tx, rx := newPair(t)
	pts, aads := chunkset(4, 48)
	sealed, err := sealAll(tx, pts, aads)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 4*48)
	sealed[2].Ciphertext[0] ^= 0xff
	if err := rx.OpenBatchInto(out, sealed, aads, nil); !errors.Is(err, ErrAuth) {
		t.Fatalf("tampered batch: got %v, want ErrAuth", err)
	}
	// Chunks 0 and 1 authenticated: watermark sits at their boundary,
	// so re-presenting them is replay, but chunk 2 (fixed) onward can
	// still be delivered.
	sealed[2].Ciphertext[0] ^= 0xff
	if err := rx.OpenBatchInto(out, sealed, aads, nil); !errors.Is(err, ErrReplay) {
		t.Fatalf("re-presented prefix: got %v, want ErrReplay", err)
	}
	if err := rx.OpenBatchInto(out, sealed[2:], aads[2:], nil); err != nil {
		t.Fatalf("resumed delivery: %v", err)
	}
	if !bytes.Equal(out[48:2*48], pts[3]) {
		t.Fatal("resumed delivery corrupted")
	}
}

// TestBatchConcurrentWithSingleOps: batch and single-chunk seals from
// many goroutines share one stream under -race; every IV is unique.
func TestBatchConcurrentWithSingleOps(t *testing.T) {
	tx, _ := newPair(t)
	var mu sync.Mutex
	seen := map[uint64]bool{}
	reused := false
	tx.SetIVAudit(func(epoch, counter uint32) {
		mu.Lock()
		defer mu.Unlock()
		k := uint64(epoch)<<32 | uint64(counter)
		if seen[k] {
			reused = true
		}
		seen[k] = true
	})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pts, aads := chunkset(3, 24)
			for i := 0; i < 50; i++ {
				if w%2 == 0 {
					if err := tx.SealBatchStream(pts, aads, nil, func(int, *Sealed) error { return nil }); err != nil {
						t.Error(err)
						return
					}
				} else {
					if _, err := tx.Seal(pts[0], aads[0]); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if reused {
		t.Fatal("IV reused under concurrent batch+single sealing")
	}
	want := 3*50*3 + 3*50 // three batch workers ×50×3 chunks + three single workers ×50
	if got := int(tx.SendCounter()); got != want {
		t.Fatalf("send counter = %d, want %d", got, want)
	}
}
