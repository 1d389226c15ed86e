package secmem

// Tests for the streaming seal pipeline and the batch-open-into path —
// the DESIGN.md §10 datapath. The properties pinned here are the ones
// the pipeline must not trade away for speed: in-order emit, IV safety
// across transient retries, and fail-closed zeroing of partially
// decrypted output.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// TestSealBatchStreamInOrder asserts emit sees chunks strictly in
// submission order with contiguous counters, and that the bytes
// delivered are exactly what a Seal sequence would produce. Each
// subtest passes a pool of that width, as a caller may still do (the
// benchmark passes NewPool(GOMAXPROCS)): the pool must change nothing.
func TestSealBatchStreamInOrder(t *testing.T) {
	for _, w := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			serial, _ := newPair(t)
			stream, _ := newPair(t)
			key, nonce := FreshKey(), FreshNonce()
			for _, s := range []*Stream{serial, stream} {
				if err := s.Rekey(key, nonce); err != nil {
					t.Fatal(err)
				}
			}
			pts, aads := chunkset(33, 96)

			var want []*Sealed
			for i := range pts {
				s, err := serial.Seal(pts[i], aads[i])
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, s)
			}

			next := 0
			err := stream.SealBatchStream(pts, aads, NewPool(w), func(i int, chunk *Sealed) error {
				if i != next {
					t.Fatalf("emit order broken: got chunk %d, want %d", i, next)
				}
				next++
				if chunk.Counter != want[i].Counter || chunk.Epoch != want[i].Epoch {
					t.Fatalf("chunk %d: counter/epoch diverge from serial seal", i)
				}
				if !bytes.Equal(chunk.Ciphertext, want[i].Ciphertext) || chunk.Tag != want[i].Tag {
					t.Fatalf("chunk %d: bytes diverge from serial seal", i)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if next != len(pts) {
				t.Fatalf("emit ran %d times, want %d", next, len(pts))
			}
			if stream.SendCounter() != serial.SendCounter() {
				t.Fatalf("counters diverge: %d vs %d", stream.SendCounter(), serial.SendCounter())
			}
		})
	}
}

// TestSealBatchStreamEmitCopiesSurvive verifies the documented arena
// contract: the Ciphertext handed to emit is only valid inside emit,
// so a consumer that copies (like the Adaptor's bounce-buffer write)
// must end up with chunks that all still authenticate after the
// batch — the seal buffer's reuse from chunk to chunk must never
// corrupt an earlier chunk's copy.
func TestSealBatchStreamEmitCopiesSurvive(t *testing.T) {
	tx, rx := newPair(t)
	pts, aads := chunkset(25, 256)

	sealed := make([]Sealed, 0, len(pts))
	err := tx.SealBatchStream(pts, aads, nil, func(i int, chunk *Sealed) error {
		c := *chunk
		c.Ciphertext = append([]byte(nil), chunk.Ciphertext...)
		sealed = append(sealed, c)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 25*256)
	if err := rx.OpenBatchInto(dst, sealed, aads, nil); err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if !bytes.Equal(dst[i*256:(i+1)*256], pts[i]) {
			t.Fatalf("chunk %d corrupted by in-flight buffer reuse", i)
		}
	}
}

// TestSealBatchStreamTransientConsumesNoCounters: the fault hook fires
// before any counter is reserved, so a transient abort leaves the
// stream exactly where it was and the retry reuses the identical IV
// range — the invariant that makes mid-pipeline retry safe.
func TestSealBatchStreamTransientConsumesNoCounters(t *testing.T) {
	tx, rx := newPair(t)
	fail := true
	tx.SetFaultHook(func(op string) error {
		if op == "seal" && fail {
			fail = false
			return ErrTransient
		}
		return nil
	})
	ivs := map[uint64]bool{}
	tx.SetIVAudit(func(epoch, counter uint32) {
		iv := uint64(epoch)<<32 | uint64(counter)
		if ivs[iv] {
			t.Errorf("IV reused: %#x", iv)
		}
		ivs[iv] = true
	})
	pts, aads := chunkset(6, 64)

	before := tx.SendCounter()
	emits := 0
	err := tx.SealBatchStream(pts, aads, nil, func(i int, chunk *Sealed) error {
		emits++
		return nil
	})
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("got %v, want ErrTransient", err)
	}
	if emits != 0 {
		t.Fatalf("aborted pipeline still emitted %d chunks", emits)
	}
	if tx.SendCounter() != before {
		t.Fatalf("transient abort consumed counters: %d -> %d", before, tx.SendCounter())
	}

	sealed := make([]Sealed, 0, len(pts))
	err = tx.SealBatchStream(pts, aads, nil, func(i int, chunk *Sealed) error {
		c := *chunk
		c.Ciphertext = append([]byte(nil), chunk.Ciphertext...)
		sealed = append(sealed, c)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sealed[0].Counter != before+1 {
		t.Fatalf("retry started at counter %d, want %d", sealed[0].Counter, before+1)
	}
	dst := make([]byte, 6*64)
	if err := rx.OpenBatchInto(dst, sealed, aads, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSealBatchStreamEmitErrorAborts: once emit has run, the batch is
// not retryable; an emit error must surface as-is and stop the batch:
// emit is never called again after it returns an error.
func TestSealBatchStreamEmitErrorAborts(t *testing.T) {
	tx, _ := newPair(t)
	pts, aads := chunkset(16, 64)
	boom := errors.New("bounce buffer revoked")
	last, calls := -1, 0
	err := tx.SealBatchStream(pts, aads, nil, func(i int, chunk *Sealed) error {
		last, calls = i, calls+1
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the emit error", err)
	}
	if last != 3 || calls != 4 {
		t.Fatalf("emit ran %d times, last for chunk %d; want 4, ending at the failing chunk 3", calls, last)
	}
}

// TestOpenBatchIntoZeroesOnAuthFailure: when any chunk fails
// authentication — the first, one in the middle or the last — every
// plaintext byte the batch already produced, including chunks that
// verified fine, must be zeroed before the error returns, and the
// receive watermark must stand at the end of the authenticated prefix.
// Partial plaintext never survives in caller-visible memory.
func TestOpenBatchIntoZeroesOnAuthFailure(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  int
	}{{"first", 0}, {"middle", 4}, {"last", 8}} {
		t.Run(tc.name, func(t *testing.T) {
			tx, rx := newPair(t)
			pts, aads := chunkset(9, 128)
			sealed, err := sealAll(tx, pts, aads)
			if err != nil {
				t.Fatal(err)
			}
			sealed[tc.bad].Ciphertext[0] ^= 1

			dst := make([]byte, 9*128)
			for i := range dst {
				dst[i] = 0xEE // sentinel: must not survive as plaintext
			}
			if err := rx.OpenBatchInto(dst, sealed, aads, nil); !errors.Is(err, ErrAuth) {
				t.Fatalf("got %v, want ErrAuth", err)
			}
			for i, v := range dst {
				if v != 0 {
					t.Fatalf("byte %d = %#x after auth failure; span not zeroed", i, v)
				}
			}
			var want uint32 // the watermark of a fresh stream
			if tc.bad > 0 {
				want = sealed[tc.bad-1].Counter
			}
			rx.mu.Lock()
			got := rx.recvCtr
			rx.mu.Unlock()
			if got != want {
				t.Fatalf("watermark at %d after chunk %d failed, want %d", got, tc.bad, want)
			}
			// The rest of the stream, repaired, still delivers.
			sealed[tc.bad].Ciphertext[0] ^= 1
			if err := rx.OpenBatchInto(dst, sealed[tc.bad:], aads[tc.bad:], nil); err != nil {
				t.Fatalf("resumed delivery from chunk %d: %v", tc.bad, err)
			}
			if !bytes.Equal(dst[:128], pts[tc.bad]) {
				t.Fatalf("resumed delivery from chunk %d corrupted", tc.bad)
			}
		})
	}
}

// TestSerialBatchCryptoAllocatesNothing pins the batch paths at zero
// heap objects per 64 KiB batch of 256 chunks: the IV and the Sealed
// handed to emit live in the stream's seal scratch, and the open stages
// every chunk in one arena buffer. A batch that finds the seal scratch
// taken — here, one started from inside emit — pays for its own and
// must still seal correctly.
func TestSerialBatchCryptoAllocatesNothing(t *testing.T) {
	tx, rx := newPair(t)
	pts, aads := chunkset(256, 256)
	ct := make([]byte, 256*256)
	sealed := make([]Sealed, len(pts))
	dst := make([]byte, len(ct))
	emit := func(i int, c *Sealed) error {
		copy(ct[i*256:], c.Ciphertext)
		sealed[i] = Sealed{Counter: c.Counter, Epoch: c.Epoch, Ciphertext: ct[i*256 : i*256+len(c.Ciphertext)], Tag: c.Tag}
		return nil
	}
	round := func() {
		if err := tx.SealBatchStream(pts, aads, nil, emit); err != nil {
			t.Fatal(err)
		}
		if err := rx.OpenBatchInto(dst, sealed, aads, nil); err != nil {
			t.Fatal(err)
		}
	}
	round() // sizes the per-stream scratch, primes the buffer pool
	if got := testing.AllocsPerRun(20, round); got != 0 && !raceDetector {
		t.Fatalf("a serial 64 KiB seal + open batch allocates %v objects, want 0", got)
	}
	for i := range pts {
		if !bytes.Equal(dst[i*256:(i+1)*256], pts[i]) {
			t.Fatalf("chunk %d did not round-trip", i)
		}
	}

	// Nested batch on the same stream: the inner one cannot have the
	// scratch the outer one holds. The outer batch reserved its two
	// counters first, so rx sees outer 0, outer 1, then the inner three.
	inner, innerAAD := chunkset(3, 64)
	keep := func(c *Sealed) Sealed {
		return Sealed{Counter: c.Counter, Epoch: c.Epoch, Ciphertext: append([]byte(nil), c.Ciphertext...), Tag: c.Tag}
	}
	var outerSealed, innerSealed []Sealed
	err := tx.SealBatchStream(pts[:2], aads[:2], nil, func(i int, c *Sealed) error {
		outerSealed = append(outerSealed, keep(c))
		if i != 0 {
			return nil
		}
		err := tx.SealBatchStream(inner, innerAAD, nil, func(_ int, ic *Sealed) error {
			innerSealed = append(innerSealed, keep(ic))
			return nil
		})
		if c.Counter != outerSealed[0].Counter || c.Tag != outerSealed[0].Tag {
			t.Fatal("a nested batch overwrote the outer batch's Sealed")
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	wantPts := append(append([][]byte(nil), pts[:2]...), inner...)
	wantAADs := append(append([][]byte(nil), aads[:2]...), innerAAD...)
	for i, c := range append(outerSealed, innerSealed...) {
		pt, err := rx.Open(&c, wantAADs[i])
		if err != nil || !bytes.Equal(pt, wantPts[i]) {
			t.Fatalf("nested batches: chunk %d (counter %d) did not round-trip: %v", i, c.Counter, err)
		}
	}
}
