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
// so a consumer that keeps chunks copies them (or seals with
// SealBatchInto) and must end up with chunks that all still
// authenticate after the batch — the seal buffer's reuse from chunk to
// chunk must never corrupt an earlier chunk's copy.
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

// TestSealBatchIntoSealsInPlace: a batch sealed into dst — chunks of
// 256, 100 and 7 bytes, the last shorter than a tag — carries the
// counters, ciphertext and tags SealBatchStream gives the same batch
// under the same key, each chunk's Ciphertext is its prefix-sum slot of
// dst (capacity clipped to it), and nothing past len(dst) is written:
// whether dst is exactly the batch's length (the tail is sealed in
// scratch), TagSize over (every chunk in place), or longer still.
func TestSealBatchIntoSealsInPlace(t *testing.T) {
	key, nonce := FreshKey(), FreshNonce()
	var pts, aads [][]byte
	for i, n := range []int{256, 256, 100, 256, 7} {
		pts = append(pts, bytes.Repeat([]byte{byte(0x40 + i)}, n))
		aads = append(aads, []byte(fmt.Sprintf("aad-%d", i)))
	}
	const total = 256 + 256 + 100 + 256 + 7
	ref, err := NewStream(key, nonce)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sealAll(ref, pts, aads)
	if err != nil {
		t.Fatal(err)
	}
	for _, extra := range []int{0, TagSize, TagSize + 40} {
		t.Run(fmt.Sprintf("dst+%d", extra), func(t *testing.T) {
			tx, err := NewStream(key, nonce)
			if err != nil {
				t.Fatal(err)
			}
			const guard = 32
			mem := bytes.Repeat([]byte{0xEE}, total+extra+guard)
			dst := mem[:total+extra]
			off := 0
			err = tx.SealBatchInto(dst, pts, aads, func(i int, c *Sealed) error {
				k := len(pts[i])
				if len(c.Ciphertext) != k || cap(c.Ciphertext) != k || &c.Ciphertext[0] != &dst[off] {
					t.Fatalf("chunk %d: ciphertext is not its %d-byte slot at offset %d of dst", i, k, off)
				}
				if c.Counter != want[i].Counter || c.Tag != want[i].Tag || !bytes.Equal(c.Ciphertext, want[i].Ciphertext) {
					t.Fatalf("chunk %d: sealed differently from SealBatchStream", i)
				}
				off += k
				return nil
			})
			if err != nil || off != total {
				t.Fatalf("batch sealed %d of %d bytes: %v", off, total, err)
			}
			if !bytes.Equal(mem[total+extra:], bytes.Repeat([]byte{0xEE}, guard)) {
				t.Fatal("the seal wrote past len(dst)")
			}
			for i, off := 0, 0; i < len(pts); off, i = off+len(pts[i]), i+1 {
				if !bytes.Equal(dst[off:off+len(pts[i])], want[i].Ciphertext) {
					t.Fatalf("chunk %d's slot was overwritten after its seal", i)
				}
			}
		})
	}
}

// TestSealBatchIntoRefusesBeforeSealing: a dst shorter than the batch,
// or a transient engine fault, refuses the batch before its first seal —
// no counter consumed, no emit, not a byte of dst written — and the
// retry seals from the same counter.
func TestSealBatchIntoRefusesBeforeSealing(t *testing.T) {
	tx, rx := newPair(t)
	pts, aads := chunkset(6, 64)
	dst := bytes.Repeat([]byte{0xEE}, 6*64)
	fail := true
	tx.SetFaultHook(func(string) error {
		if fail {
			fail = false
			return ErrTransient
		}
		return nil
	})
	emit := func(int, *Sealed) error { t.Fatal("a refused batch emitted"); return nil }
	if err := tx.SealBatchInto(dst[:6*64-1], pts, aads, emit); err == nil {
		t.Fatal("a dst one byte short was accepted")
	}
	if err := tx.SealBatchInto(dst, pts, aads, emit); !errors.Is(err, ErrTransient) {
		t.Fatalf("got %v, want ErrTransient", err)
	}
	if tx.SendCounter() != 0 || !bytes.Equal(dst, bytes.Repeat([]byte{0xEE}, len(dst))) {
		t.Fatalf("refused batches left counter %d and touched dst", tx.SendCounter())
	}
	sealed := make([]Sealed, 0, len(pts))
	err := tx.SealBatchInto(dst, pts, aads, func(_ int, c *Sealed) error {
		sealed = append(sealed, *c)
		return nil
	})
	if err != nil || sealed[0].Counter != 1 {
		t.Fatalf("retry: %v, first counter %d; want nil, 1", err, sealed[0].Counter)
	}
	out := make([]byte, len(dst))
	if err := rx.OpenBatchInto(out, sealed, aads, nil); err != nil || !bytes.Equal(out, bytes.Join(pts, nil)) {
		t.Fatalf("chunks kept as dst slots did not round-trip: %v", err)
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
// heap objects per 64 KiB batch of 256 chunks, sealed through emit or
// straight into a buffer: the IV and the Sealed handed to emit live in
// the stream's seal scratch, and the open stages every chunk in one
// arena buffer. A batch that finds the seal scratch taken — here, one
// started from inside emit — pays for its own and must still seal
// correctly.
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
	inPlace := func(i int, c *Sealed) error {
		sealed[i] = *c
		return nil
	}
	round := func() {
		if err := tx.SealBatchStream(pts, aads, nil, emit); err != nil {
			t.Fatal(err)
		}
		if err := rx.OpenBatchInto(dst, sealed, aads, nil); err != nil {
			t.Fatal(err)
		}
		if err := tx.SealBatchInto(ct, pts, aads, inPlace); err != nil {
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
