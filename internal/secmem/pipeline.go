package secmem

import (
	"crypto/cipher"
	"encoding/binary"
	"fmt"

	"ccai/internal/arena"
	"ccai/internal/obsv"
)

// Pool is a vestige: SealBatchStream and OpenBatchInto seal and open
// every chunk on their caller and ignore it (pass nil). It survives only
// because the benchmark of record (benchmark/, a module of its own)
// still builds one with NewPool and passes it to both; the next change
// there removes the type and the parameter together. The paper's §5
// "allocate additional CPU threads for the Adaptor" lives in the cost
// model (AdaptorCryptoBps), where the figures come from.
type Pool struct{}

// NewPool returns a Pool. The argument is ignored.
func NewPool(int) *Pool { return new(Pool) }

// SealBatchStream encrypts len(pts) chunks and delivers them to emit
// strictly in submission order: each chunk is sealed, then emitted, in
// turn on the caller. This is the streaming pipeline of DESIGN.md §10.
// aads[i] is bound into chunk i's tag; aads may be nil (no AAD for any
// chunk).
//
// A contiguous counter range is reserved under the stream lock, and the
// fault hook is consulted once per chunk before any counter is
// reserved, so an ErrTransient return consumes no stream state and the
// whole batch may be retried with the same IVs; a batch that would
// cross the 32-bit counter boundary fails with ErrIVExhausted and
// again consumes nothing. Once emit has run for
// any chunk the batch is no longer retryable — an emit error stops the
// batch (emit is not called again) and is returned as-is, with the
// consumed counters abandoned (the recovery ladder's repost/teardown
// logic owns that case).
//
// The Sealed passed to emit has its Ciphertext backed by pooled arena
// memory that is reused the moment emit returns: emit must copy any
// bytes it keeps and must not retain the slice or the *Sealed.
func (s *Stream) SealBatchStream(pts, aads [][]byte, _ *Pool, emit func(i int, chunk *Sealed) error) error {
	return s.SealBatchInto(nil, pts, aads, emit)
}

// SealBatchInto is SealBatchStream sealing straight into dst: chunk i's
// ciphertext lands at the prefix-sum offset of the preceding plaintext
// lengths — the layout OpenBatchInto reads — and the Sealed handed to
// emit has its Ciphertext aliasing that slot of dst (capacity clipped to
// it), so emit may keep the slice without copying; the *Sealed itself is
// still reused. GCM writes ciphertext and tag contiguously: a chunk
// whose tag still fits inside dst is sealed in place, the tag landing in
// the slot after it before that slot's own seal overwrites it, and a
// chunk whose tag would run past dst is sealed in scratch and copied.
// So a dst TagSize bytes longer than the batch is sealed wholly in
// place, one exactly as long copies only its last chunk, and nothing
// past len(dst) is ever written. dst must not overlap any plaintext.
// Counters, the fault hook and the emit contract are SealBatchStream's:
// a batch refused before its first seal leaves dst untouched. A nil dst
// seals every chunk in scratch, which is SealBatchStream.
func (s *Stream) SealBatchInto(dst []byte, pts, aads [][]byte, emit func(i int, chunk *Sealed) error) error {
	n := len(pts)
	if n == 0 {
		return nil
	}
	if aads != nil && len(aads) != n {
		return fmt.Errorf("secmem: %d plaintexts but %d aads", n, len(aads))
	}
	total, maxLen := 0, 0
	for _, pt := range pts {
		total += len(pt)
		maxLen = max(maxLen, len(pt))
	}
	if dst != nil && total > len(dst) {
		return fmt.Errorf("secmem: dst holds %d bytes, batch needs %d", len(dst), total)
	}

	s.mu.Lock()
	if s.fault != nil {
		for range pts {
			if err := s.fault("seal"); err != nil {
				s.mu.Unlock()
				return err
			}
		}
	}
	st := s.ctr.Load()
	epoch, base := splitCtr(st)
	if uint64(base)+uint64(n) > uint64(^uint32(0)) {
		s.mu.Unlock()
		return ErrIVExhausted
	}
	s.ctr.Store(st + uint64(n))
	aead, nb := s.aead, s.nonceBase
	if s.ivAudit != nil {
		for i := 0; i < n; i++ {
			s.ivAudit(epoch, base+1+uint32(i))
		}
	}
	o := s.obs
	s.mu.Unlock()

	var sp obsv.ActiveSpan
	if o != nil {
		sp = o.tracer.Start(o.sealStream, keyStream.Str(o.name), keyBytes.I64(int64(total)), keyChunks.I64(int64(n)))
	}

	// A chunk not sealed in place goes through one arena buffer sized
	// for the largest chunk, taken the first time one needs it; without
	// dst, emit must copy anything it keeps, so the buffer is free for
	// reuse the moment emit returns. The IV and the Sealed handed to
	// emit both escape (an interface call, a func value), so they live
	// in the stream's seal scratch; a batch that finds it taken — a
	// concurrent or nested batch — gets one of its own.
	scr := &s.sealScr
	owned := s.sealBusy.CompareAndSwap(false, true)
	if !owned {
		scr = new(sealScratch)
	}
	var buf []byte
	var err error
	for i, off := 0, 0; i < n && err == nil; i++ {
		c := base + 1 + uint32(i)
		putNonce(&scr.iv, nb, c)
		k := len(pts[i])
		inPlace := off+k+TagSize <= len(dst)
		var out []byte
		if inPlace {
			out = dst[off : off : off+k+TagSize]
		} else {
			if buf == nil {
				buf = arena.Get(maxLen + TagSize)
			}
			out = buf[:0]
		}
		ct := aead.Seal(out, scr.iv[:], pts[i], aadAt(aads, i))
		scr.chunk = Sealed{Counter: c, Epoch: epoch, Ciphertext: ct[:k:k]}
		copy(scr.chunk.Tag[:], ct[k:])
		if dst != nil && !inPlace {
			scr.chunk.Ciphertext = dst[off : off+k : off+k]
			copy(scr.chunk.Ciphertext, ct[:k])
		}
		off += k
		err = emit(i, &scr.chunk)
	}
	if buf != nil {
		arena.Put(buf) // ciphertext only: public bytes
	}
	if owned {
		scr.chunk.Ciphertext = nil
		s.sealBusy.Store(false)
	}

	if o != nil {
		sp.Set(keyCtrFirst.U64(uint64(base+1)), keyEpoch.U64(uint64(epoch)))
		sp.End()
		if err == nil {
			o.sealOps.Add(uint64(n))
			o.sealBytes.Add(uint64(total))
		}
	}
	return err
}

// putNonce assembles the 12-byte GCM IV for counter c against a
// captured nonce base into the batch's scratch.
func putNonce(iv *[NonceSize]byte, base [nonceBase]byte, c uint32) {
	copy(iv[:], base[:])
	binary.BigEndian.PutUint32(iv[nonceBase:], c)
}

// OpenBatchInto authenticates and decrypts a batch of chunks directly
// into dst, which must hold at least the sum of the ciphertext
// lengths. Chunk i's plaintext lands at the prefix-sum offset of the
// preceding ciphertext lengths, so a region reassembles contiguously
// with zero copies. The counters must be strictly increasing and all
// above the receive watermark (the batch is new, in-order traffic).
// Chunks open in order and the batch stops at the first one that fails
// authentication; the watermark advances through the authenticated
// prefix. The whole batch — validate, decrypt, advance — is one
// critical section, so no other open or rekey can come between its
// check and its advance.
// The fault hook fires for every chunk before any state changes, so a
// transient fault leaves the stream untouched and the batch is
// retryable. The sealed records are taken by value so the caller can
// reuse a scratch slice.
//
// On any authentication failure the batch's whole span of dst is
// zeroed before returning ErrAuth — partial plaintext, including chunks
// that verified before the failing one, never survives in
// caller-visible memory (fail-closed discipline, DESIGN.md §10).
func (s *Stream) OpenBatchInto(dst []byte, sealed []Sealed, aads [][]byte, _ *Pool) error {
	n := len(sealed)
	if n == 0 {
		return nil
	}
	if aads != nil && len(aads) != n {
		return fmt.Errorf("secmem: %d chunks but %d aads", n, len(aads))
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	if len(s.batchOffs) < n+1 {
		s.batchOffs = make([]int, n+1)
	}
	offs := s.batchOffs[:n+1]
	offs[0] = 0
	maxCt := 0
	for i := range sealed {
		offs[i+1] = offs[i] + len(sealed[i].Ciphertext)
		maxCt = max(maxCt, len(sealed[i].Ciphertext))
	}
	if offs[n] > len(dst) {
		return fmt.Errorf("secmem: dst holds %d bytes, batch needs %d", len(dst), offs[n])
	}

	if s.fault != nil {
		for range sealed {
			if err := s.fault("open"); err != nil {
				return err
			}
		}
	}
	epoch, prev := s.Epoch(), s.recvCtr
	for i := range sealed {
		c := &sealed[i]
		if c.Epoch != epoch {
			s.obsReplay()
			return fmt.Errorf("%w: epoch %d vs %d", ErrReplay, c.Epoch, epoch)
		}
		if c.Counter <= prev {
			s.obsReplay()
			return fmt.Errorf("%w: chunk %d counter %d after %d", ErrReplay, i, c.Counter, prev)
		}
		prev = c.Counter
	}

	// One scratch carries ciphertext||tag plus the IV at its tail for
	// every chunk — Open only reads from it while writing into dst, so
	// reuse across chunks is safe.
	buf := arena.Get(maxCt + TagSize + NonceSize)
	good := 0
	for ; good < n; good++ {
		out := dst[offs[good]:offs[good]:offs[good+1]]
		if openInto(s.aead, &s.nonceBase, buf, &sealed[good], aadAt(aads, good), out) != nil {
			break
		}
	}
	arena.Put(buf) // scratch held ciphertext||tag||iv: public bytes
	if good > 0 {
		s.recvCtr = sealed[good-1].Counter
	}

	o := s.obs
	if good < n {
		clear(dst[:offs[n]])
		if o != nil {
			o.authFail.Inc()
		}
		return ErrAuth
	}
	if o != nil {
		o.openOps.Add(uint64(n))
		o.openBytes.Add(uint64(offs[n]))
	}
	return nil
}

// openInto authenticates and decrypts one chunk into out (length 0,
// capacity the plaintext's), staging ciphertext||tag and the IV in buf.
func openInto(aead cipher.AEAD, nb *[nonceBase]byte, buf []byte, c *Sealed, aad, out []byte) error {
	ctLen := len(c.Ciphertext)
	copy(buf, c.Ciphertext)
	copy(buf[ctLen:], c.Tag[:])
	iv := buf[ctLen+TagSize : ctLen+TagSize+NonceSize]
	copy(iv, nb[:])
	binary.BigEndian.PutUint32(iv[nonceBase:], c.Counter)
	_, err := aead.Open(out, iv, buf[:ctLen+TagSize], aad)
	return err
}

// aadAt is aads[i], nil when the batch carries no AADs.
func aadAt(aads [][]byte, i int) []byte {
	if aads == nil {
		return nil
	}
	return aads[i]
}
