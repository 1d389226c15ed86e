package secmem

import (
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"ccai/internal/arena"
	"ccai/internal/obsv"
)

// SealBatchStream encrypts len(pts) chunks and delivers them to emit
// strictly in submission order, overlapping crypto with whatever the
// caller does in emit (bounce-buffer writes, tag posting): while emit
// runs for chunk i, pool workers are already sealing chunks > i. This
// is the streaming pipeline of DESIGN.md §10. aads[i] is bound into
// chunk i's tag; aads may be nil (no AAD for any chunk).
//
// A contiguous counter range is reserved under the stream lock, and the
// fault hook is consulted once per chunk before any counter is
// reserved, so an ErrTransient return consumes no stream state and the
// whole batch may be retried with the same IVs; a batch that would
// cross the 32-bit counter boundary fails with ErrIVExhausted and
// again consumes nothing. Once emit has run for
// any chunk the batch is no longer retryable — an emit error aborts
// the remaining pipeline and is returned as-is, with the consumed
// counters abandoned (the recovery ladder's repost/teardown logic owns
// that case).
//
// The Sealed passed to emit has its Ciphertext backed by pooled arena
// memory that is reclaimed the moment emit returns: emit must copy any
// bytes it keeps and must not retain the slice or the *Sealed.
func (s *Stream) SealBatchStream(pts, aads [][]byte, pool *Pool, emit func(i int, chunk *Sealed) error) error {
	n := len(pts)
	if n == 0 {
		return nil
	}
	if aads != nil && len(aads) != n {
		return fmt.Errorf("secmem: %d plaintexts but %d aads", n, len(aads))
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
	if uint64(s.sendCtr)+uint64(n) > uint64(^uint32(0)) {
		s.mu.Unlock()
		return ErrIVExhausted
	}
	base := s.sendCtr
	s.sendCtr += uint32(n)
	aead, nb, epoch := s.aead, s.nonceBase, s.epoch
	if s.ivAudit != nil {
		for i := 0; i < n; i++ {
			s.ivAudit(epoch, base+1+uint32(i))
		}
	}
	o := s.obs
	var total int64
	for _, pt := range pts {
		total += int64(len(pt))
	}
	s.mu.Unlock()

	var sp obsv.ActiveSpan
	if o != nil {
		sp = o.tracer.Start(o.sealStream, keyStream.Str(o.name), keyBytes.I64(total), keyChunks.I64(int64(n)))
	}

	w := pool.Workers()
	if w > n {
		w = n
	}

	var err error
	if w == 1 {
		// Serial fast path: seal and emit inline, already in order. One
		// arena buffer sized for the largest chunk serves the whole
		// batch — emit must copy anything it keeps, so the buffer is
		// free for reuse the moment emit returns. The IV and the Sealed
		// handed to emit both escape (an interface call, a func value),
		// so they live in the stream's seal scratch; a batch that finds
		// it taken — a concurrent or nested batch — gets one of its own.
		scr := &s.sealScr
		owned := s.sealBusy.CompareAndSwap(false, true)
		if !owned {
			scr = new(sealScratch)
		}
		maxLen := 0
		for _, pt := range pts {
			if len(pt) > maxLen {
				maxLen = len(pt)
			}
		}
		buf := arena.Get(maxLen + TagSize)
		for i := 0; i < n && err == nil; i++ {
			c := base + 1 + uint32(i)
			putNonce(&scr.iv, nb, c)
			var aad []byte
			if aads != nil {
				aad = aads[i]
			}
			ct := aead.Seal(buf[:0], scr.iv[:], pts[i], aad)
			k := len(ct) - TagSize
			scr.chunk = Sealed{Counter: c, Epoch: epoch, Ciphertext: ct[:k]}
			copy(scr.chunk.Tag[:], ct[k:])
			err = emit(i, &scr.chunk)
		}
		arena.Put(buf) // ciphertext only: public bytes
		if owned {
			scr.chunk.Ciphertext = nil
			s.sealBusy.Store(false)
		}
	} else {
		// sealInto encrypts chunk i into an arena buffer using the
		// worker's reusable IV array. The returned slice is
		// ciphertext||tag.
		sealInto := func(iv *[NonceSize]byte, i int) []byte {
			c := base + 1 + uint32(i)
			binary.BigEndian.PutUint32(iv[nonceBase:], c)
			var aad []byte
			if aads != nil {
				aad = aads[i]
			}
			buf := arena.Get(len(pts[i]) + TagSize)
			return aead.Seal(buf[:0], iv[:], pts[i], aad)
		}
		err = sealStreamParallel(n, w, base, epoch, nb, sealInto, emit)
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

// sealStreamParallel runs crypto workers over a bounded in-flight
// window and emits completed chunks in submission order. Workers claim
// indices from an atomic counter in increasing order, so the
// next-to-emit chunk is always already claimed and never blocked on
// the window (its distance to the emit frontier is zero) — the
// pipeline cannot deadlock, and an emit error wakes any window-blocked
// worker via the same condition variable.
func sealStreamParallel(n, w int, base, epoch uint32, nb [nonceBase]byte,
	sealInto func(iv *[NonceSize]byte, i int) []byte,
	emit func(i int, chunk *Sealed) error) error {

	window := 4 * w
	var (
		mu      sync.Mutex
		cond    = sync.NewCond(&mu)
		bufs    = make([][]byte, n)
		done    = make([]bool, n)
		emitted int
		abort   bool
	)
	var next atomic.Int64
	var wg sync.WaitGroup
	worker := func() {
		defer wg.Done()
		var iv [NonceSize]byte
		copy(iv[:], nb[:])
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			mu.Lock()
			for i-emitted >= window && !abort {
				cond.Wait()
			}
			if abort {
				mu.Unlock()
				return
			}
			mu.Unlock()
			ct := sealInto(&iv, i)
			mu.Lock()
			bufs[i], done[i] = ct, true
			cond.Broadcast()
			mu.Unlock()
		}
	}
	wg.Add(w)
	for k := 0; k < w; k++ {
		go worker()
	}

	var err error
	var chunk Sealed
	for i := 0; i < n; i++ {
		mu.Lock()
		for !done[i] {
			cond.Wait()
		}
		ct := bufs[i]
		bufs[i] = nil
		mu.Unlock()
		k := len(ct) - TagSize
		chunk = Sealed{Counter: base + 1 + uint32(i), Epoch: epoch, Ciphertext: ct[:k]}
		copy(chunk.Tag[:], ct[k:])
		err = emit(i, &chunk)
		arena.Put(ct)
		mu.Lock()
		emitted++
		if err != nil {
			abort = true
		}
		cond.Broadcast()
		mu.Unlock()
		if err != nil {
			break
		}
	}
	wg.Wait()
	// Reclaim chunks that finished sealing after an abort.
	for _, b := range bufs {
		if b != nil {
			arena.Put(b)
		}
	}
	return err
}

// OpenBatchInto authenticates and decrypts a batch of chunks directly
// into dst, which must hold at least the sum of the ciphertext
// lengths. Chunk i's plaintext lands at the prefix-sum offset of the
// preceding ciphertext lengths, so a region reassembles contiguously
// with zero copies. The counters must be strictly increasing and all
// above the receive watermark (the batch is new, in-order traffic);
// the watermark advances only through the contiguous prefix of
// successfully authenticated chunks, and only if no rekey intervened.
// The fault hook fires for every chunk before any state changes, so a
// transient fault leaves the stream untouched and the batch is
// retryable. The sealed records are taken by value so the caller can
// reuse a scratch slice.
//
// On any authentication failure the written span of dst is zeroed
// before returning ErrAuth — partial plaintext, including chunks that
// verified before the failing one, never survives in caller-visible
// memory (fail-closed discipline, DESIGN.md §10).
func (s *Stream) OpenBatchInto(dst []byte, sealed []Sealed, aads [][]byte, pool *Pool) error {
	n := len(sealed)
	if n == 0 {
		return nil
	}
	if aads != nil && len(aads) != n {
		return fmt.Errorf("secmem: %d chunks but %d aads", n, len(aads))
	}
	// batchMu keeps two concurrent batch opens from interleaving their
	// validate/advance windows, and in passing makes the batch scratch
	// (offset prefix sums, per-chunk errors) single-owner so span-sized
	// batches reuse one per-stream allocation instead of two per call.
	// Lock order: batchMu, then mu.
	s.batchMu.Lock()
	defer s.batchMu.Unlock()

	if s.batchOffs == nil || len(s.batchOffs) < n+1 {
		s.batchOffs = make([]int, n+1)
		s.batchErrs = make([]error, n)
	}
	offs, errs := s.batchOffs[:n+1], s.batchErrs[:n]
	offs[0] = 0
	for i := range sealed {
		offs[i+1] = offs[i] + len(sealed[i].Ciphertext)
	}
	if offs[n] > len(dst) {
		return fmt.Errorf("secmem: dst holds %d bytes, batch needs %d", len(dst), offs[n])
	}

	s.mu.Lock()
	if s.fault != nil {
		for range sealed {
			if err := s.fault("open"); err != nil {
				s.mu.Unlock()
				return err
			}
		}
	}
	prev := s.recvCtr
	for i := range sealed {
		c := &sealed[i]
		if c.Epoch != s.epoch {
			s.obsReplay()
			s.mu.Unlock()
			return fmt.Errorf("%w: epoch %d vs %d", ErrReplay, c.Epoch, s.epoch)
		}
		if c.Counter <= prev {
			s.obsReplay()
			s.mu.Unlock()
			return fmt.Errorf("%w: chunk %d counter %d after %d", ErrReplay, i, c.Counter, prev)
		}
		prev = c.Counter
	}
	aead, nb, epoch := s.aead, s.nonceBase, s.epoch
	o := s.obs
	s.mu.Unlock()

	maxCt := 0
	for i := range sealed {
		if len(sealed[i].Ciphertext) > maxCt {
			maxCt = len(sealed[i].Ciphertext)
		}
	}
	// One scratch per worker carries ciphertext||tag plus the IV at its
	// tail for every chunk that worker opens — Open only reads from it
	// while writing into dst, so reuse across chunks is safe.
	if min(pool.Workers(), n) == 1 {
		// Serial: the caller is the only worker, no closure needed.
		buf := arena.Get(maxCt + TagSize + NonceSize)
		for i := range sealed {
			errs[i] = openInto(aead, &nb, buf, &sealed[i], aadAt(aads, i), dst[offs[i]:offs[i]:offs[i+1]])
		}
		arena.Put(buf) // scratch held ciphertext||tag||iv: public bytes
	} else {
		var bufMu sync.Mutex
		var bufs [][]byte
		wnb := nb // the workers' copy: a captured nb would cost the serial path its heap box
		pool.RunEach(n, func() func(i int) {
			buf := arena.Get(maxCt + TagSize + NonceSize)
			bufMu.Lock()
			bufs = append(bufs, buf)
			bufMu.Unlock()
			return func(i int) {
				errs[i] = openInto(aead, &wnb, buf, &sealed[i], aadAt(aads, i), dst[offs[i]:offs[i]:offs[i+1]])
			}
		})
		for _, b := range bufs {
			arena.Put(b)
		}
	}

	// Advance the watermark through the contiguous success prefix.
	good := 0
	for good < n && errs[good] == nil {
		good++
	}
	s.mu.Lock()
	if s.epoch == epoch && good > 0 {
		s.recvCtr = sealed[good-1].Counter
	}
	s.mu.Unlock()

	if good < n {
		for i := range dst[:offs[n]] {
			dst[i] = 0
		}
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
