package secmem

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"ccai/internal/arena"
	"ccai/internal/obsv"
)

// Pool is a bounded parallel-for executor for per-chunk crypto work.
// It implements the paper's §5 "allocate additional CPU threads for
// the Adaptor" optimization: AES-GCM chunks within one region are
// independent once their IV counters are reserved, so seal/open can
// fan out across workers while all stream state stays serialized.
//
// A Pool holds no goroutines between calls; Run spawns at most
// workers-1 helpers and joins them before returning, so there is
// nothing to shut down and a Pool may be shared freely.
type Pool struct {
	workers int
}

// NewPool returns a Pool running fn on up to workers goroutines.
// workers < 1 is treated as 1 (serial).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{workers: workers}
}

// Workers reports the pool's parallelism bound.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Run invokes fn(i) for every i in [0, n), distributing indices over
// the pool via an atomic work counter. It returns when all n calls
// have completed. A nil Pool or a single-worker pool runs serially on
// the calling goroutine.
func (p *Pool) Run(n int, fn func(i int)) {
	p.RunEach(n, func() func(i int) { return fn })
}

// RunEach is Run with per-worker state: every worker invokes mk once
// and then runs the returned fn over its share of indices. Workers can
// therefore own scratch buffers (IV assembly, staging space) without
// sharing them across goroutines or allocating per index.
func (p *Pool) RunEach(n int, mk func() func(i int)) {
	if n <= 0 {
		return
	}
	w := p.Workers()
	if w > n {
		w = n
	}
	if w == 1 {
		fn := mk()
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	work := func() {
		defer wg.Done()
		fn := mk()
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	wg.Add(w)
	for k := 1; k < w; k++ {
		go work()
	}
	work() // the caller is worker 0
	wg.Wait()
}

// putNonce assembles the 12-byte GCM IV for counter c against a
// captured nonce base into caller scratch (lock-free worker path —
// each worker owns its own scratch, so no IV buffer is ever shared or
// allocated per chunk).
func putNonce(iv *[NonceSize]byte, base [nonceBase]byte, c uint32) {
	copy(iv[:], base[:])
	binary.BigEndian.PutUint32(iv[nonceBase:], c)
}

// SealBatch encrypts len(pts) chunks, reserving a contiguous counter
// range under the stream lock and then sealing the chunks in parallel
// on the pool. aads[i] is bound into chunk i's tag; aads may be nil
// (no AAD for any chunk).
//
// Failure atomicity matches Seal: the fault hook is consulted for
// every chunk before any counter is reserved, so a transient fault
// consumes no stream state and the whole batch may simply be retried.
// If the batch would cross the 32-bit counter boundary the call fails
// with ErrIVExhausted and again consumes nothing.
func (s *Stream) SealBatch(pts, aads [][]byte, pool *Pool) ([]*Sealed, error) {
	n := len(pts)
	if n == 0 {
		return nil, nil
	}
	if aads != nil && len(aads) != n {
		return nil, fmt.Errorf("secmem: %d plaintexts but %d aads", n, len(aads))
	}

	s.mu.Lock()
	if s.fault != nil {
		for range pts {
			if err := s.fault("seal"); err != nil {
				s.mu.Unlock()
				return nil, err
			}
		}
	}
	if uint64(s.sendCtr)+uint64(n) > uint64(^uint32(0)) {
		s.mu.Unlock()
		return nil, ErrIVExhausted
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
		sp = o.tracer.Start(o.sealBatch, keyStream.Str(o.name), keyBytes.I64(total), keyChunks.I64(int64(n)))
	}

	out := make([]*Sealed, n)
	pool.RunEach(n, func() func(i int) {
		var iv [NonceSize]byte // per-worker IV scratch: no per-chunk allocation
		return func(i int) {
			c := base + 1 + uint32(i)
			var aad []byte
			if aads != nil {
				aad = aads[i]
			}
			putNonce(&iv, nb, c)
			ct := aead.Seal(nil, iv[:], pts[i], aad)
			sealed := &Sealed{Counter: c, Epoch: epoch}
			k := len(ct) - TagSize
			sealed.Ciphertext = ct[:k]
			copy(sealed.Tag[:], ct[k:])
			out[i] = sealed
		}
	})

	if o != nil {
		sp.Set(keyCtrFirst.U64(uint64(base+1)), keyEpoch.U64(uint64(epoch)))
		sp.End()
		o.sealOps.Add(uint64(n))
		o.sealBytes.Add(uint64(total))
	}
	return out, nil
}

// OpenBatch authenticates and decrypts a batch of chunks whose
// counters must be strictly increasing and all above the receive
// watermark (i.e. the batch is new, in-order traffic). Decryption
// fans out on the pool; the watermark advances only through the
// contiguous prefix of successfully authenticated chunks, under the
// same lock and only if no rekey intervened.
//
// Like SealBatch, the fault hook fires for every chunk before any
// state changes, so a transient fault leaves the stream untouched and
// the batch is retryable. On an authentication failure the first
// error is returned and no result slice is produced.
func (s *Stream) OpenBatch(sealed []*Sealed, aads [][]byte, pool *Pool) ([][]byte, error) {
	n := len(sealed)
	if n == 0 {
		return nil, nil
	}
	if aads != nil && len(aads) != n {
		return nil, fmt.Errorf("secmem: %d chunks but %d aads", n, len(aads))
	}

	// batchMu keeps two concurrent OpenBatch calls from interleaving
	// their validate/advance windows. Lock order: batchMu, then mu.
	s.batchMu.Lock()
	defer s.batchMu.Unlock()

	s.mu.Lock()
	if s.fault != nil {
		for range sealed {
			if err := s.fault("open"); err != nil {
				s.mu.Unlock()
				return nil, err
			}
		}
	}
	prev := s.recvCtr
	for i, c := range sealed {
		if c.Epoch != s.epoch {
			s.obsReplay()
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: epoch %d vs %d", ErrReplay, c.Epoch, s.epoch)
		}
		if c.Counter <= prev {
			s.obsReplay()
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: chunk %d counter %d after %d", ErrReplay, i, c.Counter, prev)
		}
		prev = c.Counter
	}
	aead, nb, epoch := s.aead, s.nonceBase, s.epoch
	o := s.obs
	s.mu.Unlock()

	pts := make([][]byte, n)
	errs := make([]error, n)
	pool.Run(n, func(i int) {
		ctLen := len(sealed[i].Ciphertext)
		buf := arena.Get(ctLen + TagSize + NonceSize)
		copy(buf, sealed[i].Ciphertext)
		copy(buf[ctLen:], sealed[i].Tag[:])
		iv := buf[ctLen+TagSize:]
		copy(iv, nb[:])
		binary.BigEndian.PutUint32(iv[nonceBase:], sealed[i].Counter)
		var aad []byte
		if aads != nil {
			aad = aads[i]
		}
		pt, err := aead.Open(nil, iv, buf[:ctLen+TagSize], aad)
		pts[i], errs[i] = pt, err
		arena.Put(buf) // ciphertext, tag, IV: all public bytes
	})

	// Advance the watermark through the contiguous success prefix.
	good := 0
	for good < n && errs[good] == nil {
		good++
	}
	s.mu.Lock()
	if s.epoch == epoch && good > 0 {
		s.recvCtr = sealed[good-1].Counter
	}
	var total uint64
	for i := 0; i < good; i++ {
		total += uint64(len(pts[i]))
	}
	s.mu.Unlock()

	if good < n {
		if o != nil {
			o.authFail.Inc()
		}
		return nil, ErrAuth
	}
	if o != nil {
		o.openOps.Add(uint64(n))
		o.openBytes.Add(total)
	}
	return pts, nil
}
