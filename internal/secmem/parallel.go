package secmem

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
)

// Pool is a bounded parallel-for executor for per-chunk crypto work.
// It implements the paper's §5 "allocate additional CPU threads for
// the Adaptor" optimization: AES-GCM chunks within one region are
// independent once their IV counters are reserved, so seal/open can
// fan out across workers while all stream state stays serialized.
//
// A Pool holds no goroutines between calls; RunEach spawns at most
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

// RunEach invokes fn(i) for every i in [0, n), distributing indices
// over the pool via an atomic work counter, and returns when all n calls
// have completed. Every worker invokes mk once and then runs the
// returned fn over its share of indices, so workers can own scratch
// buffers (IV assembly, staging space) without sharing them across
// goroutines or allocating per index. A nil Pool or a single-worker
// pool runs serially on the calling goroutine.
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
