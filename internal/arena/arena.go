// Package arena provides a size-classed, sync.Pool-backed buffer
// arena for the datapath's per-chunk scratch memory: TLP payload
// assembly, seal/open ciphertext staging, tag-packet construction.
// The steady-state cost of a Get/Put pair is zero allocations.
//
// Memory discipline (DESIGN.md §10): buffers that only ever held
// public bytes — ciphertext, wire-format tag records, marshalled
// headers — are released with Put. Any buffer that held plaintext or
// key-derived material MUST be released with PutZero, which zeroes it
// eagerly before it becomes visible to the next Get. The zeroing is
// synchronous, not deferred to reuse, so a pooled buffer can never
// carry one session's secrets into another caller's hands.
package arena

import "sync"

// The class pools hold pointers to fixed-size arrays, one pool per
// power-of-two size class. The smallest covers MAC headers and AAD
// scratch; 512 covers a 256 B step-slot chunk plus a GCM tag with
// headroom, 4096 one bulk chunk or a device read. An array pointer crosses the sync.Pool interface without a
// box, and Put recovers it from the slice by conversion, so a Get/Put
// pair is one pool operation each way and allocates nothing.
var (
	pool64    = sync.Pool{New: func() any { return new([64]byte) }}
	pool128   = sync.Pool{New: func() any { return new([128]byte) }}
	pool256   = sync.Pool{New: func() any { return new([256]byte) }}
	pool512   = sync.Pool{New: func() any { return new([512]byte) }}
	pool1024  = sync.Pool{New: func() any { return new([1024]byte) }}
	pool4096  = sync.Pool{New: func() any { return new([4096]byte) }}
	pool65536 = sync.Pool{New: func() any { return new([65536]byte) }}
)

// Get returns a buffer of length n. The contents are unspecified (the
// previous user's public bytes may still be there — see PutZero for
// the secret-carrying discipline). Buffers larger than the biggest
// class fall through to the allocator and are not pooled.
func Get(n int) []byte {
	switch {
	case n <= 64:
		return pool64.Get().(*[64]byte)[:n]
	case n <= 128:
		return pool128.Get().(*[128]byte)[:n]
	case n <= 256:
		return pool256.Get().(*[256]byte)[:n]
	case n <= 512:
		return pool512.Get().(*[512]byte)[:n]
	case n <= 1024:
		return pool1024.Get().(*[1024]byte)[:n]
	case n <= 4096:
		return pool4096.Get().(*[4096]byte)[:n]
	case n <= 65536:
		return pool65536.Get().(*[65536]byte)[:n]
	}
	return make([]byte, n)
}

// Put returns a buffer obtained from Get to its pool without zeroing.
// Only for buffers that never held plaintext or key-derived material
// (ciphertext, marshalled records, header scratch). Buffers not from
// Get (or beyond the largest class) are dropped for the GC.
func Put(b []byte) {
	b = b[:cap(b)]
	switch len(b) {
	case 64:
		pool64.Put((*[64]byte)(b))
	case 128:
		pool128.Put((*[128]byte)(b))
	case 256:
		pool256.Put((*[256]byte)(b))
	case 512:
		pool512.Put((*[512]byte)(b))
	case 1024:
		pool1024.Put((*[1024]byte)(b))
	case 4096:
		pool4096.Put((*[4096]byte)(b))
	case 65536:
		pool65536.Put((*[65536]byte)(b))
	}
	// Any other capacity is not one of ours; let the GC have it.
}

// PutZero zeroes the buffer's full capacity and then pools it. This is
// the mandatory release path for any buffer that ever held plaintext
// or key-derived material: the zeroing happens now, on this goroutine,
// so no subsequent Get — in this tenant or any other — can observe the
// secret bytes.
func PutZero(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = 0
	}
	Put(b)
}
