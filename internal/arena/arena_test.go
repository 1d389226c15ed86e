package arena

import (
	"bytes"
	"sync"
	"testing"
)

func TestGetLengthsAndClasses(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 256, 257, 512, 4096, 65536, 70000} {
		b := Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d) returned len %d", n, len(b))
		}
		Put(b)
	}
}

func TestPutZeroZeroesEagerly(t *testing.T) {
	b := Get(128)
	for i := range b {
		b[i] = 0xAA
	}
	// Keep an aliasing view: PutZero must zero the memory itself, not
	// just mark it reusable, so the secret bytes are gone the moment
	// the call returns.
	view := b[:cap(b)]
	PutZero(b)
	if !bytes.Equal(view, make([]byte, len(view))) {
		t.Fatal("PutZero left secret bytes in the buffer")
	}
}

func TestPutZeroZeroesFullCapacity(t *testing.T) {
	b := Get(512)
	for i := range b {
		b[i] = 0x5A
	}
	short := b[:10] // caller re-sliced; tail still holds secrets
	view := b[:cap(b)]
	PutZero(short)
	for i, v := range view {
		if v != 0 {
			t.Fatalf("byte %d not zeroed (cap-wide zeroing failed)", i)
		}
	}
}

func TestOversizeFallsThrough(t *testing.T) {
	b := Get(1 << 20)
	if len(b) != 1<<20 {
		t.Fatalf("oversize Get returned len %d", len(b))
	}
	Put(b)     // must not panic
	PutZero(b) // must not panic
}

func TestForeignBufferIgnored(t *testing.T) {
	b := make([]byte, 100) // cap not a class size
	Put(b)
	PutZero(b) // zeroes, then drops
}

// TestConcurrentNoAliasing hammers the arena from many goroutines,
// each writing a distinct pattern and verifying it survives until its
// own Put — two in-flight buffers must never share memory. Run with
// -race to catch write overlap the pattern check might miss.
func TestConcurrentNoAliasing(t *testing.T) {
	const workers = 8
	const rounds = 500
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			pat := byte(w + 1)
			for r := 0; r < rounds; r++ {
				n := 32 + (w*37+r)%480
				b := Get(n)
				for i := range b {
					b[i] = pat
				}
				for i := range b {
					if b[i] != pat {
						t.Errorf("worker %d round %d: buffer aliased (saw %#x)", w, r, b[i])
						return
					}
				}
				if r%2 == 0 {
					PutZero(b)
				} else {
					Put(b)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSteadyStateZeroAllocs pins the package's headline contract: a
// warmed Get/Put pair allocates nothing — the class pools store array
// pointers, which cross the pool's interface without a box.
func TestSteadyStateZeroAllocs(t *testing.T) {
	// Warm every class so the measured loop only recycles.
	for _, n := range []int{64, 256, 4096} {
		Put(Get(n))
	}
	allocs := testing.AllocsPerRun(200, func() {
		b := Get(256)
		b[0] = 1
		Put(b)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/Put allocates %.1f objects per op, want 0", allocs)
	}
}
