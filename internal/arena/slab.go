package arena

import "sync"

// slabBlock is the default block size a Slab carves from. 64 KiB holds
// one full task's worth of chunk payloads before the next block.
const slabBlock = 64 * 1024

// Slab is a bump allocator over large, never-recycled blocks. Take
// carves an exact-capacity slice from the current block and the memory
// is NEVER reused — when a block is exhausted the slab simply starts a
// fresh one and the old block is left to the garbage collector once
// every carved slice dies.
//
// That no-reuse property is the point: unlike the Get/Put pools above,
// slices carved from a Slab are safe to hand off as packet payloads or
// completion bodies even though bus taps may retain routed packets
// indefinitely (see pcie.PacketArena.CompletionOwned). The slab only
// amortizes the allocation count — one make per block instead of one
// per chunk — it does not recycle bytes, so there is nothing a retained
// reference could later observe being overwritten.
type Slab struct {
	mu  sync.Mutex
	buf []byte
}

// Take returns a zeroed slice of length and capacity n carved from the
// slab. Requests larger than half a block bypass the slab so a huge
// request cannot strand a mostly-empty block.
func (s *Slab) Take(n int) []byte {
	if n > slabBlock/2 {
		return make([]byte, n)
	}
	s.mu.Lock()
	if n > len(s.buf) {
		s.buf = make([]byte, slabBlock)
	}
	b := s.buf[:n:n]
	s.buf = s.buf[n:]
	s.mu.Unlock()
	return b
}
