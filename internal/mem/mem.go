// Package mem models host physical memory as seen from the PCIe fabric:
// an address space carved into regions, a page-grained allocator, bounce
// buffers for ccAI's encrypted DMA staging, and an IOMMU that restricts
// which device may reach which pages. Every buffer holds real bytes.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// PageSize is the allocation granule, matching the 4 KiB host page size
// the paper's Adaptor maps bounce buffers with.
const PageSize = 4096

// Buffer is a contiguous span of host physical memory.
type Buffer struct {
	base uint64
	size int64
	data []byte // nil once freed
	name string

	// pinned buffers survive Space.Free: KV-cache regions stay resident
	// (and their backing un-recycled) across decode steps until the
	// owning session unpins them at Close.
	pinned atomic.Bool

	// slot is the buffer's index in its Space's slot table, written
	// under the Space's mutex.
	slot int
}

// Base reports the buffer's physical base address.
func (b *Buffer) Base() uint64 { return b.base }

// Size reports the buffer's length in bytes.
func (b *Buffer) Size() int64 { return b.size }

// Name reports the buffer's diagnostic label. A test seam: the role
// audit and the protocol model tell the host buffers apart by it.
func (b *Buffer) Name() string { return b.name }

// Bytes exposes the buffer's contents. It panics on a freed buffer: a
// use after Free must fail loudly, not read zeros.
func (b *Buffer) Bytes() []byte {
	if b.data == nil {
		panic(fmt.Sprintf("mem: Bytes() on freed buffer %q", b.name))
	}
	return b.data
}

// Slice returns the bytes in [off, off+n).
func (b *Buffer) Slice(off, n int64) []byte {
	if off < 0 || n < 0 || off+n > b.size {
		panic(fmt.Sprintf("mem: slice [%d,%d) outside buffer %q of size %d", off, off+n, b.name, b.size))
	}
	return b.Bytes()[off : off+n]
}

// Pin marks the buffer resident: Space.Free becomes a no-op until
// Unpin. This is the host-side half of KV-cache residency — the region
// backing a live inference session must never be reclaimed or recycled
// mid-decode.
func (b *Buffer) Pin() { b.pinned.Store(true) }

// Unpin clears residency; the next Free reclaims the buffer.
func (b *Buffer) Unpin() { b.pinned.Store(false) }

// Pinned reports residency.
func (b *Buffer) Pinned() bool { return b.pinned.Load() }

// Contains reports whether addr lies inside the buffer.
func (b *Buffer) Contains(addr uint64) bool {
	return addr >= b.base && addr < b.base+uint64(b.size)
}

// Space is a host physical address space with a bump+free-list page
// allocator per named region ("TVM private", "shared/bounce", ...).
//
// The allocator and buffer index are safe for concurrent use.
// Allocation and free serialize on the mutex; Resolve — every DMA the
// host bridge terminates — takes no lock. Buffer byte contents are NOT
// arbitrated here — each tenant owns disjoint buffers, so concurrent DMA
// into the same buffer is a caller bug, exactly as with real host RAM.
type Space struct {
	mu      sync.Mutex
	regions map[string]*regionAlloc
	// slots indexes all live allocations for DMA resolution: Alloc
	// publishes a buffer in a free slot, Free clears the slot. The
	// table grows by doubling and never compacts, so a live buffer
	// never moves to a slot a reader in mid-scan has already passed,
	// and a steady alloc/free loop reuses slots without allocating.
	slots atomic.Pointer[[]atomic.Pointer[Buffer]]
	// spare retires the byte backings of freed buffers, keyed by exact
	// capacity, so the steady-state task loop (alloc bounce buffer, run,
	// free) stops paying one large allocation per task. Backings are zeroed at Free time — the same eager-zeroing
	// discipline as arena.PutZero, since a bounce buffer may have held
	// tenant plaintext — so Alloc's zeroed-memory contract holds for
	// recycled backings without further work.
	spare map[int][][]byte
}

type regionAlloc struct {
	base, size uint64
	next       uint64
	free       []span // coalesced free list, sorted by base
}

type span struct{ base, size uint64 }

// NewSpace returns an empty address space.
func NewSpace() *Space {
	s := &Space{regions: make(map[string]*regionAlloc)}
	s.slots.Store(new([]atomic.Pointer[Buffer]))
	return s
}

// AddRegion defines a named allocatable window. Windows must not
// overlap.
func (s *Space) AddRegion(name string, base, size uint64) error {
	if size == 0 {
		return fmt.Errorf("mem: empty region %q", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for n, r := range s.regions {
		if base < r.base+r.size && r.base < base+size {
			return fmt.Errorf("mem: region %q overlaps %q", name, n)
		}
	}
	s.regions[name] = &regionAlloc{base: base, size: size, next: base}
	return nil
}

func align(v uint64) uint64 { return (v + PageSize - 1) &^ (PageSize - 1) }

func (r *regionAlloc) alloc(size int64) (uint64, error) {
	need := align(uint64(size))
	// First-fit in the free list.
	for i, f := range r.free {
		if f.size >= need {
			base := f.base
			if f.size == need {
				r.free = append(r.free[:i], r.free[i+1:]...)
			} else {
				r.free[i] = span{base: f.base + need, size: f.size - need}
			}
			return base, nil
		}
	}
	if r.next+need > r.base+r.size {
		return 0, fmt.Errorf("mem: region exhausted (%d bytes requested)", size)
	}
	base := r.next
	r.next += need
	return base, nil
}

func (r *regionAlloc) release(base uint64, size int64) {
	need := align(uint64(size))
	// The list is sorted and coalesced, so the freed span belongs at the
	// binary-searched position and can only merge with its two neighbours.
	i := sort.Search(len(r.free), func(i int) bool { return r.free[i].base >= base })
	if i > 0 && r.free[i-1].base+r.free[i-1].size == base {
		r.free[i-1].size += need
		if i < len(r.free) && base+need == r.free[i].base {
			r.free[i-1].size += r.free[i].size
			r.free = append(r.free[:i], r.free[i+1:]...)
		}
		return
	}
	if i < len(r.free) && base+need == r.free[i].base {
		r.free[i] = span{base: base, size: need + r.free[i].size}
		return
	}
	r.free = append(r.free, span{})
	copy(r.free[i+1:], r.free[i:])
	r.free[i] = span{base: base, size: need}
}

// spareCap bounds how many retired backings are kept per size class;
// beyond it the GC takes them, so a burst of odd-sized buffers cannot
// pin memory forever.
const spareCap = 8

// Alloc reserves pages for a zeroed buffer of the given size in region,
// reusing a retired backing of the same capacity when one is spare, and
// publishes it in the DMA index with its backing in place, so a buffer
// is never resolvable while half-initialized.
func (s *Space) Alloc(region, name string, size int64) (*Buffer, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mem: non-positive allocation %q", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.regions[region]
	if !ok {
		return nil, fmt.Errorf("mem: unknown region %q", region)
	}
	base, err := r.alloc(size)
	if err != nil {
		return nil, fmt.Errorf("mem: %q in %q: %w", name, region, err)
	}
	b := &Buffer{base: base, size: size, name: name}
	if bs := s.spare[int(size)]; len(bs) > 0 {
		b.data = bs[len(bs)-1]
		s.spare[int(size)] = bs[:len(bs)-1]
	} else {
		b.data = make([]byte, size)
	}
	s.publish(b)
	return b, nil
}

// publish stores b in the lowest free slot, doubling the table when
// every slot is taken. The grown table is filled before it is swapped
// in, so a reader sees every live buffer in whichever table it loaded.
// Callers hold s.mu.
func (s *Space) publish(b *Buffer) {
	slots := *s.slots.Load()
	for i := range slots {
		if slots[i].Load() == nil {
			b.slot = i
			slots[i].Store(b)
			return
		}
	}
	grown := make([]atomic.Pointer[Buffer], max(8, 2*len(slots)))
	for i := range slots {
		grown[i].Store(slots[i].Load())
	}
	b.slot = len(slots)
	grown[b.slot].Store(b)
	s.slots.Store(&grown)
}

// Free releases a buffer's pages back to its region. Pinned buffers
// are left untouched — the owner must Unpin first (KV residency) — and
// so is a buffer this space no longer holds.
func (s *Space) Free(b *Buffer) {
	if b.Pinned() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	slots := *s.slots.Load()
	if b.slot >= len(slots) || slots[b.slot].Load() != b {
		return
	}
	slots[b.slot].Store(nil)
	for _, r := range s.regions {
		if b.base >= r.base && b.base < r.base+r.size {
			r.release(b.base, b.size)
			break
		}
	}
	if int64(cap(b.data)) == b.size {
		if s.spare == nil {
			s.spare = make(map[int][][]byte)
		}
		if bs := s.spare[int(b.size)]; len(bs) < spareCap {
			d := b.data[:cap(b.data)]
			for i := range d {
				d[i] = 0 // eager zeroing: the backing may have held plaintext
			}
			s.spare[int(b.size)] = append(bs, d)
		}
	}
	b.data = nil
}

// Resolve finds the live buffer containing addr.
func (s *Space) Resolve(addr uint64) (*Buffer, bool) {
	slots := *s.slots.Load()
	for i := range slots {
		if b := slots[i].Load(); b != nil && b.Contains(addr) {
			return b, true
		}
	}
	return nil, false
}

// Live reports how many buffers the space holds: allocated and not yet
// freed. A test seam for sliceHygiene and the protocol model.
func (s *Space) Live() int {
	n := 0
	slots := *s.slots.Load()
	for i := range slots {
		if slots[i].Load() != nil {
			n++
		}
	}
	return n
}

// Write stores data at a physical address inside a buffer.
func (s *Space) Write(addr uint64, data []byte) error {
	b, ok := s.Resolve(addr)
	if !ok {
		return fmt.Errorf("mem: write to unmapped address %#x", addr)
	}
	off := int64(addr - b.base)
	if off+int64(len(data)) > b.size {
		return fmt.Errorf("mem: write overruns buffer %q", b.name)
	}
	copy(b.Bytes()[off:], data)
	return nil
}

// Read loads n bytes from a physical address inside a buffer.
func (s *Space) Read(addr uint64, n int64) ([]byte, error) {
	b, ok := s.Resolve(addr)
	if !ok {
		return nil, fmt.Errorf("mem: read from unmapped address %#x", addr)
	}
	off := int64(addr - b.base)
	if off+n > b.size {
		return nil, fmt.Errorf("mem: read overruns buffer %q", b.name)
	}
	return append([]byte(nil), b.Bytes()[off:off+n]...), nil
}

// ReadInto copies len(dst) bytes from a physical address into dst,
// letting a caller that owns a reusable buffer (the host bridge's
// pooled completion payloads) avoid Read's per-call allocation.
func (s *Space) ReadInto(addr uint64, dst []byte) error {
	b, ok := s.Resolve(addr)
	if !ok {
		return fmt.Errorf("mem: read from unmapped address %#x", addr)
	}
	off := int64(addr - b.base)
	if off+int64(len(dst)) > b.size {
		return fmt.Errorf("mem: read overruns buffer %q", b.name)
	}
	copy(dst, b.Bytes()[off:])
	return nil
}

// ReadUint64 loads a little-endian 64-bit value.
func (s *Space) ReadUint64(addr uint64) (uint64, error) {
	var buf [8]byte
	if err := s.ReadInto(addr, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}
