package mem

import (
	"bytes"
	"encoding/binary"
	"sort"
	"testing"
	"testing/quick"

	"ccai/internal/pcie"
	"ccai/internal/sim"
)

func newTestSpace(t *testing.T) *Space {
	t.Helper()
	s := NewSpace()
	if err := s.AddRegion("tvm", 0x1000_0000, 64<<20); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRegion("bounce", 0x8000_0000, 64<<20); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAllocReadWriteRoundTrip(t *testing.T) {
	s := newTestSpace(t)
	b, err := s.Alloc("tvm", "input", 8192)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("patient record #42: diagnosis pending")
	if err := s.Write(b.Base()+100, msg); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(b.Base()+100, int64(len(msg)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read back %q", got)
	}
}

func TestAllocPageAlignment(t *testing.T) {
	s := newTestSpace(t)
	a, _ := s.Alloc("tvm", "a", 100)
	b, _ := s.Alloc("tvm", "b", 100)
	if a.Base()%PageSize != 0 || b.Base()%PageSize != 0 {
		t.Fatal("allocations not page aligned")
	}
	if b.Base()-a.Base() != PageSize {
		t.Fatalf("sub-page alloc consumed %d bytes", b.Base()-a.Base())
	}
}

func TestAllocExhaustion(t *testing.T) {
	s := NewSpace()
	if err := s.AddRegion("tiny", 0x1000, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc("tiny", "fits", 2*PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc("tiny", "overflow", 1); err == nil {
		t.Fatal("exhausted region still allocated")
	}
}

func TestFreeAndReuse(t *testing.T) {
	s := NewSpace()
	if err := s.AddRegion("r", 0x1000, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	a, _ := s.Alloc("r", "a", PageSize)
	bBuf, _ := s.Alloc("r", "b", PageSize)
	c, _ := s.Alloc("r", "c", 2*PageSize)
	_ = c
	s.Free(a)
	s.Free(bBuf)
	// Freed a+b coalesce into a 2-page span that a new 2-page alloc fits.
	d, err := s.Alloc("r", "d", 2*PageSize)
	if err != nil {
		t.Fatalf("coalesced reuse failed: %v", err)
	}
	if d.Base() != a.Base() {
		t.Fatalf("reuse at %#x, want %#x", d.Base(), a.Base())
	}
}

func TestResolveAfterFree(t *testing.T) {
	s := newTestSpace(t)
	b, _ := s.Alloc("tvm", "x", PageSize)
	addr := b.Base()
	s.Free(b)
	if _, ok := s.Resolve(addr); ok {
		t.Fatal("freed buffer still resolvable")
	}
	if err := s.Write(addr, []byte{1}); err == nil {
		t.Fatal("write to freed memory succeeded")
	}
}

func TestRegionOverlapRejected(t *testing.T) {
	s := NewSpace()
	if err := s.AddRegion("a", 0x1000, 0x1000); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRegion("b", 0x1800, 0x1000); err == nil {
		t.Fatal("overlapping region accepted")
	}
}

// TestBytesAfterFreePanics: a freed buffer has no backing, and a use
// after Free panics rather than reading zeros.
func TestBytesAfterFreePanics(t *testing.T) {
	s := newTestSpace(t)
	b, err := s.Alloc("tvm", "gone", PageSize)
	if err != nil {
		t.Fatal(err)
	}
	s.Free(b)
	defer func() {
		if recover() == nil {
			t.Fatal("Bytes() on a freed buffer did not panic")
		}
	}()
	_ = b.Bytes()
}

func TestWriteOverrunRejected(t *testing.T) {
	s := newTestSpace(t)
	b, _ := s.Alloc("tvm", "small", PageSize)
	if err := s.Write(b.Base()+uint64(b.Size())-4, make([]byte, 8)); err == nil {
		t.Fatal("overrun write accepted")
	}
	if _, err := s.Read(b.Base()+uint64(b.Size())-4, 8); err == nil {
		t.Fatal("overrun read accepted")
	}
}

func TestUint64Helpers(t *testing.T) {
	s := newTestSpace(t)
	b, _ := s.Alloc("tvm", "regs", PageSize)
	if err := s.Write(b.Base()+16, binary.LittleEndian.AppendUint64(nil, 0xdeadbeefcafef00d)); err != nil {
		t.Fatal(err)
	}
	v, err := s.ReadUint64(b.Base() + 16)
	if err != nil || v != 0xdeadbeefcafef00d {
		t.Fatalf("ReadUint64 = %#x, %v", v, err)
	}
}

// Property: allocations never overlap one another.
func TestAllocationsDisjointProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		s := NewSpace()
		if err := s.AddRegion("r", 0, 1<<30); err != nil {
			return false
		}
		var bufs []*Buffer
		for _, sz := range sizes {
			b, err := s.Alloc("r", "x", int64(sz)+1)
			if err != nil {
				return false
			}
			bufs = append(bufs, b)
		}
		for i := range bufs {
			for j := i + 1; j < len(bufs); j++ {
				a, b := bufs[i], bufs[j]
				if a.Base() < b.Base()+uint64(b.Size()) && b.Base() < a.Base()+uint64(a.Size()) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// --- IOMMU ----------------------------------------------------------------

func TestIOMMUDefaultDeny(t *testing.T) {
	u := NewIOMMU()
	dev := pcie.MakeID(2, 0, 0)
	if u.Check(dev, 0x1000, 64, false) {
		t.Fatal("unmapped read allowed")
	}
	if len(u.Faults) != 1 {
		t.Fatalf("faults = %d, want 1", len(u.Faults))
	}
}

func TestIOMMUPermissionEnforcement(t *testing.T) {
	u := NewIOMMU()
	dev := pcie.MakeID(2, 0, 0)
	u.Map(dev, 0x1000, 0x1000, PermRead)
	if !u.Check(dev, 0x1800, 64, false) {
		t.Fatal("mapped read denied")
	}
	if u.Check(dev, 0x1800, 64, true) {
		t.Fatal("read-only mapping allowed a write")
	}
	// Range straddling the mapping edge must fail.
	if u.Check(dev, 0x1fff, 64, false) {
		t.Fatal("straddling access allowed")
	}
	// A range that wraps past 2^64, or a negative size, is outside every
	// grant — however large — and faults like any other denial.
	u.Map(dev, 0x1000_0000, 16<<20, PermRead|PermWrite)
	if u.Check(dev, 0xffff_ffff_ffff_f000, 0x2000, true) {
		t.Fatal("write wrapping past 2^64 allowed")
	}
	if u.Check(dev, 0x1000_1000, -1, false) {
		t.Fatal("negative-size read allowed")
	}
	if n := len(u.Faults); n != 4 {
		t.Fatalf("faults = %d, want 4 (write, straddle, wrap, negative size)", n)
	}
	if f := u.Faults[2]; f.Addr != 0xffff_ffff_ffff_f000 || !f.Write {
		t.Fatalf("wrap fault = %v", f)
	}
}

func TestIOMMUIsolationBetweenDevices(t *testing.T) {
	u := NewIOMMU()
	xpu := pcie.MakeID(2, 0, 0)
	rogue := pcie.MakeID(3, 0, 0)
	u.Map(xpu, 0x1000, 0x1000, PermRead|PermWrite)
	if u.Check(rogue, 0x1000, 16, true) {
		t.Fatal("another device reached the mapping")
	}
}

func TestIOMMUUnmap(t *testing.T) {
	u := NewIOMMU()
	dev := pcie.MakeID(2, 0, 0)
	u.Map(dev, 0x1000, 0x1000, PermRead|PermWrite)
	u.Map(dev, 0x8000, 0x1000, PermRead)
	u.Unmap(dev, 0x1000, 0x1000)
	if u.Check(dev, 0x1000, 16, false) {
		t.Fatal("unmapped range still accessible")
	}
	if !u.Check(dev, 0x8000, 16, false) {
		t.Fatal("unrelated mapping lost")
	}
	u.Unmap(dev, 0, 1<<63)
	if u.Check(dev, 0x8000, 16, false) {
		t.Fatal("unmapping the whole space left a grant")
	}
}

func TestIOMMUMapBuffer(t *testing.T) {
	s := newTestSpace(t)
	b, _ := s.Alloc("bounce", "h2d", 8*PageSize)
	u := NewIOMMU()
	sc := pcie.MakeID(4, 0, 0)
	u.Map(sc, b.Base(), uint64(b.Size()), PermRead)
	if !u.Check(sc, b.Base()+100, 256, false) {
		t.Fatal("buffer mapping not honoured")
	}
}

func TestAccessorsAndSlice(t *testing.T) {
	s := newTestSpace(t)
	b, err := s.Alloc("tvm", "named", 2*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "named" {
		t.Fatalf("name = %q", b.Name())
	}
	copy(b.Bytes()[100:], []byte("window"))
	if string(b.Slice(100, 6)) != "window" {
		t.Fatal("Slice returned wrong view")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Slice did not panic")
		}
	}()
	b.Slice(2*PageSize-2, 8)
}

func TestPermAndFaultStrings(t *testing.T) {
	for _, p := range []Perm{PermRead, PermWrite, PermRead | PermWrite, 0} {
		if p.String() == "" {
			t.Fatal("empty perm string")
		}
	}
	f := Fault{Device: pcie.MakeID(3, 0, 0), Addr: 0x1234, Write: true}
	if f.String() == "" {
		t.Fatal("empty fault string")
	}
	fr := Fault{Device: pcie.MakeID(3, 0, 0), Addr: 0x1234, Write: false}
	if f.String() == fr.String() {
		t.Fatal("read/write faults indistinguishable")
	}
}

func TestPinnedBufferSurvivesFree(t *testing.T) {
	s := newTestSpace(t)
	b, err := s.Alloc("tvm", "kv", 8192)
	if err != nil {
		t.Fatal(err)
	}
	copy(b.Bytes(), []byte("kv-cache-resident"))
	b.Pin()
	if !b.Pinned() {
		t.Fatal("Pin did not stick")
	}
	s.Free(b) // must be a no-op while pinned
	if len(b.Bytes()) != 8192 {
		t.Fatal("pinned buffer lost its backing on Free")
	}
	if _, ok := s.Resolve(b.Base()); !ok {
		t.Fatal("pinned buffer unresolvable after Free")
	}
	if got := string(b.Slice(0, 17)); got != "kv-cache-resident" {
		t.Fatalf("pinned contents clobbered: %q", got)
	}
	b.Unpin()
	s.Free(b)
	if _, ok := s.Resolve(b.Base()); ok {
		t.Fatal("buffer still resolvable after Unpin+Free")
	}
}

// TestControlPathReadsDoNotAllocate pins the two allocation leaks the
// llm-decode object profile found on every control path: ReadUint64 (the
// ring producer's status/head/completion-word polls) and the free-list
// insert behind every Space.Free.
func TestControlPathReadsDoNotAllocate(t *testing.T) {
	s := newTestSpace(t)
	b, err := s.Alloc("bounce", "ring", PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(b.Base()+8, binary.LittleEndian.AppendUint64(nil, 0xfeed)); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if v, err := s.ReadUint64(b.Base() + 8); err != nil || v != 0xfeed {
			t.Fatalf("ReadUint64 = %#x, %v", v, err)
		}
	}); n != 0 {
		t.Fatalf("ReadUint64 allocates %v objects per call, want 0", n)
	}

	// An Alloc+Free pair costs the Buffer and nothing for the free list:
	// three live neighbours keep the list non-trivial (the freed span
	// lands between two others) and the backing comes from the spare pool.
	var keep [3]*Buffer
	for i := range keep {
		if keep[i], err = s.Alloc("bounce", "neighbour", PageSize); err != nil {
			t.Fatal(err)
		}
	}
	hole, _ := s.Alloc("bounce", "hole", PageSize)
	tail, _ := s.Alloc("bounce", "tail", PageSize)
	s.Free(keep[1])
	s.Free(hole)
	_ = tail
	if n := testing.AllocsPerRun(100, func() {
		x, err := s.Alloc("bounce", "step", 2*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		s.Free(x)
	}); n > 1 {
		t.Fatalf("Alloc+Free pair allocates %v objects, want 1 (the Buffer)", n)
	}
}

// refRelease is the parent implementation of regionAlloc.release —
// append, sort the whole list, re-coalesce — kept as the reference the
// in-place insert is compared against.
func refRelease(free []span, base uint64, size int64) []span {
	free = append(free, span{base: base, size: align(uint64(size))})
	sort.Slice(free, func(i, j int) bool { return free[i].base < free[j].base })
	out := free[:0]
	for _, f := range free {
		if n := len(out); n > 0 && out[n-1].base+out[n-1].size == f.base {
			out[n-1].size += f.size
		} else {
			out = append(out, f)
		}
	}
	return out
}

// TestFreeListProperty drives random alloc/free sequences through the
// allocator and through a twin whose release is the reference: after
// every operation the free list is sorted, coalesced and overlap-free,
// and both allocators hand out the same first-fit addresses.
func TestFreeListProperty(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewRand(seed)
		got := &regionAlloc{base: 0x1000_0000, size: 256 * PageSize, next: 0x1000_0000}
		ref := &regionAlloc{base: got.base, size: got.size, next: got.next}
		type live struct {
			base uint64
			size int64
		}
		var held []live
		for op := 0; op < 2000; op++ {
			if len(held) == 0 || rng.Intn(5) < 3 {
				size := int64(1 + rng.Intn(6*PageSize))
				a, errA := got.alloc(size)
				b, errB := ref.alloc(size)
				if (errA == nil) != (errB == nil) || a != b {
					t.Fatalf("seed %d op %d: alloc(%d) = %#x/%v, reference %#x/%v", seed, op, size, a, errA, b, errB)
				}
				if errA == nil {
					held = append(held, live{a, size})
				}
			} else {
				i := rng.Intn(len(held))
				h := held[i]
				held = append(held[:i], held[i+1:]...)
				got.release(h.base, h.size)
				ref.free = refRelease(ref.free, h.base, h.size)
			}
			if len(got.free) != len(ref.free) {
				t.Fatalf("seed %d op %d: free list %v, reference %v", seed, op, got.free, ref.free)
			}
			for i, f := range got.free {
				if f != ref.free[i] {
					t.Fatalf("seed %d op %d: free[%d] = %v, reference %v", seed, op, i, f, ref.free[i])
				}
				if i > 0 && got.free[i-1].base+got.free[i-1].size >= f.base {
					t.Fatalf("seed %d op %d: spans %v and %v unsorted, overlapping or uncoalesced", seed, op, got.free[i-1], f)
				}
			}
		}
	}
}
