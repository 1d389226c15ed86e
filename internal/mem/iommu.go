package mem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ccai/internal/pcie"
)

// Perm is an IOMMU mapping permission mask.
type Perm uint8

const (
	// PermRead allows the device to DMA-read the range.
	PermRead Perm = 1 << iota
	// PermWrite allows the device to DMA-write the range.
	PermWrite
)

func (p Perm) String() string {
	switch p {
	case PermRead:
		return "r-"
	case PermWrite:
		return "-w"
	case PermRead | PermWrite:
		return "rw"
	}
	return "--"
}

// IOMMU restricts device-initiated accesses to host memory. The paper's
// threat model has the (untrusted) privileged software configure the
// IOMMU to keep devices out of TVM private memory; ccAI relies on that
// existing setting unchanged (§8.1 "ccAI follows existing IOMMU
// settings"). The TVM's private pages are simply never mapped for any
// device, while bounce buffers are mapped for the PCIe-SC only.
//
// Methods are safe for concurrent use. The grants live in an immutable
// table, each grant naming its device, swapped atomically by Map, Unmap
// and UnmapAll under the mutex, so Check — every DMA the host bridge
// terminates — reads it without a lock. Grants are few (a window or two
// per SC or device), so Check scans them. The exported Faults slice is
// guarded by the mutex and should be read only after the traffic under
// test has quiesced (as the security tests do).
type IOMMU struct {
	mu     sync.Mutex
	grants atomic.Pointer[[]grant]
	// Faults records rejected accesses for the security tests.
	Faults []Fault
}

type grant struct {
	dev        pcie.ID
	base, size uint64
	perm       Perm
}

// Fault describes one blocked device access.
type Fault struct {
	Device pcie.ID
	Addr   uint64
	Write  bool
}

func (f Fault) String() string {
	op := "read"
	if f.Write {
		op = "write"
	}
	return fmt.Sprintf("iommu fault: %v %s @%#x", f.Device, op, f.Addr)
}

// NewIOMMU returns an IOMMU with no mappings (default-deny).
func NewIOMMU() *IOMMU {
	u := &IOMMU{}
	u.grants.Store(new([]grant))
	return u
}

// Map grants device access to [base, base+size) with the given
// permissions.
func (u *IOMMU) Map(dev pcie.ID, base, size uint64, perm Perm) {
	u.mu.Lock()
	defer u.mu.Unlock()
	next := append(append([]grant(nil), *u.grants.Load()...), grant{dev: dev, base: base, size: size, perm: perm})
	u.grants.Store(&next)
}

// Unmap revokes every mapping of dev that intersects [base, base+size).
// A test seam: the platform maps once and never revokes, and
// TestLockFreeReadersUnderChurn races it against the lock-free Check.
func (u *IOMMU) Unmap(dev pcie.ID, base, size uint64) {
	u.mu.Lock()
	defer u.mu.Unlock()
	var kept []grant
	for _, g := range *u.grants.Load() {
		if !(g.dev == dev && base < g.base+g.size && g.base < base+size) {
			kept = append(kept, g)
		}
	}
	u.grants.Store(&kept)
}

// Check validates one device access and records a fault when denied.
// The grant path (every legitimate DMA) takes no lock; the mutex is
// taken solely to record a fault. A negative size, or a range that
// wraps past the top of the address space, is denied like any other
// access outside the grants.
func (u *IOMMU) Check(dev pcie.ID, addr uint64, size int64, write bool) bool {
	need := PermRead
	if write {
		need = PermWrite
	}
	if end := addr + uint64(size); size >= 0 && end >= addr {
		for _, g := range *u.grants.Load() {
			// end-g.base cannot wrap once addr >= g.base, and comparing
			// it with g.size never forms g.base+g.size.
			if g.dev == dev && addr >= g.base && end-g.base <= g.size && g.perm&need != 0 {
				return true
			}
		}
	}
	u.mu.Lock()
	u.Faults = append(u.Faults, Fault{Device: dev, Addr: addr, Write: write})
	u.mu.Unlock()
	return false
}
