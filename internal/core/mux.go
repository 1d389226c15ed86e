package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ccai/internal/pcie"
)

// Mux implements the paper's §9 extension "PCIe-SC for multiple xPUs
// and users": one physical security controller serving several
// (TVM, xPU) pairs. Each pair gets an isolated unit — its own Packet
// Filter policies, stream keys and transfer regions with their tag records — and
// the mux is every unit's host-side presence: host packets reach a unit
// by target address (control BAR or xPU shadow window). Device-side
// traffic never crosses the mux; each unit's own internal segment
// carries it. A single-xPU platform is a mux with one unit. Unit
// controllers present distinct function numbers upstream, so host
// software sees them as virtual functions of one device.
// Dispatch takes no lock, so tenants routed to different units proceed
// in parallel; AddUnit (assembly-time) is the sole writer.
type Mux struct {
	id pcie.ID

	// mu serializes AddUnit.
	mu sync.Mutex
	// table is the registered slices. AddUnit publishes a new slice under
	// mu and never changes a published one, so Handle reads it with no
	// lock.
	table atomic.Pointer[[]*MuxUnit]
}

// MuxUnit is one isolated (TVM, xPU) slice of the controller.
type MuxUnit struct {
	Ctrl *Controller
	// Bar is the unit's control window; Window the shadowed xPU BAR.
	Bar, Window pcie.Region
	// XPU is the device this unit guards; TVM its authorized owner.
	XPU pcie.ID
	TVM pcie.ID
}

// NewMux creates an empty multi-unit controller with the given primary
// upstream identity.
func NewMux(id pcie.ID) *Mux {
	m := &Mux{id: id}
	m.table.Store(new([]*MuxUnit))
	return m
}

// units is the published unit list.
func (m *Mux) units() []*MuxUnit { return *m.table.Load() }

// DeviceID implements pcie.Endpoint.
func (m *Mux) DeviceID() pcie.ID { return m.id }

// AddUnit registers a slice and pins its controller's control BAR to
// the slice's TVM. The unit's controller must already be attached
// (Controller.Attach) — so every controller reachable from a host bus
// is both wired and pinned; the caller claims Bar and Window for the
// mux on the host bus.
func (m *Mux) AddUnit(u *MuxUnit) error {
	if u.Ctrl == nil || u.Ctrl.internal == nil {
		return fmt.Errorf("core: mux unit without an attached controller")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	units := m.units()
	for _, e := range units {
		if e.XPU == u.XPU {
			return fmt.Errorf("core: xPU %v already sliced", u.XPU)
		}
		if e.TVM == u.TVM {
			return fmt.Errorf("core: TVM %v already owns a slice", u.TVM)
		}
	}
	u.Ctrl.authorizedTVM = u.TVM
	next := append(slices.Clip(units), u)
	m.table.Store(&next)
	return nil
}

// Handle implements pcie.Endpoint for host-side traffic: the packet's
// target address selects the unit; anything outside every unit's
// windows is rejected.
func (m *Mux) Handle(p *pcie.Packet) *pcie.Packet {
	for _, u := range m.units() {
		if u.Bar.Contains(p.Address) || u.Window.Contains(p.Address) {
			return u.Ctrl.Handle(p)
		}
	}
	if p.Kind == pcie.MRd || p.Kind == pcie.CfgRd || p.Kind == pcie.CfgWr {
		return pcie.NewCompletion(p, m.id, pcie.CplUR, nil)
	}
	return nil
}
