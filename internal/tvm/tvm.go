// Package tvm models the Trusted VM side of the platform: guest
// memory split into TVM-private and shared (bounce) regions, and the
// *unmodified* native xPU driver stack. ccAI's compatibility promise
// (G1) is that this driver issues exactly the same register writes and
// command-ring traffic whether it runs vanilla or behind the PCIe-SC;
// the only difference is which Port implementation carries its MMIO and
// which allocator hands out its DMA buffers. Both indirections exist in
// real kernels (ioremap'd accessors and dma_map_ops), which is how the
// paper's Adaptor hooks in without driver changes.
package tvm

import (
	"fmt"

	"ccai/internal/mem"
	"ccai/internal/obsv"
	"ccai/internal/pcie"
	"ccai/internal/xpu"
)

// Port carries the driver's MMIO accesses to device BAR0 registers.
type Port interface {
	WriteReg(reg uint64, v uint64) error
	ReadReg(reg uint64) (uint64, error)
}

// DirectPort is the vanilla implementation: raw TLPs on the host bus.
type DirectPort struct {
	ID   pcie.ID
	Bus  *pcie.Bus
	BAR0 uint64
}

// WriteReg issues a posted MMIO write.
func (p *DirectPort) WriteReg(reg uint64, v uint64) error {
	buf := make([]byte, 8)
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	p.Bus.Route(pcie.NewMemWrite(p.ID, p.BAR0+reg, buf).WithRole(pcie.RoleGuardedWrite))
	return nil
}

// ReadReg issues a non-posted MMIO read.
func (p *DirectPort) ReadReg(reg uint64) (uint64, error) {
	cpl := p.Bus.Route(pcie.NewMemRead(p.ID, p.BAR0+reg, 8, 0).WithRole(pcie.RoleRegRead))
	if cpl == nil || cpl.Status != pcie.CplSuccess {
		return 0, fmt.Errorf("tvm: MMIO read of %#x failed", reg)
	}
	var v uint64
	for i := 0; i < 8 && i < len(cpl.Payload); i++ {
		v |= uint64(cpl.Payload[i]) << (8 * i)
	}
	return v, nil
}

// Guest is one TVM's memory environment.
type Guest struct {
	ID    pcie.ID
	Space *mem.Space
}

// Region names inside a guest's address space.
const (
	// PrivateRegion is TVM-encrypted memory no device can reach.
	PrivateRegion = "private"
	// SharedRegion is the bounce-buffer window (same name the Adaptor
	// uses); the IOMMU maps it for the PCIe-SC only.
	SharedRegion = "shared"
)

// NewGuest builds a guest with private and shared windows.
func NewGuest(id pcie.ID, privateBase, privateSize, sharedBase, sharedSize uint64) (*Guest, error) {
	s := mem.NewSpace()
	if err := s.AddRegion(PrivateRegion, privateBase, privateSize); err != nil {
		return nil, err
	}
	if err := s.AddRegion(SharedRegion, sharedBase, sharedSize); err != nil {
		return nil, err
	}
	return &Guest{ID: id, Space: s}, nil
}

// Driver is the native xPU driver model. Its logic is identical for
// every device in the fleet (the functional register map is shared) and
// for every deployment (vanilla or ccAI).
type Driver struct {
	port Port
	// ring is the command ring's host memory. Under ccAI this is a
	// bounce region the Adaptor registered as Write Protected (A3);
	// vanilla it is ordinary DMA-able memory.
	ring     *mem.Buffer
	space    *mem.Space
	ringSize uint64
	tail     uint64
	// preDoorbell runs just before the doorbell write with the ring
	// chunk indices about to be consumed; ccAI's platform glue uses it
	// to carry those commands to the SC. Vanilla leaves it nil.
	preDoorbell func(chunks []uint32) error
	// chunks is Submit's slot-index list, reused call to call: the
	// preDoorbell hook does not retain it, and the driver's owner
	// serializes its calls.
	chunks []uint32

	obs driverObs
}

// The driver's span sites and attribute keys, resolved once.
var (
	siteSubmit = obsv.NewSite(obsv.TrackDriver, "submit")
	siteKick   = obsv.NewSite(obsv.TrackDriver, "kick")
	keyCmds    = obsv.NewKey("cmds")
	keyTail    = obsv.NewKey("tail")
)

// driverObs caches the driver's observability handles; the zero value
// is the uninstrumented state.
type driverObs struct {
	tracer  *obsv.Tracer
	submits *obsv.Counter
	kicks   *obsv.Counter
}

// SetObserver instruments the driver; a nil hub clears it.
func (d *Driver) SetObserver(h *obsv.Hub) {
	if h == nil {
		d.obs = driverObs{}
		return
	}
	d.obs = driverObs{
		tracer:  h.T(),
		submits: h.Reg().Counter("driver.submits"),
		kicks:   h.Reg().Counter("driver.kicks"),
	}
}

// NewDriver initializes the driver against a port and a ring buffer of
// entries command slots.
func NewDriver(port Port, space *mem.Space, ring *mem.Buffer, entries uint64) (*Driver, error) {
	if uint64(ring.Size()) < entries*xpu.CmdSize {
		return nil, fmt.Errorf("tvm: ring buffer too small for %d entries", entries)
	}
	d := &Driver{port: port, ring: ring, space: space, ringSize: entries}
	if err := port.WriteReg(xpu.RegCmdBase, ring.Base()); err != nil {
		return nil, err
	}
	if err := port.WriteReg(xpu.RegCmdSize, entries); err != nil {
		return nil, err
	}
	return d, nil
}

// SetPreDoorbell installs the ccAI ring-sync hook.
func (d *Driver) SetPreDoorbell(fn func(chunks []uint32) error) { d.preDoorbell = fn }

// ConfigureMSI points the device's interrupt writes at the given host
// address/payload.
func (d *Driver) ConfigureMSI(addr uint64, data uint32) error {
	if err := d.port.WriteReg(xpu.RegMSIAddr, addr); err != nil {
		return err
	}
	return d.port.WriteReg(xpu.RegMSIData, uint64(data))
}

// Submit writes commands into the ring and rings the doorbell.
func (d *Driver) Submit(cmds ...xpu.Command) error {
	sp := d.obs.tracer.Start(siteSubmit, keyCmds.I64(int64(len(cmds))))
	defer sp.End()
	d.obs.submits.Inc()
	d.chunks = d.chunks[:0]
	for _, c := range cmds {
		slot := d.tail % d.ringSize
		addr := d.ring.Base() + slot*xpu.CmdSize
		if err := d.space.Write(addr, c.Marshal()); err != nil {
			return fmt.Errorf("tvm: ring write: %w", err)
		}
		d.chunks = append(d.chunks, uint32(slot))
		d.tail++
	}
	if d.preDoorbell != nil {
		if err := d.preDoorbell(d.chunks); err != nil {
			return err
		}
	}
	if err := d.port.WriteReg(xpu.RegCmdTail, d.tail); err != nil {
		return err
	}
	return d.port.WriteReg(xpu.RegDoorbell, 1)
}

// Kick recovers a stalled submission: it re-reads the device's head,
// re-runs the pre-doorbell hook for every not-yet-consumed slot (ccAI's
// SC serves each run it holds once, so a re-read after a lost doorbell
// needs the run carried again), rewrites the tail register and rings
// the doorbell again. Safe when nothing is pending — the device ignores a doorbell
// with head == tail.
func (d *Driver) Kick() error {
	sp := d.obs.tracer.Start(siteKick, keyTail.U64(d.tail))
	defer sp.End()
	d.obs.kicks.Inc()
	head, err := d.Head()
	if err != nil {
		return fmt.Errorf("tvm: kick: %w", err)
	}
	if d.preDoorbell != nil && head < d.tail {
		chunks := make([]uint32, 0, d.tail-head)
		for i := head; i < d.tail; i++ {
			chunks = append(chunks, uint32(i%d.ringSize))
		}
		if err := d.preDoorbell(chunks); err != nil {
			return fmt.Errorf("tvm: kick: %w", err)
		}
	}
	if err := d.port.WriteReg(xpu.RegCmdTail, d.tail); err != nil {
		return err
	}
	return d.port.WriteReg(xpu.RegDoorbell, 1)
}

// Head reads the device's consumption index.
func (d *Driver) Head() (uint64, error) { return d.port.ReadReg(xpu.RegCmdHead) }

// Status reads the device status register.
func (d *Driver) Status() (uint64, error) { return d.port.ReadReg(xpu.RegStatus) }

// Tail reports the driver-side production index.
func (d *Driver) Tail() uint64 { return d.tail }
