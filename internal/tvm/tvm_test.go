package tvm

import (
	"encoding/binary"
	"testing"

	"ccai/internal/mem"
	"ccai/internal/pcie"
	"ccai/internal/xpu"
)

func newGuestWithDevice(t *testing.T) (*Guest, *xpu.Device, *pcie.Bus) {
	t.Helper()
	g, err := NewGuest(pcie.MakeID(0, 1, 0), 0x1000_0000, 16<<20, 0x8000_0000, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	bus := pcie.NewBus("host")
	dev := xpu.NewDevice(xpu.A100, pcie.MakeID(2, 0, 0), 0xd000_0000, 1<<16)
	bus.Attach(dev)
	if err := bus.Claim(dev.DeviceID(), dev.BAR0()); err != nil {
		t.Fatal(err)
	}
	// Bridge for device DMA into guest shared memory.
	bridge := &testBridge{space: g.Space}
	bus.Attach(bridge)
	if err := bus.Claim(bridge.DeviceID(), pcie.Region{Base: 0x8000_0000, Size: 16 << 20, Name: "shared"}); err != nil {
		t.Fatal(err)
	}
	dev.SetUpstream(func(p *pcie.Packet) *pcie.Packet { return bus.Route(p) })
	return g, dev, bus
}

type testBridge struct{ space *mem.Space }

func (b *testBridge) DeviceID() pcie.ID { return pcie.MakeID(0, 0, 0) }
func (b *testBridge) Handle(p *pcie.Packet) *pcie.Packet {
	switch p.Kind {
	case pcie.MRd:
		data, err := b.space.Read(p.Address, int64(p.Length))
		if err != nil {
			return pcie.NewCompletion(p, b.DeviceID(), pcie.CplUR, nil)
		}
		return pcie.NewCompletion(p, b.DeviceID(), pcie.CplSuccess, data)
	case pcie.MWr:
		_ = b.space.Write(p.Address, p.Payload)
	}
	return nil
}

func newTestDriver(t *testing.T) (*Driver, *Guest, *xpu.Device) {
	t.Helper()
	g, dev, bus := newGuestWithDevice(t)
	ring, err := g.Space.Alloc(SharedRegion, "ring", 32*xpu.CmdSize)
	if err != nil {
		t.Fatal(err)
	}
	port := &DirectPort{ID: g.ID, Bus: bus, BAR0: 0xd000_0000}
	d, err := NewDriver(port, g.Space, ring, 32)
	if err != nil {
		t.Fatal(err)
	}
	return d, g, dev
}

func TestGuestRegions(t *testing.T) {
	g, err := NewGuest(pcie.MakeID(0, 1, 0), 0x1000, 0x10000, 0x100000, 0x10000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Space.Alloc(PrivateRegion, "p", 4096); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Space.Alloc(SharedRegion, "s", 4096); err != nil {
		t.Fatal(err)
	}
	// Overlapping windows rejected.
	if _, err := NewGuest(pcie.MakeID(0, 1, 0), 0x1000, 0x10000, 0x2000, 0x10000); err == nil {
		t.Fatal("overlapping guest windows accepted")
	}
}

func TestDirectPortReadWrite(t *testing.T) {
	_, dev, bus := newGuestWithDevice(t)
	port := &DirectPort{ID: pcie.MakeID(0, 1, 0), Bus: bus, BAR0: 0xd000_0000}
	if err := port.WriteReg(xpu.RegScratch, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	v, err := port.ReadReg(xpu.RegScratch)
	if err != nil || v != 0x1122334455667788 {
		t.Fatalf("ReadReg = %#x, %v", v, err)
	}
	_ = dev
	// Reads outside any claim fail cleanly.
	bad := &DirectPort{ID: pcie.MakeID(0, 1, 0), Bus: bus, BAR0: 0xdead_0000}
	if _, err := bad.ReadReg(0); err == nil {
		t.Fatal("unclaimed read succeeded")
	}
}

func TestDriverBringUpProgramsRing(t *testing.T) {
	d, _, dev := newTestDriver(t)
	_ = d
	// The device's ring registers must match the driver's buffer.
	cpl := dev.Handle(pcie.NewMemRead(pcie.MakeID(0, 1, 0), 0xd000_0000+xpu.RegCmdSize, 8, 0))
	if binary.LittleEndian.Uint64(cpl.Payload) != 32 {
		t.Fatal("ring size not programmed")
	}
}

func TestDriverSubmitExecutes(t *testing.T) {
	d, g, dev := newTestDriver(t)
	src, _ := g.Space.Alloc(SharedRegion, "in", 4096)
	copy(src.Bytes(), []byte("driver path"))
	if err := d.Submit(
		xpu.Command{Op: xpu.OpCopyH2D, Src: src.Base(), Dst: 0, Len: 11},
	); err != nil {
		t.Fatal(err)
	}
	if string(dev.DevMem()[:11]) != "driver path" {
		t.Fatalf("device memory = %q", dev.DevMem()[:11])
	}
	head, err := d.Head()
	if err != nil || head != 1 {
		t.Fatalf("head = %d, %v", head, err)
	}
	if d.Tail() != 1 {
		t.Fatalf("tail = %d", d.Tail())
	}
}

func TestDriverRingWraps(t *testing.T) {
	d, _, dev := newTestDriver(t)
	for i := 0; i < 40; i++ { // > 32 entries
		if err := d.Submit(xpu.Command{Op: xpu.OpNop}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	head, _ := d.Head()
	if head != 40 {
		t.Fatalf("head = %d, want 40", head)
	}
	if dev.Faults() != 0 {
		t.Fatalf("faults = %d", dev.Faults())
	}
}

func TestDriverPreDoorbellHookSeesChunks(t *testing.T) {
	d, _, _ := newTestDriver(t)
	var got [][]uint32
	d.SetPreDoorbell(func(chunks []uint32) error {
		got = append(got, append([]uint32(nil), chunks...))
		return nil
	})
	if err := d.Submit(xpu.Command{Op: xpu.OpNop}, xpu.Command{Op: xpu.OpNop}); err != nil {
		t.Fatal(err)
	}
	if err := d.Submit(xpu.Command{Op: xpu.OpNop}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || len(got[0]) != 2 || got[0][0] != 0 || got[0][1] != 1 || got[1][0] != 2 {
		t.Fatalf("hook chunks = %v", got)
	}
}

func TestDriverInterruptFlow(t *testing.T) {
	d, _, _ := newTestDriver(t)
	if err := d.Submit(xpu.Command{Op: xpu.OpFence}); err != nil {
		t.Fatal(err)
	}
	st, err := d.port.ReadReg(xpu.RegIntStatus)
	if err != nil || st&xpu.IntCmdDone == 0 {
		t.Fatalf("int status = %#x, %v", st, err)
	}
	if err := d.port.WriteReg(xpu.RegIntStatus, xpu.IntCmdDone); err != nil { // write-1-to-clear
		t.Fatal(err)
	}
	st, _ = d.port.ReadReg(xpu.RegIntStatus)
	if st&xpu.IntCmdDone != 0 {
		t.Fatal("ack did not clear")
	}
}

func TestDriverResetRoundTrip(t *testing.T) {
	d, _, dev := newTestDriver(t)
	if err := d.Submit(xpu.Command{Op: xpu.OpNop}); err != nil {
		t.Fatal(err)
	}
	if err := d.port.WriteReg(xpu.RegReset, xpu.ResetEnv); err != nil {
		t.Fatal(err)
	}
	if dev.EnvResets() != 1 {
		t.Fatalf("env resets = %d", dev.EnvResets())
	}
}

func TestNewDriverValidatesRingSize(t *testing.T) {
	g, _, bus := newGuestWithDevice(t)
	tiny, _ := g.Space.Alloc(SharedRegion, "tiny", xpu.CmdSize)
	port := &DirectPort{ID: g.ID, Bus: bus, BAR0: 0xd000_0000}
	if _, err := NewDriver(port, g.Space, tiny, 16); err == nil {
		t.Fatal("undersized ring accepted")
	}
}

func TestDriverStatusAndMSI(t *testing.T) {
	d, _, dev := newTestDriver(t)
	st, err := d.Status()
	if err != nil || st&xpu.StatusReady == 0 {
		t.Fatalf("status = %#x, %v", st, err)
	}
	if err := d.ConfigureMSI(0xfee0_0000, 0x99); err != nil {
		t.Fatal(err)
	}
	cpl := dev.Handle(pcie.NewMemRead(pcie.MakeID(0, 1, 0), 0xd000_0000+xpu.RegMSIData, 8, 0))
	if cpl.Payload[0] != 0x99 {
		t.Fatal("MSI data not programmed")
	}
}
