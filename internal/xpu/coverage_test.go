package xpu

import (
	"encoding/binary"
	"strings"
	"testing"

	"ccai/internal/pcie"
)

func TestClassAndProfileStrings(t *testing.T) {
	if GPU.String() != "GPU" || NPU.String() != "NPU" || FPGAAcc.String() != "FPGA-Acc" {
		t.Fatal("class strings wrong")
	}
	if Class(9).String() == "" {
		t.Fatal("unknown class empty")
	}
	if A100.String() != "A100" {
		t.Fatalf("profile string = %q", A100)
	}
}

func TestDeviceAccessors(t *testing.T) {
	d := NewDevice(T4, pcie.MakeID(2, 0, 0), 0xf000_0000, 0)
	if d.Profile().Name != "T4" {
		t.Fatal("profile lost")
	}
	if id := cfgRead(t, d, pcie.CfgVendorID); uint16(id) != T4.VendorID {
		t.Fatal("config identity wrong")
	}
	bar := d.BAR0()
	if bar.Base != 0xf000_0000 || bar.Size != BAR0Size {
		t.Fatalf("BAR0 = %+v", bar)
	}
	if !strings.Contains(bar.Name, "T4") {
		t.Fatalf("bar name = %q", bar.Name)
	}
	// functionalMem <= 0 defaults to 1 MiB.
	if len(d.DevMem()) != 1<<20 {
		t.Fatalf("default devmem = %d", len(d.DevMem()))
	}
}

func TestDeviceRejectsUnknownTLP(t *testing.T) {
	d := NewDevice(A100, pcie.MakeID(2, 0, 0), 0xf000_0000, 1<<16)
	bogus := &pcie.Packet{Header: pcie.Header{Kind: pcie.Cpl, Requester: pcie.MakeID(0, 0, 0)}}
	if cpl := d.Handle(bogus); cpl == nil || cpl.Status != pcie.CplUR {
		t.Fatalf("stray completion handled: %v", cpl)
	}
}

func TestDeviceAbsorbsMessages(t *testing.T) {
	d := NewDevice(A100, pcie.MakeID(2, 0, 0), 0xf000_0000, 1<<16)
	if cpl := d.Handle(&pcie.Packet{Header: pcie.Header{Kind: pcie.Msg, Requester: pcie.MakeID(0, 0, 0), Address: 0x19}}); cpl != nil {
		t.Fatal("message produced a completion")
	}
}

func TestDeviceConfigWriteViaTLP(t *testing.T) {
	d := NewDevice(A100, pcie.MakeID(2, 0, 0), 0xf000_0000, 1<<16)
	wr := &pcie.Packet{
		Header:  pcie.Header{Kind: pcie.CfgWr, Requester: pcie.MakeID(0, 0, 0), Completer: d.DeviceID(), Address: 0x40, Length: 4},
		Payload: []byte{0xef, 0xbe, 0xad, 0xde},
	}
	if cpl := d.Handle(wr); cpl == nil || cpl.Status != pcie.CplSuccess {
		t.Fatal("config write failed")
	}
	if cfgRead(t, d, 0x40) != 0xdeadbeef {
		t.Fatal("config write lost")
	}
}

// cfgRead reads one config-space word the way the host does: a type-0
// configuration read routed to the device.
func cfgRead(t *testing.T, d *Device, off uint64) uint32 {
	t.Helper()
	rd := &pcie.Packet{Header: pcie.Header{Kind: pcie.CfgRd, Requester: pcie.MakeID(0, 0, 0), Completer: d.DeviceID(), Address: off, Length: 4}}
	cpl := d.Handle(rd)
	if cpl == nil || cpl.Status != pcie.CplSuccess || len(cpl.Payload) != 4 {
		t.Fatalf("config read of %#x: %v", off, cpl)
	}
	return binary.LittleEndian.Uint32(cpl.Payload)
}

func TestPumpWithoutUpstreamFaults(t *testing.T) {
	d := NewDevice(A100, pcie.MakeID(2, 0, 0), 0xf000_0000, 1<<16)
	// Ring a doorbell with no upstream wired: device must fault, not
	// crash.
	d.Handle(pcie.NewMemWrite(pcie.MakeID(0, 0, 0), 0xf000_0000+RegDoorbell, []byte{1, 0, 0, 0, 0, 0, 0, 0}))
	if d.Faults() != 1 {
		t.Fatalf("faults = %d", d.Faults())
	}
}

func TestPumpBadRingGeometryFaults(t *testing.T) {
	d := NewDevice(A100, pcie.MakeID(2, 0, 0), 0xf000_0000, 1<<16)
	d.SetUpstream(func(p *pcie.Packet) *pcie.Packet { return nil })
	wr64 := func(reg, v uint64) {
		buf := make([]byte, 8)
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		d.Handle(pcie.NewMemWrite(pcie.MakeID(0, 0, 0), 0xf000_0000+reg, buf))
	}
	wr64(RegCmdSize, 1<<20) // absurd ring size
	wr64(RegCmdTail, 1)
	wr64(RegDoorbell, 1)
	if d.Faults() == 0 {
		t.Fatal("bad ring geometry accepted")
	}
}

func TestSoftResetClearsIndices(t *testing.T) {
	d := NewDevice(A100, pcie.MakeID(2, 0, 0), 0xf000_0000, 1<<16)
	wr64 := func(reg, v uint64) {
		buf := make([]byte, 8)
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		d.Handle(pcie.NewMemWrite(pcie.MakeID(0, 0, 0), 0xf000_0000+reg, buf))
	}
	wr64(RegCmdTail, 7)
	wr64(RegReset, ResetSoft)
	cpl := d.Handle(pcie.NewMemRead(pcie.MakeID(0, 0, 0), 0xf000_0000+RegCmdTail, 8, 0))
	for _, b := range cpl.Payload {
		if b != 0 {
			t.Fatal("soft reset left tail")
		}
	}
}

func TestColdBootRestoresIdentity(t *testing.T) {
	d := NewDevice(S60, pcie.MakeID(2, 0, 0), 0xf000_0000, 1<<16)
	wr64 := func(reg, v uint64) {
		buf := make([]byte, 8)
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		d.Handle(pcie.NewMemWrite(pcie.MakeID(0, 0, 0), 0xf000_0000+reg, buf))
	}
	wr64(RegReset, ResetCold)
	cpl := d.Handle(pcie.NewMemRead(pcie.MakeID(0, 0, 0), 0xf000_0000+RegID, 8, 0))
	var id uint64
	for i := 0; i < 8; i++ {
		id |= uint64(cpl.Payload[i]) << (8 * i)
	}
	if uint16(id) != S60.VendorID {
		t.Fatalf("identity after cold boot = %#x", id)
	}
	if d.ColdBoots() != 1 {
		t.Fatal("cold boot not counted")
	}
}

func TestKernelBoundsChecks(t *testing.T) {
	d := NewDevice(A100, pcie.MakeID(2, 0, 0), 0xf000_0000, 4096)
	if d.kernel(Command{Op: OpKernel, Param: KernelVecAddConst << 16, Src: 4000, Dst: 0, Len: 200}) {
		t.Fatal("out-of-bounds kernel ran")
	}
	if d.kernel(Command{Op: OpKernel, Param: KernelChecksum << 16, Src: 0, Dst: 0, Len: 4}) {
		t.Fatal("checksum with <8-byte output ran")
	}
	if d.kernel(Command{Op: OpKernel, Param: 0x7f << 16, Src: 0, Dst: 0, Len: 8}) {
		t.Fatal("unknown kernel id ran")
	}
}
