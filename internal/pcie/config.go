package pcie

import "encoding/binary"

// ConfigSpace models a type-0 PCIe configuration header plus a small
// extended region. ccAI never modifies device config spaces (that's the
// compatibility promise), but enumeration, BAR assignment and the
// PCIe-SC's own Upstream BAR policy window all live here.
type ConfigSpace struct {
	raw [4096]byte
}

// Standard config-space register offsets (type-0 header).
const (
	CfgVendorID   = 0x00
	CfgDeviceID   = 0x02
	CfgCommand    = 0x04
	CfgStatus     = 0x06
	CfgClassCode  = 0x09
	CfgBAR0       = 0x10
	CfgBAR1       = 0x14
	CfgBAR2       = 0x18
	CfgBAR3       = 0x1c
	CfgBAR4       = 0x20
	CfgBAR5       = 0x24
	CfgSubsysID   = 0x2e
	CfgCapPointer = 0x34
)

// Command register bits.
const (
	CmdMemorySpace = 1 << 1 // respond to memory-space accesses
	CmdBusMaster   = 1 << 2 // may initiate DMA
)

// NewConfigSpace initializes a config space with vendor/device identity.
func NewConfigSpace(vendor, device uint16, classCode uint32) *ConfigSpace {
	c := &ConfigSpace{}
	binary.LittleEndian.PutUint16(c.raw[CfgVendorID:], vendor)
	binary.LittleEndian.PutUint16(c.raw[CfgDeviceID:], device)
	c.raw[CfgClassCode] = byte(classCode)
	c.raw[CfgClassCode+1] = byte(classCode >> 8)
	c.raw[CfgClassCode+2] = byte(classCode >> 16)
	return c
}

// Read32 reads a 32-bit register at the DW-aligned offset.
func (c *ConfigSpace) Read32(off uint16) uint32 {
	off &^= 3
	return binary.LittleEndian.Uint32(c.raw[off:])
}

// Write32 writes a 32-bit register at the DW-aligned offset.
func (c *ConfigSpace) Write32(off uint16, v uint32) {
	off &^= 3
	binary.LittleEndian.PutUint32(c.raw[off:], v)
}

// SetBAR programs BAR n (0-5) with a 64-bit base address; the size is
// tracked by the owning device model, not the register file.
func (c *ConfigSpace) SetBAR(n int, base uint64) {
	if n < 0 || n > 5 {
		panic("pcie: BAR index out of range")
	}
	off := uint16(CfgBAR0 + 4*n)
	binary.LittleEndian.PutUint32(c.raw[off:], uint32(base)|0x4) // 64-bit memory BAR
	if n < 5 {
		binary.LittleEndian.PutUint32(c.raw[off+4:], uint32(base>>32))
	}
}

// EnableMaster sets/clears bus-mastering (DMA) capability. The IOMMU and
// the PCIe-SC both honour this bit.
func (c *ConfigSpace) EnableMaster(on bool) {
	cmd := binary.LittleEndian.Uint16(c.raw[CfgCommand:])
	if on {
		cmd |= CmdBusMaster | CmdMemorySpace
	} else {
		cmd &^= CmdBusMaster
	}
	binary.LittleEndian.PutUint16(c.raw[CfgCommand:], cmd)
}
