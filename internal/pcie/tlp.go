// Package pcie implements the software PCIe fabric on which ccAI's
// interposition operates: Transaction Layer Packets (TLPs) with real
// byte-level serialization, requester/completer routing through a root
// complex and switches, link bandwidth/latency models, and per-device
// configuration space.
//
// This is the substrate substitute for the paper's physical PCIe bus
// (DESIGN.md §2): the PCIe Security Controller inspects exactly the
// header attributes described in §2.1 of the paper — format, type,
// requester/completer IDs, address, length — and they are carried here
// in spec-shaped 3DW/4DW headers.
package pcie

import (
	"encoding/binary"
	"fmt"
)

// ID is a PCIe requester/completer identifier: 8-bit bus, 5-bit device,
// 3-bit function packed into 16 bits, as on the wire.
type ID uint16

// MakeID packs bus/device/function numbers into an ID.
func MakeID(bus, dev, fn uint8) ID {
	return ID(uint16(bus)<<8 | uint16(dev&0x1f)<<3 | uint16(fn&0x7))
}

// Bus reports the bus number component.
func (id ID) Bus() uint8 { return uint8(id >> 8) }

// Device reports the device number component.
func (id ID) Device() uint8 { return uint8(id>>3) & 0x1f }

// Function reports the function number component.
func (id ID) Function() uint8 { return uint8(id) & 0x7 }

func (id ID) String() string {
	return fmt.Sprintf("%02x:%02x.%d", id.Bus(), id.Device(), id.Function())
}

// Kind identifies the transaction type of a TLP. The constants cover the
// subset of the PCIe transaction layer that DMA/MMIO traffic uses, which
// is the subset the paper's Packet Filter classifies.
type Kind uint8

const (
	// MRd is a memory read request (MMIO read or DMA read).
	MRd Kind = iota
	// MWr is a posted memory write request (MMIO write or DMA write).
	MWr
	// Cpl is a completion without data (for writes needing status, or
	// error completions).
	Cpl
	// CplD is a completion with data (response to MRd).
	CplD
	// CfgRd is a type-0 configuration read.
	CfgRd
	// CfgWr is a type-0 configuration write.
	CfgWr
	// Msg is a message request (interrupts, power management, vendor
	// messages). ccAI treats these as "general" packets (action A4).
	Msg
	// MsgD is a message request with data payload.
	MsgD
)

var kindNames = [...]string{"MRd", "MWr", "Cpl", "CplD", "CfgRd", "CfgWr", "Msg", "MsgD"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// HasPayload reports whether packets of this kind carry a data payload.
func (k Kind) HasPayload() bool {
	switch k {
	case MWr, CplD, CfgWr, MsgD:
		return true
	}
	return false
}

// CplStatus is the completion status field.
type CplStatus uint8

const (
	// CplSuccess indicates successful completion.
	CplSuccess CplStatus = 0
	// CplUR indicates Unsupported Request — the canonical way a PCIe
	// device (or ccAI's filter) rejects an access.
	CplUR CplStatus = 1
	// CplCA indicates Completer Abort.
	CplCA CplStatus = 4
)

func (s CplStatus) String() string {
	switch s {
	case CplSuccess:
		return "SC"
	case CplUR:
		return "UR"
	case CplCA:
		return "CA"
	}
	return fmt.Sprintf("CplStatus(%d)", uint8(s))
}

// MaxPayload is the maximum TLP payload size in bytes (the fabric's
// Max_Payload_Size). 256 bytes matches common server root complexes and
// is the chunking granularity the PCIe-SC's handlers see.
const MaxPayload = 256

// MaxReadReq is the maximum memory-read request size in bytes (the
// fabric's Max_Read_Request_Size). Read requests carry no payload, so
// they may ask for more than MaxPayload in one TLP; 4 KiB is the usual
// server-platform ceiling. The PCIe-SC exploits this on the H2D path:
// one read request covers a span of cipher chunks, amortizing the
// request/completion round trip and letting the SC batch-decrypt.
const MaxReadReq = 4096

// HeaderOverhead is the per-TLP wire overhead in bytes: 2 B framing +
// 6 B DLL (sequence + LCRC) + 16 B worst-case 4DW header. The link model
// charges this for every packet, which is how ccAI's extra tag/metadata
// packets turn into the bandwidth expansion measured in Figure 12a.
const HeaderOverhead = 24

// Header carries the TLP header fields the Packet Filter matches on.
type Header struct {
	Kind Kind
	// TC is the traffic class; Attr the attribute bits (RO/NS).
	TC, Attr uint8
	// Length is the payload length in bytes (the wire encodes DWs; we
	// keep bytes and first/last byte-enables for sub-DW accesses).
	Length uint32
	// Requester is the sending agent's ID.
	Requester ID
	// Tag matches completions to requests.
	Tag uint8
	// Address is the target memory address (memory requests) or the
	// config-space register offset (config requests).
	Address uint64
	// Completer is meaningful for completions and config requests.
	Completer ID
	// Status is the completion status (completions only).
	Status CplStatus
	// FirstBE/LastBE are the byte-enable nibbles.
	FirstBE, LastBE uint8
}

// Role names what a packet is for, in the protocol between the TVM,
// the PCIe-SC and the xPU. The agent that builds a packet stamps it, and
// a completion takes its request's role. A Role never goes on the wire
// and must never influence a security decision: the SC classifies
// packets by header fields and address range alone. It exists so test
// harnesses and fault plans can name a packet by what it is rather than
// by its position in the traffic.
type Role uint8

const (
	// RoleRingDoorbell is the TVM's submission-ring doorbell write.
	RoleRingDoorbell Role = iota + 1
	// RoleGuardedWrite is a driver write to an xPU register: the device
	// doorbell, the command tail, bring-up writes.
	RoleGuardedWrite
	// RoleControlWrite is a write that configures or tears down a
	// session: the TVM's hw_init and teardown writes to the SC BAR, the
	// SC's device reset and attestation nonce.
	RoleControlWrite
	// RoleRegRead is an MMIO read of an SC or xPU register.
	RoleRegRead
	// RoleSlotFetch is the SC's read of submission-ring slots.
	RoleSlotFetch
	// RoleRingHead is the SC's write of a ring-header word: the consumed
	// head or the status word.
	RoleRingHead
	// RoleCompletionWord is the SC's write of the device command head
	// into the ring header (batched completion reaping).
	RoleCompletionWord
	// RoleCommandRun is a read of a run of command-ring slots.
	RoleCommandRun
	// RoleH2DData is a read of host-to-device data: the device's DMA
	// read and the SC's fetch of the ciphertext behind it.
	RoleH2DData
	// RoleD2HData is a write of device-to-host data: the device's DMA
	// write and the ciphertext the SC writes to host memory.
	RoleD2HData
	// RoleTagRecord is the SC's write of D2H authentication tags.
	RoleTagRecord
	// RoleMetadata is the SC's write of a region's D2H progress count.
	RoleMetadata
	// RoleMSI is a device interrupt write.
	RoleMSI

	numRoles
)

var roleNames = [...]string{
	"none", "ring-doorbell", "guarded-write", "control-write", "reg-read",
	"slot-fetch", "ring-head", "completion-word", "command-run",
	"h2d-data", "d2h-data", "tag-record", "metadata", "msi",
}

func (r Role) String() string {
	if int(r) < len(roleNames) {
		return roleNames[r]
	}
	return fmt.Sprintf("Role(%d)", uint8(r))
}

// Roles lists every role in declaration order.
func Roles() []Role {
	out := make([]Role, 0, int(numRoles)-1)
	for r := RoleRingDoorbell; r < numRoles; r++ {
		out = append(out, r)
	}
	return out
}

// Packet is one TLP: header plus payload. Payload may be nil for
// non-data kinds.
type Packet struct {
	Header
	Payload []byte

	// Role is what the packet is for (see Role); it does not exist on
	// the wire.
	Role Role

	// home is the PacketArena the struct was carved from and may be
	// released to; nil for every other packet (see Release, Pin).
	home *PacketArena
}

// Clone deep-copies the packet (payload included) so mutation by an
// attacker model cannot alias the original.
func (p *Packet) Clone() *Packet {
	q := *p
	q.home = nil // the copy is the collector's, whatever p was
	if p.Payload != nil {
		q.Payload = append([]byte(nil), p.Payload...)
	}
	return &q
}

// WithRole stamps p with role and returns it, for the packets built by
// the New* constructors.
func (p *Packet) WithRole(role Role) *Packet {
	p.Role = role
	return p
}

func (p *Packet) String() string {
	switch {
	case p.Kind == Cpl || p.Kind == CplD:
		return fmt.Sprintf("%s[%s] cpl=%s req=%s tag=%d len=%d", p.Kind, p.Status, p.Completer, p.Requester, p.Tag, p.Length)
	default:
		return fmt.Sprintf("%s req=%s addr=%#x len=%d tag=%d", p.Kind, p.Requester, p.Address, p.Length, p.Tag)
	}
}

// NewMemRead builds a memory read request.
func NewMemRead(req ID, addr uint64, length uint32, tag uint8) *Packet {
	return &Packet{Header: Header{Kind: MRd, Requester: req, Address: addr, Length: length, Tag: tag, FirstBE: 0xf, LastBE: 0xf}}
}

// NewMemWrite builds a posted memory write carrying data.
func NewMemWrite(req ID, addr uint64, data []byte) *Packet {
	return &Packet{
		Header:  Header{Kind: MWr, Requester: req, Address: addr, Length: uint32(len(data)), FirstBE: 0xf, LastBE: 0xf},
		Payload: append([]byte(nil), data...),
	}
}

// NewCompletion builds a completion (with data when payload is non-nil)
// for the given request; it takes the request's role.
func NewCompletion(req *Packet, completer ID, status CplStatus, payload []byte) *Packet {
	h := Header{
		Kind:      Cpl,
		Requester: req.Requester,
		Completer: completer,
		Tag:       req.Tag,
		Status:    status,
	}
	var data []byte
	if payload != nil {
		h.Kind = CplD
		h.Length = uint32(len(payload))
		data = append([]byte(nil), payload...)
	}
	return &Packet{Header: h, Payload: data, Role: req.Role}
}

// --- Serialization -------------------------------------------------------
//
// The wire format follows the PCIe base spec shape: a 3DW header for
// 32-bit-address requests and completions, a 4DW header for 64-bit
// addresses, followed by the payload padded to DW granularity. This is
// what the attack harness mutates and what the HRoT measures, so it must
// round-trip exactly.

const (
	fmt3DW   = 0x0
	fmt4DW   = 0x1
	fmtData  = 0x2 // OR'd in when a payload follows
	typeMem  = 0x00
	typeCfg0 = 0x04
	typeCpl  = 0x0a
	typeMsg  = 0x10 // routed-by-ID message subtype we use
)

// wireLayout computes the header encoding bits and sizes shared by
// Marshal, MarshalSize and SerializeInto.
func (p *Packet) wireLayout() (fmtBits, typeBits uint8, use4DW bool, hdrDWs, total int) {
	switch p.Kind {
	case MRd, MWr:
		typeBits = typeMem
		use4DW = p.Address > 0xffffffff
	case CfgRd, CfgWr:
		typeBits = typeCfg0
	case Cpl, CplD:
		typeBits = typeCpl
	case Msg, MsgD:
		typeBits = typeMsg
		use4DW = true // messages always use 4DW headers
	}
	if use4DW {
		fmtBits = fmt4DW
	} else {
		fmtBits = fmt3DW
	}
	if p.Kind.HasPayload() {
		fmtBits |= fmtData
	}
	hdrDWs = 3
	if use4DW {
		hdrDWs = 4
	}
	total = hdrDWs * 4
	if p.Kind.HasPayload() {
		total += int((p.Length+3)/4) * 4
	}
	total += 4
	return
}

// MarshalSize reports the exact byte length Marshal would produce, so
// callers can stage the wire image in a reusable buffer via
// SerializeInto instead of allocating per packet.
func (p *Packet) MarshalSize() int {
	_, _, _, _, total := p.wireLayout()
	return total
}

// SerializeInto serializes the packet into dst when dst has capacity
// for MarshalSize() bytes, allocating a fresh buffer otherwise, and
// returns the serialized slice. Output is byte-identical to Marshal.
// The returned slice aliases dst — callers recycling dst through an
// arena must finish with (or copy) the result before releasing it.
func (p *Packet) SerializeInto(dst []byte) []byte {
	fmtBits, typeBits, use4DW, hdrDWs, total := p.wireLayout()
	dwLen := (p.Length + 3) / 4
	var out []byte
	if cap(dst) >= total {
		out = dst[:total]
		// Every byte below is overwritten except the DW padding between
		// the payload and the trailer; zero it so a recycled buffer
		// yields byte-identical output.
		if p.Kind.HasPayload() {
			for i := hdrDWs*4 + int(p.Length); i < total-4; i++ {
				out[i] = 0
			}
		}
	} else {
		out = make([]byte, total)
	}
	buf := out[:hdrDWs*4]
	// DW0: fmt/type, TC, attr, length in DWs.
	buf[0] = fmtBits<<5 | typeBits
	buf[1] = p.TC << 4
	binary.BigEndian.PutUint16(buf[2:4], uint16(dwLen&0x3ff)|uint16(p.Attr&0x3)<<12)

	switch p.Kind {
	case Cpl, CplD:
		// DW1: completer ID, status, byte count. DW2: requester ID, tag.
		binary.BigEndian.PutUint16(buf[4:6], uint16(p.Completer))
		buf[6] = uint8(p.Status) << 5
		buf[7] = byte(p.Length) // lower bits of byte count
		binary.BigEndian.PutUint16(buf[8:10], uint16(p.Requester))
		buf[10] = p.Tag
		buf[11] = byte(p.Address) & 0x7f // lower address
	default:
		// DW1: requester ID, tag, byte enables.
		binary.BigEndian.PutUint16(buf[4:6], uint16(p.Requester))
		buf[6] = p.Tag
		buf[7] = p.LastBE<<4 | p.FirstBE&0xf
		if use4DW {
			binary.BigEndian.PutUint64(buf[8:16], p.Address)
		} else {
			binary.BigEndian.PutUint32(buf[8:12], uint32(p.Address))
		}
		if p.Kind == CfgRd || p.Kind == CfgWr {
			binary.BigEndian.PutUint16(buf[8:10], uint16(p.Completer))
			binary.BigEndian.PutUint32(buf[8:12], binary.BigEndian.Uint32(buf[8:12])|uint32(p.Address)&0xfff)
		}
	}

	if p.Kind.HasPayload() {
		copy(out[hdrDWs*4:total-4], p.Payload)
	}
	// Trailer records the exact byte length so sub-DW payloads
	// round-trip (stand-in for byte-enable reconstruction).
	binary.BigEndian.PutUint32(out[total-4:], p.Length)
	return out
}

// Unmarshal parses wire bytes produced by Marshal. It validates
// structural invariants and returns an error for malformed packets; the
// Packet Filter drops anything Unmarshal rejects.
func Unmarshal(data []byte) (*Packet, error) {
	if len(data) < 16 {
		return nil, fmt.Errorf("pcie: truncated TLP (%d bytes)", len(data))
	}
	fmtBits := data[0] >> 5
	typeBits := data[0] & 0x1f
	use4DW := fmtBits&fmt4DW != 0
	hasData := fmtBits&fmtData != 0
	hdrDWs := 3
	if use4DW {
		hdrDWs = 4
	}
	if len(data) < hdrDWs*4+4 {
		return nil, fmt.Errorf("pcie: TLP shorter than its header")
	}

	p := &Packet{}
	p.TC = data[1] >> 4
	w := binary.BigEndian.Uint16(data[2:4])
	dwLen := uint32(w & 0x3ff)
	p.Attr = uint8(w>>12) & 0x3

	exactLen := binary.BigEndian.Uint32(data[len(data)-4:])
	body := data[:len(data)-4]

	switch typeBits {
	case typeMem:
		p.Kind = MRd
		if hasData {
			p.Kind = MWr
		}
		p.Requester = ID(binary.BigEndian.Uint16(body[4:6]))
		p.Tag = body[6]
		p.LastBE = body[7] >> 4
		p.FirstBE = body[7] & 0xf
		if use4DW {
			p.Address = binary.BigEndian.Uint64(body[8:16])
		} else {
			p.Address = uint64(binary.BigEndian.Uint32(body[8:12]))
		}
	case typeCfg0:
		p.Kind = CfgRd
		if hasData {
			p.Kind = CfgWr
		}
		p.Requester = ID(binary.BigEndian.Uint16(body[4:6]))
		p.Tag = body[6]
		p.Completer = ID(binary.BigEndian.Uint16(body[8:10]))
		p.Address = uint64(binary.BigEndian.Uint32(body[8:12]) & 0xfff)
	case typeCpl:
		p.Kind = Cpl
		if hasData {
			p.Kind = CplD
		}
		p.Completer = ID(binary.BigEndian.Uint16(body[4:6]))
		p.Status = CplStatus(body[6] >> 5)
		p.Requester = ID(binary.BigEndian.Uint16(body[8:10]))
		p.Tag = body[10]
		p.Address = uint64(body[11] & 0x7f)
	case typeMsg:
		p.Kind = Msg
		if hasData {
			p.Kind = MsgD
		}
		p.Requester = ID(binary.BigEndian.Uint16(body[4:6]))
		p.Tag = body[6]
		if use4DW {
			p.Address = binary.BigEndian.Uint64(body[8:16])
		}
	default:
		return nil, fmt.Errorf("pcie: unknown TLP type bits %#x", typeBits)
	}

	if hasData {
		start := hdrDWs * 4
		if uint32(len(body)-start) < dwLen*4 {
			return nil, fmt.Errorf("pcie: payload shorter than length field")
		}
		if exactLen > dwLen*4 {
			return nil, fmt.Errorf("pcie: exact length %d exceeds DW length %d", exactLen, dwLen*4)
		}
		p.Payload = append([]byte(nil), body[start:start+int(exactLen)]...)
		p.Length = exactLen
	} else {
		p.Length = exactLen
	}
	if p.Kind.HasPayload() != hasData {
		return nil, fmt.Errorf("pcie: kind %v / data presence mismatch", p.Kind)
	}
	return p, nil
}
