package core

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Dir is a transfer direction relative to the host.
type Dir uint8

const (
	// DirH2D regions are read by the device (inputs, weights, commands).
	DirH2D Dir = iota
	// DirD2H regions are written by the device (results).
	DirD2H
)

func (d Dir) String() string {
	if d == DirH2D {
		return "H2D"
	}
	return "D2H"
}

// Descriptor registers one protected transfer region with the PCIe-SC:
// a span of host bounce-buffer memory, the security class applied to
// device accesses inside it, and the cryptographic bookkeeping the
// Packet Handlers need. The Adaptor uploads descriptors sealed under
// the config stream, so the untrusted host cannot forge or redirect
// them.
type Descriptor struct {
	ID    uint32
	Dir   Dir
	Class Action // ActionWriteReadProtect (A2) or ActionWriteProtect (A3)
	Base  uint64
	Len   uint64
	// TagBase is where the SC deposits tag records for D2H regions.
	TagBase uint64
	// ChunkSize is the protection granularity: one IV counter / one MAC
	// record per chunk. Data regions use the TLP payload size; command
	// rings use their entry size.
	ChunkSize uint32
	// FirstCounter is the IV counter of chunk 0 for A2 H2D regions
	// (the Adaptor sealed them with consecutive counters).
	FirstCounter uint32
	// Slotted marks an A2 H2D step window (DESIGN.md §16): its chunks
	// are sealed one step at a time, long after the install, so chunk
	// i's IV counter is not FirstCounter+i but whatever the positioned
	// tag entry that armed slot i carried.
	Slotted bool
}

// DescriptorSize is the serialized descriptor length.
const DescriptorSize = 40

// Marshal encodes the descriptor for sealed upload.
func (d Descriptor) Marshal() []byte {
	return d.AppendMarshal(make([]byte, 0, DescriptorSize))
}

// AppendMarshal appends the descriptor's encoding to buf and returns
// the extended slice — the allocation-free variant for callers sealing
// from a stack array.
func (d Descriptor) AppendMarshal(buf []byte) []byte {
	var zero [DescriptorSize]byte
	off := len(buf)
	buf = append(buf, zero[:]...)
	b := buf[off:]
	binary.LittleEndian.PutUint32(b[0:], d.ID)
	b[4] = uint8(d.Dir)
	b[5] = uint8(d.Class)
	if d.Slotted {
		b[6] = 1
	}
	binary.LittleEndian.PutUint64(b[8:], d.Base)
	binary.LittleEndian.PutUint64(b[16:], d.Len)
	binary.LittleEndian.PutUint64(b[24:], d.TagBase)
	binary.LittleEndian.PutUint32(b[32:], d.ChunkSize)
	binary.LittleEndian.PutUint16(b[36:], uint16(d.FirstCounter))
	binary.LittleEndian.PutUint16(b[38:], uint16(d.FirstCounter>>16))
	return buf
}

// UnmarshalDescriptor decodes a sealed-upload payload.
func UnmarshalDescriptor(buf []byte) (Descriptor, error) {
	if len(buf) < DescriptorSize {
		return Descriptor{}, fmt.Errorf("core: descriptor blob too short (%d)", len(buf))
	}
	d := Descriptor{
		ID:        binary.LittleEndian.Uint32(buf[0:]),
		Dir:       Dir(buf[4]),
		Class:     Action(buf[5]),
		Base:      binary.LittleEndian.Uint64(buf[8:]),
		Len:       binary.LittleEndian.Uint64(buf[16:]),
		TagBase:   binary.LittleEndian.Uint64(buf[24:]),
		ChunkSize: binary.LittleEndian.Uint32(buf[32:]),
		Slotted:   buf[6]&1 != 0,
	}
	d.FirstCounter = uint32(binary.LittleEndian.Uint16(buf[36:])) |
		uint32(binary.LittleEndian.Uint16(buf[38:]))<<16
	if d.Class != ActionWriteReadProtect && d.Class != ActionWriteProtect {
		return Descriptor{}, fmt.Errorf("core: descriptor %d has non-protect class %v", d.ID, d.Class)
	}
	if d.ChunkSize == 0 || d.Len == 0 {
		return Descriptor{}, fmt.Errorf("core: descriptor %d has empty geometry", d.ID)
	}
	if d.Slotted && (d.Dir != DirH2D || d.Class != ActionWriteReadProtect) {
		return Descriptor{}, fmt.Errorf("core: descriptor %d is slotted but not an A2 H2D region", d.ID)
	}
	return d, nil
}

// Contains reports whether addr falls in the region.
func (d Descriptor) Contains(addr uint64) bool {
	return addr >= d.Base && addr < d.Base+d.Len
}

// AAD builds the additional authenticated data binding a chunk to its
// region and position, preventing relocation of valid ciphertext.
func (d Descriptor) AAD(chunk uint32) []byte {
	buf := make([]byte, 8)
	d.PutAAD((*[8]byte)(buf), chunk)
	return buf
}

// PutAAD writes the chunk's AAD into a caller-provided (typically
// stack) array — the allocation-free variant for the datapath.
func (d Descriptor) PutAAD(buf *[8]byte, chunk uint32) {
	binary.LittleEndian.PutUint32(buf[0:], d.ID)
	binary.LittleEndian.PutUint32(buf[4:], chunk)
}

// regionTable resolves device accesses to descriptors. It carries a
// leaf mutex so lookups and mutations are safe under concurrent
// per-tenant pipelines; find returns the descriptor by value, so
// callers hold no reference into the table.
type regionTable struct {
	mu      sync.Mutex
	regions []Descriptor
}

func (rt *regionTable) add(d Descriptor) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, e := range rt.regions {
		if d.Base < e.Base+e.Len && e.Base < d.Base+d.Len {
			return fmt.Errorf("core: region %d overlaps region %d", d.ID, e.ID)
		}
	}
	rt.regions = append(rt.regions, d)
	return nil
}

func (rt *regionTable) find(addr uint64) (Descriptor, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, d := range rt.regions {
		if d.Contains(addr) {
			return d, true
		}
	}
	return Descriptor{}, false
}

// foldsWrite reports whether addr lies in a live A2 D2H region — where
// a device chunk write is staged into a write span.
func (rt *regionTable) foldsWrite(addr uint64) bool {
	d, ok := rt.find(addr)
	return ok && d.Dir == DirD2H && d.Class == ActionWriteReadProtect
}

// byID returns the live descriptor registered under id.
func (rt *regionTable) byID(id uint32) (Descriptor, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, d := range rt.regions {
		if d.ID == id {
			return d, true
		}
	}
	return Descriptor{}, false
}

func (rt *regionTable) remove(id uint32) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	kept := rt.regions[:0]
	for _, d := range rt.regions {
		if d.ID != id {
			kept = append(kept, d)
		}
	}
	rt.regions = kept
}

func (rt *regionTable) clear() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.regions = nil
}

func (rt *regionTable) count() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.regions)
}
