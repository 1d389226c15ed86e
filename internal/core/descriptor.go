package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"ccai/internal/pcie"
	"ccai/internal/secmem"
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
	// ChunkSize is the protection granularity: one IV counter and tag
	// record per chunk of an A2 region, one command slot of an A3 one.
	// Data regions use the TLP payload size; command rings use their
	// entry size.
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

// AppendMarshal appends the descriptor's encoding, for sealed upload,
// to buf and returns the extended slice; callers seal from a reused
// array.
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

// PutAAD writes the additional authenticated data binding a chunk to
// its region and position, preventing relocation of valid ciphertext,
// into a caller-provided (typically stack) array.
func (d Descriptor) PutAAD(buf *[8]byte, chunk uint32) {
	binary.LittleEndian.PutUint32(buf[0:], d.ID)
	binary.LittleEndian.PutUint32(buf[4:], chunk)
}

// region is everything the SC holds for one live protected region: the
// descriptor and what the handlers serving it keep between packets. It
// lives in the session's table, guarded by Controller.mu, from install
// to release or teardown. Records are pooled, so a handler looks its
// record up again in every critical section and keeps no pointer to it
// past one; a record unlinked from the table belongs to whoever
// unlinked it until retire pools it.
type region struct {
	desc Descriptor
	// d2hDone is a D2H region's §5 metadata counter: the chunks whose
	// ciphertext and tag record are deposited.
	d2hDone uint64
	// tags buffers a D2H region's tag records until a tag-table write is
	// due (depositTags).
	tags tagSpan
	// ws is a D2H region's pending write span (pipeline.go), nil when no
	// chunk is staged.
	ws *writeSpan
	// recs is an A2 H2D region's tag table, one entry per chunk — of a
	// step window, per slot. It is sized at install, empty for any other
	// region, and holds no pointers.
	recs []tagEntry
	// pending counts the entries of recs in state tagPending.
	pending int
	// runs is an A3 region's held runs: the command slots sealed run
	// entries carried (hold), each waiting for the device's read of it —
	// one read, two where it wraps the region's end (verifiedRead) — or,
	// unread, the reap that follows the device's doorbell
	// (reapCompletion). Their bytes sit in held, the region's length, at
	// their slots' offsets; held runs never overlap.
	runs []heldRun
	held []byte
}

// heldRun is one run of an A3 region's slots the SC holds: n slots from
// first, going on at slot 0 past the region's end, have of them carried
// so far. Once the device has read a wrapping run to the region's end,
// the run is what is left of it, from slot 0.
type heldRun struct{ first, n, have uint32 }

// continues reports whether an entry at slot, naming a run of n slots,
// carries the next slots of h.
func (h heldRun) continues(slot, n, slots uint32) bool {
	return h.have < h.n && h.n == n && (h.first+h.have)%slots == slot
}

// slots is an A3 region's length in slots.
func (r *region) slots() uint32 { return uint32(r.desc.Len / uint64(r.desc.ChunkSize)) }

// hold stores a run entry's slots: data is the run's length in slots
// (RunHdrSize bytes), then whole slots from slot on, going on at slot 0
// past the region's end. An entry at the slot where the last held run,
// not yet whole, goes on, naming the same length, continues that run;
// any other opens a run of that length at slot and drops the held runs
// it overlaps. It reports false — and stores nothing — when r is no A3
// H2D region, or the entry carries no whole slot, sits past the region,
// names a length of 0, past MaxRunSlots, one read request or the
// region, or carries more slots than its run has left. It is nil-safe.
func (r *region) hold(slot uint32, data []byte) bool {
	if r == nil || r.desc.Dir != DirH2D || r.desc.Class != ActionWriteProtect || len(data) < RunHdrSize {
		return false
	}
	cs, body, slots := uint64(r.desc.ChunkSize), data[RunHdrSize:], r.slots()
	n, k := uint64(binary.LittleEndian.Uint32(data)), uint64(len(body))/cs
	if k == 0 || uint64(len(body))%cs != 0 || slot >= slots || n > MaxRunSlots || n*cs > pcie.MaxReadReq || n > uint64(slots) {
		return false
	}
	last := len(r.runs) - 1
	if last < 0 || !r.runs[last].continues(slot, uint32(n), slots) {
		if k > n {
			return false
		}
		r.runs = slices.DeleteFunc(r.runs, func(h heldRun) bool { // the held runs it overlaps
			return (slot+slots-h.first)%slots < h.n || (h.first+slots-slot)%slots < uint32(n)
		})
		r.runs = append(r.runs, heldRun{first: slot, n: uint32(n)})
		last = len(r.runs) - 1
	}
	if uint64(r.runs[last].have)+k > n {
		return false
	}
	ring := r.held[:uint64(slots)*cs]
	copy(ring, body[copy(ring[uint64(slot)*cs:], body):])
	r.runs[last].have += uint32(k)
	return true
}

// runAt returns the index of the held run that starts at slot first, -1
// when none does.
func (r *region) runAt(first uint32) int {
	return slices.IndexFunc(r.runs, func(h heldRun) bool { return h.first == first })
}

// tagEntry is one entry of a region's tag table: a record the TVM
// posted (ingestTags) and where it stands. ctr is the record's IV
// counter and, in a step window, the counter the slot is armed with
// (0 = never armed: counters start at 1); it stays when the record is
// spent or lost, so an armed slot stays armed. epoch and tag are the
// record's.
type tagEntry struct {
	ctr, epoch uint32
	tag        [secmem.TagSize]byte
	state      tagState
}

// tagState is where a tag-table entry's record stands.
type tagState uint8

const (
	tagNone     tagState = iota // no record: never posted, spent by a read, or lost
	tagPending                  // posted; the next read of the entry takes it
	tagAccepted                 // an A2 chunk's record a read accepted, kept for re-reads
)

// record is e's record as the read paths use it.
func (e *tagEntry) record() TagRecord { return TagRecord{Chunk: e.ctr, Epoch: e.epoch, Tag: e.tag} }

// post stores rec, the record an entry carried for index i, as pending.
// An accepted record stays: a repost of a chunk a read already took adds
// nothing to spend. A lost record — the tag-loss fault took it — stores
// nothing but its counter, so a step window's slot is armed all the
// same; a pending record outlives its lost repost.
func (r *region) post(i uint32, rec *TagRecord, lost bool) {
	e := &r.recs[i]
	switch {
	case e.state == tagAccepted || lost && e.state == tagPending:
	case lost:
		e.ctr = rec.Chunk
	default:
		if e.state == tagNone {
			r.pending++
		}
		*e = tagEntry{ctr: rec.Chunk, epoch: rec.Epoch, tag: rec.Tag, state: tagPending}
	}
}

// peek returns entry i's pending record and leaves it pending. It is
// nil-safe, so a lookup that found no region composes with it.
func (r *region) peek(i uint32) (TagRecord, bool) {
	if r == nil || int(i) >= len(r.recs) || r.recs[i].state != tagPending {
		return TagRecord{}, false
	}
	return r.recs[i].record(), true
}

// take is peek that spends the record. An accepted record is not taken:
// a re-read of an accepted chunk is served from it (openChunk).
func (r *region) take(i uint32) (TagRecord, bool) {
	rec, ok := r.peek(i)
	if ok {
		r.recs[i].state = tagNone
		r.pending--
	}
	return rec, ok
}

// acceptedAt returns the accepted record of chunk. It is nil-safe.
func (r *region) acceptedAt(chunk uint32) (TagRecord, bool) {
	if r == nil || int(chunk) >= len(r.recs) || r.recs[chunk].state != tagAccepted {
		return TagRecord{}, false
	}
	return r.recs[chunk].record(), true
}

// accept keeps chunk's record as accepted, so a benign retransmit (a
// device re-read after a fault) is re-verified and re-served without
// loosening the stream's replay watermark (openChunk). A nil region
// keeps nothing.
func (r *region) accept(chunk uint32, rec *TagRecord) {
	if r == nil || int(chunk) >= len(r.recs) {
		return
	}
	if r.recs[chunk].state == tagPending {
		r.pending--
	}
	r.recs[chunk] = tagEntry{ctr: rec.Chunk, epoch: rec.Epoch, tag: rec.Tag, state: tagAccepted}
}

// tagRun reports how many tag records of the region, deposited in chunk
// order from chunk on, it takes to reach the next host-memory write
// depositTags issues: the run ends with the record that flushes the tag
// span (a sequence break, a full TLP) or publishes the metadata
// counter. A region that is gone takes them one at a time; none of them
// is written.
func (r *region) tagRun(chunk uint32) int {
	if r == nil {
		return 1
	}
	pend := 0
	if len(r.tags.buf) > 0 {
		if r.tags.next != chunk {
			return 1
		}
		pend = len(r.tags.buf) / TagRecordSize
	}
	count, total := r.d2hDone, uint64(chunkCount(r.desc))
	if count+1 >= total {
		return 1
	}
	run := metaPublishEvery - int(count%metaPublishEvery)
	if rem := total - count; rem < uint64(run) {
		run = int(rem)
	}
	return min(run, tagSpanRecords-pend)
}

// detach takes the region's pending write span out for sealing; nil
// when there is none. Caller holds c.mu.
func (r *region) detach() *writeSpan {
	if r == nil || r.ws == nil {
		return nil
	}
	span := r.ws
	r.ws = nil
	span.desc = r.desc
	span.nTags, span.tagStart = 0, span.start
	span.run = r.tagRun(span.start)
	return span
}

// session is the SC state a trust session programs and Teardown forgets
// in one swap: the live regions, the submission ring's consumed head
// and cached completion word, and the RW registers placing the ring and the metadata buffer. Guarded by
// Controller.mu.
type session struct {
	regions []*region
	// ringHead is the submission-ring consumption index (absolute entry
	// count); the matching tail arrives through RegRingDoorbell.
	ringHead uint64
	// cplWord is the device command head the SC last reaped,
	// RingCplValid-tagged, for the ring-header writeback (ring.go).
	cplWord                                uint64
	ringBase, ringSize, metaBase, metaSize uint64
}

// reg returns the RW control register at off; nil for any other offset.
func (s *session) reg(off uint64) *uint64 {
	switch off {
	case RegRingBase:
		return &s.ringBase
	case RegRingSize:
		return &s.ringSize
	case RegMetaBase:
		return &s.metaBase
	case RegMetaSize:
		return &s.metaSize
	}
	return nil
}

// byID returns the live region registered under id, nil if none is.
func (s *session) byID(id uint32) *region {
	for _, r := range s.regions {
		if r.desc.ID == id {
			return r
		}
	}
	return nil
}

// at returns the live region containing addr, nil if none does.
func (s *session) at(addr uint64) *region {
	for _, r := range s.regions {
		if r.desc.Contains(addr) {
			return r
		}
	}
	return nil
}

// of returns desc's own record: the live region under desc.ID, if it is
// still the region desc describes. A handler that resolved desc before
// it released c.mu finds nothing once the region was released — or
// reinstalled as another region — in between.
func (s *session) of(desc Descriptor) *region {
	if r := s.byID(desc.ID); r != nil && r.desc == desc {
		return r
	}
	return nil
}
