package core

import (
	"cmp"
	"crypto/subtle"
	"encoding/binary"

	"ccai/internal/arena"
	"ccai/internal/pcie"
	"ccai/internal/secmem"
)

// Submission ring (§5 batched I/O, io_uring-shaped): the SC's control
// path. Instead of one MMIO write per control operation — sealed
// configuration, tag uploads, notifies, the driver's device-register
// writes — the Adaptor appends fixed-size entries to a ring it owns in
// protected TVM memory and publishes a whole batch with a single write
// to RegRingDoorbell carrying the new absolute tail index. The SC
// DMA-reads the published span in MaxReadReq-sized gulps, validates
// every entry (bounded length, known opcode) and the span's seal,
// dispatches it, and DMA-writes its consumed head index back into the
// ring header. Small entries share a slot: an entry whose header has
// RingFlagMore set is followed in the same slot by another, right behind
// its payload. Sealed blobs, positioned tags, notifies and the device's
// command runs have no other way in, and so do guarded device writes:
// the SC refuses one that reaches the xPU window straight off the host
// bus.
//
// Trust boundary: the ring lives in TVM memory reachable over the
// untrusted host bus, so no byte of it is trusted until its seal
// checks. The producer closes every doorbell's span with a seal entry
// (RingOpSeal): a GMAC under the session's KeyRingSeal key over the
// span's slot bytes, up to and including the seal's own header, with
// a nonce bound to the span's absolute (head, tail). The SC checks
// every seal of a published span before it dispatches any entry of
// it, so a cleared more bit, a rewritten entry, a span replayed at
// another tail or one with no seal is refused whole — the same
// refusal as torn framing (a length past the slot, an unknown opcode
// or flag). The SC fetches a refused span once more, for the bus may
// have corrupted it; refused again, it sets the ring status word,
// rejects the span, and refuses to advance — fail closed until the
// producer tears down. The seal is the ring's one integrity and
// freshness check: its key is fresh each trust bring-up and its nonce
// binds the span's position, so a stale slot from an earlier lap, or
// an entry replayed or moved, does not check. Entries that pass still
// carry what they did before: rule, descriptor and rekey blobs sealed
// under the config stream, tag records verified on use, and guarded
// writes the filter's A3 classification and the environment guard's
// check. A command run needs nothing more: the SC holds the sealed
// bytes and serves the device's read from them.
const (
	// RingHdrSize is the ring header: [0,8) consumed head (SC-written),
	// [8,16) status word (0 ok, RingStatusDesync), [16,24) completion
	// word (SC-written device command head, RingCplValid-tagged), rest
	// reserved.
	RingHdrSize = 64
	// RingHdrCplOff is the header offset of the completion word: the
	// device's command-ring head as last observed by the SC, DMA-written
	// after every forwarded doorbell so the producer reaps completions
	// from host memory instead of one MMIO read per task.
	RingHdrCplOff = 16
	// RingCplValid tags a posted completion word. The device head is a
	// small count, so the top bit distinguishes "never posted" (zero)
	// from "head is zero".
	RingCplValid = 1 << 63
	// RingEntryHdrSize frames one entry: opcode(1) flags(1) len(2)
	// arg(8), little-endian.
	RingEntryHdrSize = 12
	// RingFlagMore, the one flag bit, says another entry follows this
	// one in its slot, starting right after its payload.
	RingFlagMore = 1
	// RingMaxData bounds an entry payload to one TLP payload.
	RingMaxData = pcie.MaxPayload
	// RingSlotSize is the fixed slot stride: room for one entry of
	// RingMaxData, or for a chain of smaller ones.
	RingSlotSize = RingEntryHdrSize + RingMaxData

	// RingStatusDesync is the status word the SC posts when a published
	// span's framing or seal fails validation; the producer must fail
	// closed.
	RingStatusDesync = 1
)

// Ring entry opcodes.
const (
	RingOpRule    = 1 // payload: sealed rule blob
	RingOpDesc    = 2 // payload: sealed descriptor blob
	RingOpRekey   = 3 // payload: sealed rekey command
	RingOpTags    = 4 // payload: packed tag records; arg: their region and first index (ArmPosition)
	RingOpRelease = 5 // arg: region ID
	RingOpNotify  = 6 // arg: region ID (the region-ready notify of §5)
	RingOpGuarded = 7 // arg: absolute MMIO address, payload: the value
	RingOpSeal    = 8 // payload: the GMAC tag sealing the span that ends with this entry
	RingOpRun     = 9 // payload: run length (RunHdrSize), then command slots; arg: their region and first slot (ArmPosition)
)

// RingSealSize is a seal entry's footprint in its slot.
const RingSealSize = RingEntryHdrSize + secmem.TagSize

// PutRingSealNonce writes the nonce of the seal over the span
// [head, tail): the absolute tail, then the span's length in slots. The
// tail only grows within a session and every published span ends at a
// tail of its own, so no nonce repeats under one key; a re-rung doorbell
// re-sends the same sealed bytes under the same nonce.
func PutRingSealNonce(nonce []byte, head, tail uint64) {
	binary.LittleEndian.PutUint64(nonce, tail)
	binary.LittleEndian.PutUint32(nonce[8:], uint32(tail-head))
}

// RingTailBits is the width of a doorbell's tail: the bits above it
// carry the span's end, which a tail never reaches.
const RingTailBits = 48

// RingDoorbell is the doorbell value that publishes the ring up to the
// absolute tail, where end is the bytes in use of the span's last slot:
// through its seal, the last bytes the SC fetches.
func RingDoorbell(tail uint64, end int) uint64 { return tail | uint64(end)<<RingTailBits }

// PutRingEntry encodes an entry header, its flags clear, into a
// caller-provided (typically stack) array.
func PutRingEntry(hdr *[RingEntryHdrSize]byte, op uint8, n uint16, arg uint64) {
	hdr[0] = op
	hdr[1] = 0
	binary.LittleEndian.PutUint16(hdr[2:], n)
	binary.LittleEndian.PutUint64(hdr[4:], arg)
}

// RingEntry is one entry of a ring slot, decoded. Data aliases the slot.
type RingEntry struct {
	Op   uint8
	Arg  uint64
	Data []byte
}

// CutRingEntry decodes the entry at the front of b — a slot, or what is
// left of one behind an entry whose more bit is set — and returns it and
// rest, the bytes its more bit says hold the next entry (nil when the
// bit is clear: the slot's chain ends here). ok is false when b frames
// no entry: no room for a header, a length past the end of b, an unknown
// opcode or a flag bit other than RingFlagMore.
func CutRingEntry(b []byte) (e RingEntry, rest []byte, ok bool) {
	if len(b) < RingEntryHdrSize {
		return e, nil, false
	}
	e = RingEntry{Op: b[0], Arg: binary.LittleEndian.Uint64(b[4:])}
	flags, end := b[1], RingEntryHdrSize+int(binary.LittleEndian.Uint16(b[2:]))
	if end > len(b) || e.Op < RingOpRule || e.Op > RingOpRun || flags&^RingFlagMore != 0 {
		return e, nil, false
	}
	e.Data = b[RingEntryHdrSize:end]
	if flags&RingFlagMore != 0 {
		rest = b[end:]
	}
	return e, rest, true
}

// ringSpanSlots is how many ring slots one MaxReadReq DMA read covers.
const ringSpanSlots = pcie.MaxReadReq / RingSlotSize

// RingMirrorSlots is the ring's mirror tail: its backing memory
// continues past the last slot with a copy of its first RingMirrorSlots
// slots, which the producer keeps identical to the originals. A
// published span that wraps is then still contiguous in memory, so the
// DMA reads a burst costs depend on its length only — not on where in
// the ring it happens to start, and so not on what was submitted
// before it.
const RingMirrorSlots = ringSpanSlots

// RingMaxSlots bounds the ring size the control BAR accepts: the SC
// gathers a doorbell's published span, at most the ring, into one
// buffer.
const RingMaxSlots = 1 << 12

// processRing consumes the span [head, tail) that doorbell v
// (RingDoorbell) just published. Called from handleControl WITHOUT c.mu
// held — dispatch reaches handlers that route on the buses.
func (c *Controller) processRing(v uint64) {
	tail, end := v&(1<<RingTailBits-1), int(v>>RingTailBits)
	c.mu.Lock()
	base, slots, head, w := c.sess.ringBase, c.sess.ringSize, c.sess.ringHead, c.sess.cplWord
	c.mu.Unlock()
	if base == 0 || slots == 0 {
		c.configReject() // a doorbell with no configured ring
		return
	}
	if tail <= head {
		// Idempotent re-reap: the doorbell names a window already
		// consumed. Either the producer re-rang it because the head or
		// completion writeback was lost on the bus, or the doorbell is a
		// stale or replayed one, behind the head. Re-posting both words
		// lets the producer's doorbell-retry ladder converge, and a
		// replayed doorbell costs the session nothing.
		c.ringPostHead(base, head, w)
		return
	}
	if tail-head > slots || end == 0 || end > RingSlotSize {
		// The producer claims a window larger than the ring, or a last
		// slot that holds nothing or more than a slot: framing is gone.
		// A config reject, and the status word marks the ring unusable:
		// the producer observes it on its next flush and fails closed.
		c.configReject()
		c.hostWrite64(pcie.RoleRingHead, base+8, RingStatusDesync)
		return
	}

	// Validate the whole span, then dispatch it: a framing error or a
	// seal that does not check anywhere refuses the batch before any
	// entry of it acts. The seal's nonce pins every stretch to its
	// absolute ring position, so a stale slot or entry left over from a
	// previous lap — or one the producer never wrote — cannot be
	// consumed. A span refused once is fetched once more before the SC
	// fails closed: the producer never rewrites a published slot, so a
	// copy that checks the second time is the span it sealed, and the
	// first was corrupted on the bus. That refusal is counted and costs
	// nothing else; the SC only verifies, so a re-fetch uses no nonce
	// twice. The buffer's last bytes are the seal check's nonce and tag
	// scratch.
	n := tail - head
	size := int(n-1)*RingSlotSize + end
	buf := arena.Get(size + secmem.GCMNonceSize + secmem.TagSize)
	defer arena.Put(buf)
	for fetched := false; ; fetched = true {
		// Gather the published slots with as few DMA reads as possible:
		// contiguous runs bounded by MaxReadReq, the last one stopping at
		// the span's end. A run that starts near the end of the ring
		// continues into the mirror tail instead of wrapping.
		for i := uint64(0); i < n; i += ringSpanSlots {
			off := int(i) * RingSlotSize
			if !c.ringFetch(base+RingHdrSize+(head+i)%slots*RingSlotSize, buf[off:min(off+ringSpanSlots*RingSlotSize, size)]) {
				// The span read kept failing (dropped completions under
				// fault injection). Head stays put and no status is raised:
				// the producer's doorbell retry re-publishes the same window.
				return
			}
		}
		if c.ringSealed(buf[:size], buf[size:], head) {
			break
		}
		if fetched {
			c.hostWrite64(pcie.RoleRingHead, base+8, RingStatusDesync) // refused twice: fail closed
			return
		}
		c.configReject() // one reject a refused span, whether its re-fetch checks or not
	}
	for at := 0; at < size; at += RingSlotSize {
		for rest := buf[at:min(at+RingSlotSize, size)]; rest != nil; {
			var e RingEntry
			e, rest, _ = CutRingEntry(rest)
			c.ringDispatch(e.Op, e.Arg, e.Data)
		}
	}

	// A doorbell entry of the span reaped the device head into the
	// cache: the one head writeback posts it.
	c.mu.Lock()
	c.sess.ringHead = tail
	w = c.sess.cplWord
	c.mu.Unlock()
	c.ringPostHead(base, tail, w)
}

// ringSealed reports whether every slot of the gathered span, from
// absolute index head on, holds a well-framed chain and every entry sits
// under a seal that checks: one walk does both. The producer seals each
// flush, so a span whose doorbell re-publishes an earlier, unconsumed
// flush holds several sealed stretches: each seal covers the slots from
// the one behind the previous seal (or from head) through its own
// header, and must end its slot's chain. The span must end with a seal;
// its last slot stops at the doorbell's end, so an end that cuts the
// seal fails here. scratch holds the nonce and the recomputed tag; the
// check takes no lock.
func (c *Controller) ringSealed(span, scratch []byte, head uint64) bool {
	nonce, want := scratch[:secmem.GCMNonceSize], scratch[secmem.GCMNonceSize:][:secmem.TagSize]
	from := 0 // byte offset of the open stretch's first slot
	for at := 0; at < len(span); at += RingSlotSize {
		slot := span[at:min(at+RingSlotSize, len(span))]
		for rest := slot; rest != nil; {
			off := len(slot) - len(rest)
			e, next, ok := CutRingEntry(rest)
			if !ok {
				return false
			}
			rest = next
			if e.Op != RingOpSeal {
				continue
			}
			if next != nil || len(e.Data) != secmem.TagSize {
				return false // a seal ends its chain, and is one tag long
			}
			PutRingSealNonce(nonce, head+uint64(from/RingSlotSize), head+uint64(at/RingSlotSize)+1)
			aad := span[from : at+off+RingEntryHdrSize]
			if c.params.keys.GMAC(KeyRingSeal, nonce, aad, want) != nil || subtle.ConstantTimeCompare(want, e.Data) != 1 {
				return false
			}
			from = at + len(slot)
		}
	}
	return from == len(span)
}

// ringDispatch routes one validated entry to its handler. data aliases
// the gather buffer; every handler either consumes it synchronously
// (sealed-blob open) or copies (tag ingest, a held run), so the buffer
// is reusable on return.
func (c *Controller) ringDispatch(op uint8, arg uint64, data []byte) {
	switch op {
	case RingOpRule:
		c.installRuleFrame(data)
	case RingOpDesc:
		c.installDescriptorFrame(data)
	case RingOpRekey:
		c.applyRekeyFrame(data)
	case RingOpTags:
		c.ingestTags(arg, data)
	case RingOpRelease:
		c.releaseRegion(uint32(arg))
	case RingOpNotify:
		// Region-ready: the SC has nothing to do — the entry's records and
		// descriptor were dispatched ahead of it, in order.
	case RingOpGuarded:
		// Rebuild the A3 write the entry stands for, attributed to the
		// authorized TVM, and run it through the guard check; the span's
		// seal has already vouched for its address and value, and for its
		// place in the ring. The value is copied out of the gather buffer:
		// a tap on the internal bus may keep the packet past this dispatch.
		if len(data) == 0 {
			c.configReject() // a guarded entry that carries no value
			return
		}
		val := c.payloadBuf(len(data), c.internal)
		copy(val, data)
		p := c.guardedPkts.MemWrite(pcie.RoleGuardedWrite, c.authorizedTVM, arg, val)
		// The policy classifies the write as it would one off the bus: an
		// entry is a guarded write only where the filter says A3.
		if c.filter.classify(p, false).Action == ActionWriteProtect {
			c.handleGuardedMMIO(p)
		} else {
			c.configReject()
		}
		if c.recycleOn(c.internal) && pcie.Release(p) {
			arena.Put(val) // a register value the host bus already carried
		}
	case RingOpRun:
		// The span's seal vouched for the run's bytes and their place: the
		// SC holds exactly what the TVM wrote for the device's read
		// (verifiedRead). An entry the region may not take is refused.
		c.mu.Lock()
		ok := c.sess.byID(uint32(arg>>32)).hold(uint32(arg), data)
		c.mu.Unlock()
		if !ok {
			c.configReject()
		}
	case RingOpSeal:
		// Checked, with the span, before any entry was dispatched.
	}
}

// ringFetch DMA-reads one contiguous slot run into dst, with a bounded
// retry for dropped completions.
func (c *Controller) ringFetch(addr uint64, dst []byte) bool {
	for attempt := 0; attempt < 3; attempt++ {
		req := c.pkts.MemRead(pcie.RoleSlotFetch, c.id, addr, uint32(len(dst)), 0)
		cpl := c.hostBus.Route(req)
		if cpl != nil && cpl.Status == pcie.CplSuccess && !staleCpl(req, cpl) && len(cpl.Payload) >= len(dst) {
			copy(dst, cpl.Payload)
			c.releaseFetch(req, cpl, false) // ring slots: public bytes, copied out
			return true
		}
	}
	return false
}

// ringPostHead DMA-writes the consumed head index into the ring
// header, followed by w, the completion word its caller read under c.mu,
// so a reaping producer refreshes both with the same doorbell. A zero
// word — no doorbell forwarded yet this session — posts nothing,
// leaving the header word invalid so the producer falls back to the
// MMIO read.
func (c *Controller) ringPostHead(base, head, w uint64) {
	c.hostWrite64(pcie.RoleRingHead, base, head)
	if w != 0 {
		c.hostWrite64(pcie.RoleCompletionWord, base+RingHdrCplOff, w)
	}
}

// hostWrite64 DMA-writes one ring-header word.
func (c *Controller) hostWrite64(role pcie.Role, addr, v uint64) {
	buf := c.payloadBuf(8, c.hostBus)
	binary.LittleEndian.PutUint64(buf, v)
	c.hostWrite(role, addr, buf)
}

// reapCompletion is the SC half of batched completion reaping: after
// forwarding a doorbell write, read the device's command head once over
// the internal bus and cache it for the ring header. The doorbell is a
// ring entry, so the head writeback of the span that carried it posts
// the word: one doorbell drains every completion the burst produced,
// and the producer's Head() poll becomes a host-memory read. The pump
// has read every run it will, so a run still held — one a recovery kick
// re-sent for commands the device had read already — no read takes: it
// goes.
func (c *Controller) reapCompletion() {
	if c.internal == nil {
		return
	}
	var w uint64
	req := c.pkts.MemRead(pcie.RoleRegRead, c.id, c.xpuBar.Base+c.reapHeadReg, 8, 0)
	// An unreadable head leaves the cache alone: the MMIO fallback rules.
	if cpl := c.internal.Route(req); cpl != nil && cpl.Status == pcie.CplSuccess && !staleCpl(req, cpl) && len(cpl.Payload) >= 8 {
		w = RingCplValid | binary.LittleEndian.Uint64(cpl.Payload)
		if c.recycleOn(c.internal) {
			// The device carves register completions from memory it never
			// reuses; only the two structs come back.
			pcie.Release(cpl)
			pcie.Release(req)
		}
	}
	c.mu.Lock()
	for _, r := range c.sess.regions {
		r.runs = r.runs[:0]
	}
	c.sess.cplWord = cmp.Or(w, c.sess.cplWord)
	c.mu.Unlock()
}
