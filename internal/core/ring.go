package core

import (
	"encoding/binary"

	"ccai/internal/arena"
	"ccai/internal/pcie"
)

// Submission ring (§5 batched I/O, io_uring-shaped): the SC's control
// path. Instead of one MMIO write per control operation — sealed
// configuration, tag uploads, notifies, the command-tail register
// write — the Adaptor appends fixed-size entries to a ring it owns in
// protected TVM memory and publishes a whole batch with a single write
// to RegRingDoorbell carrying the new absolute tail index. The SC
// DMA-reads the published span in MaxReadReq-sized gulps, validates
// every entry (sequence number, bounded length, known opcode),
// dispatches it, and DMA-writes its consumed head index back into the
// ring header. Sealed blobs, positioned tags and notifies have no other
// way in.
//
// Trust boundary: the ring lives in TVM memory reachable over the
// untrusted host bus, so its contents get no more trust than an MMIO
// payload — rule/descriptor/rekey entries carry sealed blobs only the
// attested peer can mint, tag entries carry tags and MAC records verified
// on use (the record of a direct guarded write among them: it rides the
// burst that write's flush publishes, so it is consumed before the write
// goes out), and guarded entries go through the A3 sequence+MAC check of
// a direct guarded write. Tampering with an entry therefore yields a config
// reject or an auth failure. Tampering with the ring
// *framing* (sequence skew, oversized length, unknown opcode) is a
// desync: the SC sets the ring status word, rejects, and refuses to
// advance — fail closed until the producer tears down.
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
	// seq(4) arg(8), little-endian.
	RingEntryHdrSize = 16
	// RingMaxData bounds an entry payload to one TLP payload.
	RingMaxData = pcie.MaxPayload
	// RingSlotSize is the fixed slot stride.
	RingSlotSize = RingEntryHdrSize + RingMaxData

	// RingStatusDesync is the status word the SC posts when ring framing
	// fails validation; the producer must fail closed.
	RingStatusDesync = 1
)

// Ring entry opcodes.
const (
	RingOpRule    = 1 // payload: sealed rule blob
	RingOpDesc    = 2 // payload: sealed descriptor blob
	RingOpRekey   = 3 // payload: sealed rekey command
	RingOpTags    = 4 // payload: packed tag records; arg != 0: positioned (ArmPosition)
	RingOpRelease = 5 // arg: region ID
	RingOpNotify  = 6 // arg: region ID (the region-ready notify of §5)
	RingOpGuarded = 7 // arg: absolute MMIO address, payload: value, then the write's MAC record (A3 write)
)

// PutRingEntry encodes an entry header into a caller-provided
// (typically stack) array.
func PutRingEntry(hdr *[RingEntryHdrSize]byte, op uint8, n uint16, seq uint32, arg uint64) {
	hdr[0] = op
	hdr[1] = 0
	binary.LittleEndian.PutUint16(hdr[2:], n)
	binary.LittleEndian.PutUint32(hdr[4:], seq)
	binary.LittleEndian.PutUint64(hdr[8:], arg)
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

// processRing consumes the span [head, tail) the doorbell just
// published. Called from handleControl WITHOUT c.mu held — dispatch
// reaches handlers that route on the buses.
func (c *Controller) processRing(tail uint64) {
	c.mu.Lock()
	base, slots, head := c.sess.ringBase, c.sess.ringSize, c.sess.ringHead
	c.mu.Unlock()
	if base == 0 || slots == 0 {
		c.configReject() // a doorbell with no configured ring
		return
	}
	if tail < head || tail-head > slots {
		// The producer claims a window we never saw or one larger than
		// the ring: framing is gone, fail closed.
		c.ringDesync(base)
		return
	}
	if tail == head {
		// Idempotent re-reap: the producer re-rang an already-consumed
		// window, which means its view of the header is stale — the head
		// or completion writeback was lost on the bus. Re-posting both
		// words (instead of the old bare return) lets the producer's
		// doorbell-retry ladder converge instead of spinning forever on a
		// header that never refreshes.
		c.ringPostHead(base, head)
		return
	}

	// Gather the published slots with as few DMA reads as possible:
	// contiguous runs bounded by MaxReadReq. A run that starts near the
	// end of the ring continues into the mirror tail instead of wrapping.
	n := tail - head
	buf := arena.Get(int(n) * RingSlotSize)
	for i := uint64(0); i < n; {
		slot := (head + i) % slots
		run := min(n-i, ringSpanSlots)
		addr := base + RingHdrSize + slot*RingSlotSize
		off := int(i) * RingSlotSize
		if !c.ringFetch(addr, buf[off:off+int(run)*RingSlotSize]) {
			// The span read kept failing (dropped completions under fault
			// injection). Head stays put and no status is raised: the
			// producer's doorbell retry re-publishes the same window.
			arena.Put(buf)
			return
		}
		i += run
	}

	// Validate, then dispatch. The sequence check pins every entry to
	// its absolute ring index, so a stale slot left over from a previous
	// lap — or an entry the producer never wrote — cannot be consumed.
	for i := uint64(0); i < n; i++ {
		e := buf[i*RingSlotSize : (i+1)*RingSlotSize]
		op := e[0]
		ln := binary.LittleEndian.Uint16(e[2:])
		seq := binary.LittleEndian.Uint32(e[4:])
		arg := binary.LittleEndian.Uint64(e[8:])
		if seq != uint32(head+i) || int(ln) > RingMaxData || op < RingOpRule || op > RingOpGuarded {
			arena.Put(buf)
			c.ringDesync(base)
			return
		}
		c.ringDispatch(op, arg, e[RingEntryHdrSize:RingEntryHdrSize+int(ln)])
	}
	arena.Put(buf)

	c.mu.Lock()
	c.sess.ringHead = tail
	w := c.sess.cplWord
	c.mu.Unlock()
	c.hostWrite64(pcie.RoleRingHead, base, tail)
	c.postCompletionWord(base, w)
}

// ringDispatch routes one validated entry to its handler. data aliases
// the gather buffer; every handler either consumes it synchronously
// (sealed-blob open, MAC verify) or copies (tag ingest), so the buffer is
// reusable on return.
func (c *Controller) ringDispatch(op uint8, arg uint64, data []byte) {
	switch op {
	case RingOpRule:
		c.installRuleFrame(data)
	case RingOpDesc:
		c.installDescriptorFrame(data)
	case RingOpRekey:
		c.applyRekeyFrame(data)
	case RingOpTags:
		if arg != 0 {
			c.armSlots(arg, data)
		} else {
			c.ingestTags(data)
		}
	case RingOpRelease:
		c.releaseRegion(uint32(arg))
	case RingOpNotify:
		// Region-ready: the SC has nothing to do — the entry's records and
		// descriptor were dispatched ahead of it, in order.
	case RingOpGuarded:
		// The entry carries the write's MAC record behind its value.
		// Rebuild the A3 write the entry stands for, attributed to the
		// authorized TVM, and run it through the full sequence+MAC+guard
		// pipeline, which queues the record in the section that matches
		// it. The value is copied out of the gather buffer: a tap on the
		// internal bus may keep the packet past this dispatch.
		if len(data) <= TagRecordSize {
			c.configReject() // a guarded entry that carries no value
			return
		}
		value, rec := data[:len(data)-TagRecordSize], data[len(data)-TagRecordSize:]
		val := c.payloadBuf(len(value), c.internal)
		copy(val, value)
		p := c.pkts.MemWrite(pcie.RoleGuardedWrite, c.authorizedTVM, arg, val)
		c.handleGuardedMMIO(p, rec)
		if c.recycleOn(c.internal) && pcie.Release(p) {
			arena.Put(val) // a register value the host bus already carried
		}
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
// header, followed by the current completion word so a reaping
// producer refreshes both with the same doorbell.
func (c *Controller) ringPostHead(base, head uint64) {
	c.hostWrite64(pcie.RoleRingHead, base, head)
	c.mu.Lock()
	w := c.sess.cplWord
	c.mu.Unlock()
	c.postCompletionWord(base, w)
}

// postCompletionWord DMA-writes w, the cached device command head
// (tagged RingCplValid) its caller read under c.mu, into the ring
// header's completion slot. A zero cache — no doorbell forwarded yet
// this session — posts nothing, leaving the header word invalid so the
// producer falls back to the MMIO read.
func (c *Controller) postCompletionWord(base, w uint64) {
	if w == 0 {
		return
	}
	c.hostWrite64(pcie.RoleCompletionWord, base+RingHdrCplOff, w)
}

// hostWrite64 DMA-writes one ring-header word.
func (c *Controller) hostWrite64(role pcie.Role, addr, v uint64) {
	buf := c.payloadBuf(8, c.hostBus)
	binary.LittleEndian.PutUint64(buf, v)
	c.hostWrite(role, addr, buf)
}

// reapCompletion is the SC half of batched completion reaping: after
// forwarding a doorbell write, read the device's command head once over
// the internal bus and deposit it into the submission ring header. One
// doorbell therefore drains every completion the burst produced; the
// producer's Head() poll becomes a host-memory read, and the per-task
// completion MMIO disappears from the hot path.
func (c *Controller) reapCompletion() {
	if c.internal == nil {
		return
	}
	req := c.pkts.MemRead(pcie.RoleRegRead, c.id, c.xpuBar.Base+c.reapHeadReg, 8, 0)
	cpl := c.internal.Route(req)
	if cpl == nil || cpl.Status != pcie.CplSuccess || staleCpl(req, cpl) || len(cpl.Payload) < 8 {
		return // unreadable head: leave the cache alone, MMIO fallback rules
	}
	head := binary.LittleEndian.Uint64(cpl.Payload)
	if c.recycleOn(c.internal) {
		// The device carves register completions from memory it never
		// reuses; only the two structs come back.
		pcie.Release(cpl)
		pcie.Release(req)
	}
	w := RingCplValid | head
	c.mu.Lock()
	c.sess.cplWord = w
	base := c.sess.ringBase
	c.mu.Unlock()
	if base != 0 {
		c.postCompletionWord(base, w)
	}
}

// ringDesync marks the ring unusable (status word + config reject) and
// refuses to advance. The producer observes the status on its next
// flush and fails closed.
func (c *Controller) ringDesync(base uint64) {
	c.configReject()
	c.hostWrite64(pcie.RoleRingHead, base+8, RingStatusDesync)
}
