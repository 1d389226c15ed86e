package core

import (
	"ccai/internal/arena"
	"ccai/internal/pcie"
	"ccai/internal/secmem"
)

// This file is the SC data-plane pipeline (DESIGN.md §15): the span
// scratch and buffer rules the read and write paths share, and the D2H
// write-span batching.
//
// H2D: a device read of an A2 region is decrypted when it arrives
// (Controller.decryptRead): one host fetch, one tag match and one batch
// open per read of up to MaxReadReq. Nothing is fetched or decrypted
// before the device asks for it, and the SC holds no H2D plaintext
// between device reads. The paper's SC overlaps its AES-GCM engine with
// DMA; that is a property of the hardware, and the analytic model
// charges it (bench.OptSet.OverlapDMA). This functional path runs on
// the goroutine of the device's read, so it has no overlap to show.
//
// D2H: device write bursts (up to MaxReadReq each) are split along the
// chunk grid, accumulated per region (writeSpan) and sealed as one
// engine batch when the span fills, the chunk sequence breaks, the
// metadata cadence is due, or the region completes. SealBatchInto seals
// the batch's chunks in order on its caller, each straight into its slot
// of the span's one host-write buffer, and hands each to emitChunk,
// which writes that slot to host memory before the next chunk is sealed.

// spanChunks is the pipeline granularity in chunks: one device read
// gulp (MaxReadReq) worth of MaxPayload chunks, for both the H2D reads
// and the D2H write-burst spans.
const spanChunks = pcie.MaxReadReq / ChunkSize

// spanScratch is the reusable per-read bookkeeping of decryptRead.
// OpenBatchInto documents that the sealed records are taken by value,
// so the views may be rebuilt in place for every read.
type spanScratch struct {
	sealed [spanChunks]secmem.Sealed
	aads   [spanChunks][]byte
	aadBuf [8 * spanChunks]byte
	ctrs   [spanChunks]uint32
	recs   [spanChunks]TagRecord
	have   [spanChunks]bool
}

// takeScratch grabs the controller's span scratch, or allocates a fresh
// one if a concurrent read holds it. The slot is swapped atomically: a
// read costs no critical section for its bookkeeping.
func (c *Controller) takeScratch() *spanScratch {
	if s := c.scratch.Swap(nil); s != nil {
		return s
	}
	return new(spanScratch)
}

// putScratch returns a span scratch, dropping payload references so
// the scratch does not pin completed read buffers.
func (c *Controller) putScratch(s *spanScratch) {
	for i := range s.sealed {
		s.sealed[i].Ciphertext = nil
	}
	c.scratch.Store(s)
}

// payloadBuf carves an outbound payload (completion plaintext, MWr
// ciphertext): from the shared arena when the platform armed recycling
// and no tap has ever observed bus — the terminal consumer returns the
// buffer after copying — else from the never-reused slab, which is the
// only safe source once a tap may retain routed packets.
func (c *Controller) payloadBuf(n int, bus *pcie.Bus) []byte {
	if c.recycle && bus.Untapped() {
		return arena.Get(n)
	}
	return c.slab.Take(n)
}

// recycleOn reports whether payload buffers that crossed bus may be
// returned to the arena now. Sound only AFTER the route completed: a
// tap installed later never saw the packet (Bus.Untapped is sticky).
func (c *Controller) recycleOn(bus *pcie.Bus) bool {
	return c.recycle && bus.Untapped()
}

// releaseFetch gives back a finished host-bus fetch: the bounce
// payload the host bridge carved from the arena (ciphertext or other
// public bytes, consumed either way) unless keepPayload says a
// completion still aliases it, and both packet structs. Sound only
// after the route returned and the payload was consumed.
func (c *Controller) releaseFetch(req, cpl *pcie.Packet, keepPayload bool) {
	if !c.recycleOn(c.hostBus) {
		return
	}
	payload := cpl.Payload
	if pcie.Release(cpl) && !keepPayload {
		arena.Put(payload)
	}
	pcie.Release(req)
}

// hostWrite DMA-writes body (from payloadBuf on the host bus) to host
// memory and, when the recycling loop is closed, reclaims the payload
// and the packet: the host bridge copies MWr bodies synchronously, so
// after Route the SC is their last holder. Public bytes only
// (ciphertext, marshalled tags, counters).
func (c *Controller) hostWrite(role pcie.Role, addr uint64, body []byte) {
	if c.routeHost(role, addr, body) {
		arena.Put(body)
	}
}

// routeHost DMA-writes body to host memory and reports whether the SC
// got the packet back — it was body's last holder, and body's buffer may
// go back to the arena once nothing else in it is still to be written.
func (c *Controller) routeHost(role pcie.Role, addr uint64, body []byte) bool {
	p := c.pkts.MemWrite(role, c.id, addr, body)
	c.hostBus.Route(p)
	return c.recycleOn(c.hostBus) && pcie.Release(p)
}

// --- D2H write-span batching ------------------------------------------------

// writeSpan accumulates consecutive device D2H plaintext chunks of one
// region and then carries everything its seal needs, so a flush
// allocates nothing. The chunks are views of the device's MWr bursts;
// the device stages DMA payloads in memory it never reuses itself
// (xpu.dmaWrite), so retaining them until the flush — later in the same
// burst, or a Handle call later — is safe and copy-free.
//
// A burst's staging buffer belongs to the span that takes its last
// chunk (owned) and goes back whole when that span retires; the spans
// holding its earlier chunks were sealed before that chunk was staged.
// A chunk view never goes back on its own: a 256-byte view of a 4 KiB
// buffer would enter the arena's 256 B pool while aliasing the larger
// buffer.
//
// A span is in one of two states. While it is its region record's ws it
// is pending and guarded by c.mu. Once stageLocked has taken it out for
// sealing it belongs to the sealing goroutine alone — past every
// critical section, which is why it is pooled on its own freelist
// (wsFree) and not with the records — until finishSpan puts the shell
// back.
type writeSpan struct {
	start    uint32 // chunk index of pts[0]
	next     uint32 // chunk index that extends the span
	pts      [][]byte
	ptsArr   [spanChunks][]byte
	owned    [][]byte
	ownedArr [spanChunks][]byte
	// verdict is what every TLP staged in the span classified to; the
	// span's one encrypt_write span reports it for all of them.
	verdict Verdict

	// Seal-time state, filled when the span is detached.
	c      *Controller
	desc   Descriptor
	aads   [spanChunks][]byte
	aadBuf [8 * spanChunks]byte
	// out is the span's host-write buffer: the chunks are sealed straight
	// into it and each chunk's MWr carries its slot. held means out may
	// never be reused: it came from the slab, or a chunk's packet did not
	// come back (a tap may keep it).
	out  []byte
	held bool
	// tags holds the sealed chunks' records not yet deposited, for
	// chunks tagStart, tagStart+1, …; run is how many of them reach the
	// next tag-table or metadata write (region.tagRun), which is when
	// they are deposited — so those writes keep their place among the
	// ciphertext writes.
	tags     [tagSpanRecords]TagRecord
	nTags    int
	run      int
	tagStart uint32
	writes   []hostWr // depositTags' scratch
	// emit is emitChunk bound to this shell, made once per shell.
	emit func(i int, chunk *secmem.Sealed) error
}

// hostWr is one host-memory write decided under c.mu and routed after
// it is released (routing can reenter the controller).
type hostWr struct {
	role pcie.Role
	addr uint64
	body []byte
}

// stageLocked buffers the chunks of data — the rest of a device write
// burst, from chunk on — in r's pending span; its caller holds c.mu, one
// critical section for a span's worth of chunks. When a chunk completes
// the span (it is full, the region is complete, or the metadata publish
// cadence is due: the progress counter must never claim chunks whose
// ciphertext and tags are still buffered) the span comes back detached,
// ready for sealSpan, and the chunks after it are left for the next
// call; staged counts the chunks taken. When the pending span cannot
// absorb the burst — a sequence break — nothing is staged and the
// pending span comes back detached: the caller seals it and stages
// again. A burst that classified differently from the pending span's
// TLPs (the rule table changed under the burst) breaks it the same way.
// Nothing staged and nothing detached means the region is gone (r is
// nil). The span that takes the burst's last chunk takes owner, its
// staging buffer, with it.
func (c *Controller) stageLocked(r *region, chunk uint32, data, owner []byte, verdict Verdict) (staged int, flush *writeSpan) {
	if r == nil {
		return 0, nil
	}
	cs := int(r.desc.ChunkSize)
	total := uint64(chunkCount(r.desc))
	span := r.ws
	switch {
	case span == nil:
		span = c.wsSpare.Swap(nil)
		if n := len(c.wsFree); span == nil && n > 0 {
			span = c.wsFree[n-1]
			c.wsFree = c.wsFree[:n-1]
		}
		if span == nil {
			span = &writeSpan{c: c}
			span.emit = span.emitChunk
		}
		span.start, span.next, span.verdict = chunk, chunk, verdict
		span.pts, span.owned = span.ptsArr[:0], span.ownedArr[:0]
		r.ws = span
	case chunk != span.next || verdict != span.verdict:
		return 0, r.detach()
	}
	buffered := r.d2hDone + uint64(len(span.pts))
	for len(data) > 0 {
		n := min(cs, len(data))
		span.pts = append(span.pts, data[:n:n])
		data = data[n:]
		span.next++
		staged++
		buffered++
		if len(data) == 0 {
			span.owned = append(span.owned, owner)
		}
		if len(span.pts) == spanChunks || buffered >= total || buffered%metaPublishEvery == 0 {
			return staged, r.detach()
		}
	}
	return staged, nil
}

// sealSpan seals a detached span's chunks as one batch and moves them
// to host memory. SealBatchInto seals the chunks in order on this
// goroutine straight into the span's one host-write buffer — TagSize
// over, so every chunk seals in place — and hands each to emitChunk,
// which routes its ciphertext DMA and tag deposit before the next chunk
// is sealed. Returns false only when the batch failed (engine fault,
// missing stream): the buffered chunks are dropped and the caller fails
// closed. A nil span is an empty flush.
//
// The seal is the one encrypt_write span of all its chunk writes:
// region, first chunk, chunk and byte counts, and the action and rule
// those TLPs classified to (they recorded no span of their own).
func (c *Controller) sealSpan(span *writeSpan) bool {
	if span == nil {
		return true
	}
	k, bytes := len(span.pts), 0
	for _, pt := range span.pts {
		bytes += len(pt)
	}
	if tr := c.tracer; tr != nil {
		sp := tr.Start(siteEncryptWrite, keyRegion.U64(uint64(span.desc.ID)),
			keyChunk.U64(uint64(span.start)), keyChunks.I64(int64(k)), keyBytes.I64(int64(bytes)),
			keyAction.Str(actionSym(span.verdict.Action)), keyRule.U64(uint64(span.verdict.Rule)))
		defer sp.End()
	}
	stream, err := c.params.Stream(StreamD2H)
	if err == nil {
		for i := 0; i < k; i++ {
			ab := span.aadBuf[8*i : 8*i+8 : 8*i+8]
			span.desc.PutAAD((*[8]byte)(ab), span.start+uint32(i))
			span.aads[i] = ab
		}
		span.out = c.payloadBuf(bytes+secmem.TagSize, c.hostBus)
		span.held = !c.recycleOn(c.hostBus)
		err = stream.SealBatchInto(span.out, span.pts, span.aads[:k], span.emit)
	}
	if span.nTags > 0 {
		// Records past the last publish point: buffered for the span that
		// continues the region, no write due.
		c.depositTags(span)
	}
	c.finishSpan(span, err == nil)
	return err == nil
}

// emitChunk is SealBatchInto's emit stage for this span's seal. The
// ciphertext is the chunk's slot of the span's host-write buffer, which
// payloadBuf carved where the host bridge cannot still be sharing it
// (arena when the recycling loop is closed, never-recycled slab
// otherwise); the MWr carries the slot itself, and no later seal of the
// span writes into it.
func (span *writeSpan) emitChunk(i int, chunk *secmem.Sealed) error {
	c := span.c
	cs := uint64(span.desc.ChunkSize)
	if !c.routeHost(pcie.RoleD2HData, span.desc.Base+uint64(span.start+uint32(i))*cs, chunk.Ciphertext) {
		span.held = true
	}
	span.tags[span.nTags] = TagRecord{Stream: StreamD2H, Chunk: chunk.Counter, Epoch: chunk.Epoch, Tag: chunk.Tag}
	span.nTags++
	if span.nTags == span.run {
		c.depositTags(span)
	}
	return nil
}

// finishSpan retires a sealed or dropped span: the staging buffers it
// owns go back (retireStaging), its host-write buffer goes back whole
// unless held (ciphertext: public bytes), and the shell returns to the
// freelist — the spare slot if it is empty, which takes no lock.
func (c *Controller) finishSpan(span *writeSpan, sealed bool) {
	for _, b := range span.owned {
		c.retireStaging(b)
	}
	if span.out != nil && !span.held {
		arena.Put(span.out)
	}
	clear(span.owned)
	clear(span.pts)
	span.pts, span.owned, span.out, span.held = nil, nil, nil, false
	if sealed {
		c.sealedSpans.Add(1)
	}
	if c.wsSpare.CompareAndSwap(nil, span) {
		return
	}
	c.mu.Lock()
	if len(c.wsFree) < 4 {
		c.wsFree = append(c.wsFree, span)
	}
	c.mu.Unlock()
}

// retireStaging gives back a device write burst's staging buffer once
// none of its chunks is buffered: zeroed into the arena when the SC is
// provably its last holder — it came from the device's arena-backed MWr
// staging whenever the internal bus is still untapped (the platform
// wires both ends of that contract); otherwise it is memory the device
// never reuses, and dropping the reference is all the SC may do.
func (c *Controller) retireStaging(b []byte) {
	if c.recycleOn(c.internal) {
		arena.PutZero(b) // device plaintext
	}
}
