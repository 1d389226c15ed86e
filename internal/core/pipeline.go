package core

import (
	"ccai/internal/arena"
	"ccai/internal/pcie"
	"ccai/internal/secmem"
)

// This file is the SC data-plane pipeline (DESIGN.md §15): the
// decrypt/DMA overlap machinery that turns the serial
// fetch→decrypt→serve / receive→seal→store chunk loops into the mirror
// image of the Adaptor's StageH2D seal-vs-submit pipeline.
//
// H2D: while the device consumes span i's completion DMA, the SC
// speculatively fetches and batch-decrypts span i+1 into a one-entry
// plaintext cache (spanCache). The device's strictly sequential
// MaxReadReq gulps make the next span perfectly predictable; a cache
// hit serves plaintext whose crypto already ran under the previous
// span's DMA shadow, so the steady-state per-span cost is
// max(crypto, DMA) plus one pipeline fill, not their sum.
//
// D2H: device write bursts (up to MaxReadReq each) are split along the
// chunk grid, accumulated per region (writeSpan) and sealed as one
// engine batch when the span fills, the chunk sequence breaks, the
// metadata cadence is due, or the region completes. The batch runs
// through SealBatchStream, so chunk i's ciphertext DMA to host memory
// is issued from the emit callback while the engine is already sealing
// chunks > i — the same overlap, pointed the other way.
//
// Both sides are speculation-safe: a prefetch that cannot complete
// cleanly (missing tag, stale counter, corrupt fetch) backs out
// without consuming tag records or counting failures, and the demand
// path then runs the full acceptance ladder exactly as before.

// spanChunks is the pipeline granularity in chunks: one device read
// gulp (MaxReadReq) worth of MaxPayload chunks, for both the H2D
// prefetch spans and the D2H write-burst spans.
const spanChunks = pcie.MaxReadReq / ChunkSize

// spanScratch is the reusable per-span bookkeeping for the H2D batch
// paths. OpenBatchInto documents that the sealed records are taken by
// value, so the views may be rebuilt in place for every span.
type spanScratch struct {
	sealed [spanChunks]secmem.Sealed
	aads   [spanChunks][]byte
	aadBuf [8 * spanChunks]byte
	ctrs   [spanChunks]uint32
	recs   [spanChunks]TagRecord
	have   [spanChunks]bool
}

// takeScratch grabs a span scratch from the two-slot pool, or
// allocates a fresh one if both are in use (re-entrant span handling).
// The slots are swapped atomically: a span costs no critical section
// for its bookkeeping.
func (c *Controller) takeScratch() *spanScratch {
	for i := range c.scratchPool {
		if s := c.scratchPool[i].Swap(nil); s != nil {
			return s
		}
	}
	return new(spanScratch)
}

// putScratch returns a span scratch, dropping payload references so
// the scratch does not pin completed span buffers.
func (c *Controller) putScratch(s *spanScratch) {
	for i := range s.sealed {
		s.sealed[i].Ciphertext = nil
	}
	for i := range c.scratchPool {
		if c.scratchPool[i].CompareAndSwap(nil, s) {
			return
		}
	}
}

// --- H2D decrypt-ahead ------------------------------------------------------

// spanCache is the one-entry plaintext cache behind the H2D overlap:
// the next span's decrypted bytes, keyed by exactly the (region, addr,
// length) triple the device must request for them.
type spanCache struct {
	valid  bool
	region uint32
	addr   uint64
	length uint32
	pt     []byte // slab-carved; ownership transfers to the hit's completion
}

// takeCachedSpan serves a span read from the decrypt-ahead cache. On a
// hit the plaintext's ownership moves to the caller (it becomes the
// completion payload) and the entry clears.
func (c *Controller) takeCachedSpan(region uint32, addr uint64, length uint32) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.pf.valid || c.pf.region != region || c.pf.addr != addr || c.pf.length != length {
		return nil, false
	}
	pt := c.pf.pt
	c.pf = spanCache{}
	c.stats.PrefetchHits++
	return pt, true
}

// installCachedSpan publishes a prefetched span together with its
// bookkeeping — the accepted records and the chunk counts — in the one
// critical section a prefetched span costs, zeroizing any entry it
// displaces (the cache holds decrypted secrets in SC-local memory).
func (c *Controller) installCachedSpan(desc Descriptor, addr uint64, first uint32, recs []TagRecord, pt []byte) {
	k := uint64(len(recs))
	c.mu.Lock()
	region := c.verifiedFor(desc.ID, chunkCount(desc))
	for i := range recs {
		region.put(first+uint32(i), &recs[i])
	}
	c.stats.DecryptedChunks += k
	c.stats.PrefetchedChunks += k
	old := c.pf.pt
	c.pf = spanCache{valid: true, region: desc.ID, addr: addr, length: uint32(len(pt)), pt: pt}
	c.mu.Unlock()
	c.retireCachedPt(old)
}

// dropSpanCache invalidates the decrypt-ahead cache if it belongs to
// region (descriptor release or reinstall); region == ^0 drops any
// entry (rekey, teardown). The orphaned plaintext is zeroized.
func (c *Controller) dropSpanCache(region uint32) {
	c.mu.Lock()
	var old []byte
	if c.pf.valid && (region == ^uint32(0) || c.pf.region == region) {
		old = c.pf.pt
		c.pf = spanCache{}
	}
	c.mu.Unlock()
	c.retireCachedPt(old)
}

// retireCachedPt zeroizes an evicted decrypt-ahead plaintext and, when
// it provably came from the arena (payloadBuf carved it there, and the
// sticky Untapped gate cannot have flipped back), returns it to the
// pool instead of leaving it for the GC.
func (c *Controller) retireCachedPt(b []byte) {
	if b == nil {
		return
	}
	if c.recycleOn(c.internal) {
		arena.PutZero(b)
		return
	}
	zero(b)
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
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
func (c *Controller) hostWrite(addr uint64, body []byte) {
	p := c.pkts.MemWrite(c.id, addr, body)
	c.hostBus.Route(p)
	if c.recycleOn(c.hostBus) && pcie.Release(p) {
		arena.Put(body)
	}
}

// prefetchSpan speculatively fetches and decrypts the span at addr —
// the read the device is predicted to issue next — into the cache.
// Every early return is silent: speculation must not consume tag
// records, advance failure counters, or reject anything; the demand
// path owns the acceptance ladder.
func (c *Controller) prefetchSpan(desc Descriptor, addr uint64) {
	end := desc.Base + desc.Len
	if addr < desc.Base || addr >= end || desc.Slotted {
		// A step window's next slots belong to steps not sealed yet.
		return
	}
	cs := uint64(desc.ChunkSize)
	if cs == 0 {
		cs = ChunkSize
	}
	if (addr-desc.Base)%cs != 0 {
		return
	}
	n := uint64(pcie.MaxReadReq)
	if end-addr < n {
		n = end - addr
	}
	first := uint32((addr - desc.Base) / cs)
	k := int((n + cs - 1) / cs)
	if k > spanChunks {
		return
	}
	// Probe before committing: if any tag is still in flight the span
	// is not ready, and the fetch would be wasted.
	ctr := desc.FirstCounter + first
	if !c.tags.HasSpan(StreamH2D, ctr, k) {
		return
	}
	stream, err := c.params.Stream(StreamH2D)
	if err != nil {
		return
	}
	req := c.pkts.MemRead(c.id, addr, uint32(n), 0)
	cpl := c.hostBus.Route(req)
	if cpl == nil || cpl.Status != pcie.CplSuccess || staleCpl(req, cpl) {
		return
	}
	sc := c.takeScratch()
	defer c.putScratch(sc)
	// All or nothing: a partial set would steal records the demand path
	// needs, so a span that raced away since the probe takes none.
	recs := sc.recs[:k]
	if !c.tags.TakeSpan(StreamH2D, ctr, recs) {
		return
	}
	pt := c.payloadBuf(int(n), c.internal)
	for i := 0; i < k; i++ {
		chunk := first + uint32(i)
		lo := uint64(i) * cs
		hi := lo + cs
		if hi > n {
			hi = n
		}
		sc.sealed[i] = secmem.Sealed{
			Counter:    desc.FirstCounter + chunk,
			Epoch:      recs[i].Epoch,
			Ciphertext: cpl.Payload[lo:hi],
			Tag:        recs[i].Tag,
		}
		ab := sc.aadBuf[8*i : 8*i+8 : 8*i+8]
		desc.PutAAD((*[8]byte)(ab), chunk)
		sc.aads[i] = ab
	}
	err = stream.OpenBatchInto(pt, sc.sealed[:k], sc.aads[:k], nil)
	c.releaseFetch(req, cpl, false)
	if err != nil {
		// Back out: the records return to the queue and the demand read
		// re-runs the full ladder (per-chunk fallback, fail-closed).
		c.tags.Enqueue(recs...)
		return
	}
	c.installCachedSpan(desc, addr, first, recs, pt)
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
// A span is in one of two states. While it is in Controller.wspans it
// is pending and guarded by c.mu. Once stageWrite or detachSpan has
// taken it out for sealing it belongs to the sealing goroutine alone,
// until finishSpan puts the shell back on the freelist.
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
	// tags holds the sealed chunks' records not yet deposited, for
	// chunks tagStart, tagStart+1, …; run is how many of them reach the
	// next tag-table or metadata write (tagRunLocked), which is when
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
	addr uint64
	body []byte
}

// stageWrite buffers the chunks of data — the rest of a device write
// burst, from chunk on — in the region's pending span, in the one
// critical section a span's worth of them costs. When a chunk completes
// the span (it is full, the region is complete, or the metadata publish
// cadence is due: the progress counter must never claim chunks whose
// ciphertext and tags are still buffered) the span comes back detached,
// ready for sealSpan, and the chunks after it are left for the next
// call; staged counts the chunks taken. When the pending span cannot
// absorb the burst — a sequence break — nothing is staged: the caller
// seals the detachSpan'd span and stages again. A burst that classified
// differently from the pending span's TLPs (the rule table changed
// under the burst) breaks it the same way. The span that takes the
// burst's last chunk takes owner, its staging buffer, with it.
func (c *Controller) stageWrite(desc Descriptor, chunk uint32, data, owner []byte, verdict Verdict) (staged int, flush *writeSpan) {
	cs := int(desc.ChunkSize)
	total := uint64(chunkCount(desc))
	c.mu.Lock()
	defer c.mu.Unlock()
	span := c.wspans[desc.ID]
	switch {
	case span == nil:
		if n := len(c.wsFree); n > 0 {
			span = c.wsFree[n-1]
			c.wsFree = c.wsFree[:n-1]
		} else {
			span = &writeSpan{c: c}
			span.emit = span.emitChunk
		}
		span.start, span.next, span.verdict = chunk, chunk, verdict
		span.pts, span.owned = span.ptsArr[:0], span.ownedArr[:0]
		c.wspans[desc.ID] = span
	case chunk != span.next || verdict != span.verdict:
		return 0, nil
	}
	buffered := c.d2hChunks[desc.ID] + uint64(len(span.pts))
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
			c.detachLocked(desc, span)
			return staged, span
		}
	}
	return staged, nil
}

// detachSpan takes the region's pending span out for sealing; nil when
// there is none.
func (c *Controller) detachSpan(desc Descriptor) *writeSpan {
	c.mu.Lock()
	defer c.mu.Unlock()
	span := c.wspans[desc.ID]
	if span != nil {
		c.detachLocked(desc, span)
	}
	return span
}

// detachLocked hands span to the caller for sealing. Caller holds c.mu.
func (c *Controller) detachLocked(desc Descriptor, span *writeSpan) {
	delete(c.wspans, desc.ID)
	span.desc = desc
	span.nTags, span.tagStart = 0, span.start
	span.run = c.tagRunLocked(desc, span.start)
}

// sealSpan seals a detached span's chunks as one batch and moves them
// to host memory. SealBatchStream delivers sealed chunks in order to
// emitChunk, which routes chunk i's ciphertext DMA and tag deposit
// while the engine is already sealing chunks > i — the D2H half of the
// decrypt/DMA overlap. Returns false only when the batch failed (engine
// fault, missing stream): the buffered chunks are dropped and the
// caller fails closed. A nil span is an empty flush.
//
// The seal is the one encrypt_write span of all its chunk writes:
// region, first chunk, chunk and byte counts, and the action and rule
// those TLPs classified to (they recorded no span of their own).
func (c *Controller) sealSpan(span *writeSpan) bool {
	if span == nil {
		return true
	}
	k := len(span.pts)
	if tr := c.tracer; tr != nil {
		bytes := 0
		for _, pt := range span.pts {
			bytes += len(pt)
		}
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
		err = stream.SealBatchStream(span.pts, span.aads[:k], nil, span.emit)
	}
	if span.nTags > 0 {
		// Records past the last publish point: buffered for the span that
		// continues the region, no write due.
		c.depositTags(span)
	}
	c.finishSpan(span, err == nil)
	return err == nil
}

// emitChunk is SealBatchStream's emit stage for this span's seal. The
// sealed ciphertext is engine-internal memory reclaimed when emit
// returns; the copy into a buffer the host bridge cannot still be
// sharing (arena when the recycling loop is closed, never-recycled slab
// otherwise) is what makes the packet payload safe to route.
func (span *writeSpan) emitChunk(i int, chunk *secmem.Sealed) error {
	c := span.c
	cs := uint64(span.desc.ChunkSize)
	ctBuf := c.payloadBuf(len(chunk.Ciphertext), c.hostBus)
	copy(ctBuf, chunk.Ciphertext)
	c.hostWrite(span.desc.Base+uint64(span.start+uint32(i))*cs, ctBuf)
	span.tags[span.nTags] = TagRecord{Stream: StreamD2H, Chunk: chunk.Counter, Epoch: chunk.Epoch, Tag: chunk.Tag}
	span.nTags++
	if span.nTags == span.run {
		c.depositTags(span)
	}
	return nil
}

// finishSpan retires a sealed or dropped span: the staging buffers it
// owns go back (retireStaging), and the shell returns to the freelist.
func (c *Controller) finishSpan(span *writeSpan, sealed bool) {
	for _, b := range span.owned {
		c.retireStaging(b)
	}
	clear(span.owned)
	clear(span.pts)
	span.pts, span.owned = nil, nil
	c.mu.Lock()
	if sealed {
		c.stats.BatchedD2HSpans++
	}
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

// dropWriteSpan discards a region's buffered, unsealed chunks
// (descriptor release or reinstall).
func (c *Controller) dropWriteSpan(region uint32) {
	c.mu.Lock()
	span := c.wspans[region]
	delete(c.wspans, region)
	c.mu.Unlock()
	if span != nil {
		c.finishSpan(span, false)
	}
}
