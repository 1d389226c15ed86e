package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ccai/internal/arena"
	"ccai/internal/obsv"
	"ccai/internal/pcie"
	"ccai/internal/secmem"
)

// PCIe-SC control register offsets within its own 4 KB Upstream BAR
// (§7.2: "we allocate a 4KB Upstream Bar space on the PCIe-SC"). This is
// the whole map: sealed configuration, tag and MAC records and notifies
// have no register — they arrive as submission-ring entries (ring.go) —
// and a write to any other offset is a config reject.
const (
	RegSCStatus     = 0x000 // RO: status bits
	RegTeardown     = 0x028 // WO: destroy keys, clean xPU, drop regions
	RegMetaBase     = 0x030 // RW: host address of the DMA-metadata batch buffer
	RegMetaSize     = 0x038 // RW: batch buffer size
	RegMMIOSeq      = 0x050 // RO: next expected A3 MMIO sequence number (recovery resync)
	RegRingBase     = 0x058 // RW: host address of the submission ring
	RegRingSize     = 0x060 // RW: submission ring slot count
	RegRingDoorbell = 0x068 // WO: publish ring entries up to the written tail index
	SCBarSize       = 0x1000
)

// Status bits.
const (
	SCStatusReady     = 1 << 0
	SCStatusConfigErr = 1 << 1
)

// Stats aggregates the controller's observable behaviour for the
// security evaluation and the trace tooling.
type Stats struct {
	Filter          FilterStats
	DecryptedChunks uint64
	// EncryptedChunks counts D2H chunks at their tag deposit, so a span
	// whose seal fails part-way counts the chunks it had emitted.
	EncryptedChunks uint64
	VerifiedChunks  uint64
	AuthFailures    uint64
	ConfigRejects   uint64
	GuardBlocks     uint64
	Teardowns       uint64
	// DuplicateReads counts benign retransmits re-served from the
	// verified-chunk record (duplicate-read suppression): the chunk was
	// re-fetched and re-authenticated against its retained tag without
	// advancing the stream counter, so recovery never weakens the
	// replay discipline.
	DuplicateReads uint64
	// PrefetchHits is always 0: the SC decrypts a device read when it
	// arrives and keeps no decrypt-ahead cache to hit. It stays because
	// the benchmark of record (benchmark/counts.go) still reads it.
	PrefetchHits uint64
	// BatchedD2HSpans counts the write spans — runs of up to
	// MaxReadReq/ChunkSize consecutive D2H chunks of one region — the SC
	// sealed as one engine batch instead of one engine dispatch per chunk.
	BatchedD2HSpans uint64
}

// Controller is the PCIe Security Controller. On the host bus it is a
// Mux unit owning (a) its own control BAR and (b) a shadow window over
// the xPU's BAR0, so all host→device MMIO lands here first. On the
// internal bus it is the upstream port through which all device DMA and
// MSI traffic must pass. Every packet in both directions crosses the
// Packet Filter.
type Controller struct {
	id      pcie.ID
	bar     pcie.Region
	hostBus *pcie.Bus

	internal *pcie.Bus
	xpuBar   pcie.Region

	filter *Filter
	params *ParamsManager
	tags   *TagManager
	guard  *EnvGuard

	// mu guards the controller's own mutable state below (sess, status,
	// stats and the freelists) and the tag manager's queue, which shares
	// it: a handler matches, arms or discards a region's tag records in
	// the critical section it takes for the region anyway. The other
	// control panels (filter, params, guard) read published snapshots or
	// carry their own leaf locks and may be called while mu is held; mu
	// is NEVER held across a bus Route call — routing can reenter this
	// controller on the same goroutine (doorbell → DMA upstream).
	mu sync.Mutex

	// sess is everything the session programs, one record per live
	// region included; Teardown swaps it out whole.
	sess session
	// regFree pools retired region records, zeroed, with the tables they
	// grew, so a task stream installs without allocating.
	regFree []*region
	// wsFree recycles writeSpan shells between flushes (the steady-state
	// D2H loop otherwise allocates one per span). A detached span belongs
	// to its sealing goroutine past any critical section, so it is
	// pooled apart from the records.
	wsFree []*writeSpan
	// wsSpare is the shell retired last, handed back with a swap and no
	// critical section; wsFree takes the shells that find it full.
	wsSpare atomic.Pointer[writeSpan]
	// sealedSpans is Stats().BatchedD2HSpans, an atomic so that retiring
	// a span takes no critical section.
	sealedSpans atomic.Uint64

	status uint64

	// scratch holds the reusable span bookkeeping (counters, tag
	// records, sealed views, AADs) of decryptRead. It is swapped
	// atomically (no lock); a read that finds it taken allocates its
	// own.
	scratch atomic.Pointer[spanScratch]

	// recycle arms the datapath's payload-recycling fast paths: bounce
	// fetches, ciphertext staging and retained device write payloads
	// return to the shared arena once their last holder is done with
	// them. Only the platform enables this (EnableDatapathRecycling),
	// because it is sound solely under the platform's wiring contract —
	// every data-plane payload originates from the arena-aware device
	// and host-bridge paths, and every recycling site re-checks
	// Bus.Untapped after routing. Controllers driven directly by tests
	// keep the never-reuse discipline.
	recycle bool

	// Completion reaping (ring.go): after forwarding a guarded write to
	// reapDoorbellReg the SC reads the device head from reapHeadReg and
	// caches it in sess.cplWord for the ring-header writeback. The
	// register offsets are assembly-time configuration — the platform
	// knows the device layout, the SC does not.
	reapConfigured  bool
	reapDoorbellReg uint64
	reapHeadReg     uint64

	// authorizedTVM is the one requester the control BAR answers: the
	// sealed-blob crypto already stops policy forgery; this check also
	// denies everyone else the DoS-ish knobs (teardown, metadata
	// redirection). Mux.AddUnit sets it.
	authorizedTVM pcie.ID

	// slab and pkts amortize the SC's per-chunk heap traffic: slab
	// carves never-recycled payload bytes (safe to hand to bus taps),
	// pkts hands out the packet structs, which come back only from
	// their last holder on an untapped bus (pcie.PacketArena).
	slab arena.Slab
	pkts pcie.PacketArena

	// stats is the one cell of every count Stats reports but the filter's
	// and BatchedD2HSpans (sealedSpans); the metrics registry reads it
	// (SetObserver).
	stats Stats

	// tracer records the SC's spans; nil is the untraced state, and every
	// Start/Mark on it is a nil check.
	tracer *obsv.Tracer

	// onTeardown lets the platform hook environment cleaning.
	onTeardown func()
}

// SetObserver instruments the controller and its control panels
// (filter, params manager, tag manager): the hub's registry reads the
// counts Stats returns, and its tracer records spans. A nil hub stops
// the tracing; a registry keeps its reads.
func (c *Controller) SetObserver(h *obsv.Hub) {
	c.filter.SetObserver(h)
	c.params.SetObserver(h, obsv.TrackCrypto+"/sc")
	c.tags.SetObserver(h)
	c.tracer = h.T()
	reg := h.Reg()
	reg.CounterFunc("sc.decrypted_chunks", func() uint64 { return c.Stats().DecryptedChunks })
	reg.CounterFunc("sc.encrypted_chunks", func() uint64 { return c.Stats().EncryptedChunks })
	reg.CounterFunc("sc.verified_chunks", func() uint64 { return c.Stats().VerifiedChunks })
	reg.CounterFunc("sc.auth_failures", func() uint64 { return c.Stats().AuthFailures })
	reg.CounterFunc("sc.config_rejects", func() uint64 { return c.Stats().ConfigRejects })
	reg.CounterFunc("sc.guard_blocks", func() uint64 { return c.Stats().GuardBlocks })
	reg.CounterFunc("sc.teardowns", func() uint64 { return c.Stats().Teardowns })
	reg.CounterFunc("sc.duplicate_reads", func() uint64 { return c.Stats().DuplicateReads })
}

// EnableDatapathRecycling arms the arena-recycling fast paths (see the
// recycle field). Platform assembly only; call before traffic flows.
func (c *Controller) EnableDatapathRecycling() {
	c.mu.Lock()
	c.recycle = true
	c.mu.Unlock()
}

// chunkCount reports the descriptor's region size in chunks.
func chunkCount(desc Descriptor) int {
	cs := uint64(desc.ChunkSize)
	if cs == 0 {
		cs = ChunkSize
	}
	return int((desc.Len + cs - 1) / cs)
}

// authFailed counts one integrity failure. It takes c.mu and must not
// be called with it held.
func (c *Controller) authFailed() {
	c.mu.Lock()
	c.stats.AuthFailures++
	c.mu.Unlock()
}

// tagMatchEachLocked wraps TagManager.TakeEach in a tag_match span:
// the records of a read — one chunk's or a whole span's — leave the tag
// queue in one operation. Callers hold c.mu, the tag manager's lock.
func (c *Controller) tagMatchEachLocked(stream string, ctrs []uint32, recs []TagRecord, have []bool) bool {
	var sp obsv.ActiveSpan
	if tr := c.tracer; tr != nil {
		sp = tr.Start(siteTagMatch, keyStream.Str(streamSym(stream)),
			keyChunk.U64(uint64(ctrs[0])), keyChunks.I64(int64(len(ctrs))))
	}
	all := c.tags.takeEachLocked(stream, ctrs, recs, have)
	sp.Set(keyMatched.Bool(all))
	sp.End()
	return all
}

// tagMatchLocked is tagMatchEachLocked for one chunk.
func (c *Controller) tagMatchLocked(stream string, chunk uint32) (TagRecord, bool) {
	var rec [1]TagRecord
	var have [1]bool
	c.tagMatchEachLocked(stream, []uint32{chunk}, rec[:], have[:])
	return rec[0], have[0]
}

// NewController builds a PCIe-SC with the given identity and control
// BAR placement, guarding the xPU whose BAR0 shadow window is xpuBar.
func NewController(id pcie.ID, bar pcie.Region, keys *secmem.KeyStore) *Controller {
	c := &Controller{
		id:     id,
		bar:    bar,
		filter: NewFilter(),
		params: NewParamsManager(keys),
		guard:  NewEnvGuard(),
		status: SCStatusReady,
	}
	c.tags = newTagManager(&c.mu)
	return c
}

// Attach wires the controller's one attachment: the trusted internal
// segment holding the xPU, the xPU's BAR0 shadow window and the host bus
// the SC masters DMA on. It claims nothing on the host bus: the SC's
// host-side presence is a Mux unit (Mux.AddUnit), which also pins the
// one TVM allowed to drive the control BAR. Assembly-time
// configuration: call before traffic flows.
func (c *Controller) Attach(internal *pcie.Bus, window pcie.Region, host *pcie.Bus) {
	c.internal = internal
	c.xpuBar = window
	c.hostBus = host
}

// Keys exposes the controller's trust-module key store for
// provisioning during trust establishment.
func (c *Controller) Keys() *secmem.KeyStore { return c.params.keys }

// SCStatusBits reports the controller's status register value.
func (c *Controller) SCStatusBits() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.status
}

// DeviceID implements pcie.Endpoint.
func (c *Controller) DeviceID() pcie.ID { return c.id }

// Filter exposes the Packet Filter for rule installation during secure
// boot (static platform rules) and for statistics.
func (c *Controller) Filter() *Filter { return c.filter }

// Params exposes the De/Encryption Parameters Manager for trust
// establishment.
func (c *Controller) Params() *ParamsManager { return c.params }

// Guard exposes the environment guard for platform check installation.
func (c *Controller) Guard() *EnvGuard { return c.guard }

// Tags exposes the Authentication Tag Manager (tests and tooling).
func (c *Controller) Tags() *TagManager { return c.tags }

// Stats snapshots controller counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	s := c.stats
	c.mu.Unlock()
	s.Filter = c.filter.Stats()
	s.BatchedD2HSpans = c.sealedSpans.Load()
	return s
}

// SetTeardownHook installs a platform callback run after Teardown.
func (c *Controller) SetTeardownHook(fn func()) { c.onTeardown = fn }

// Regions reports live protected regions (tests). Everything the SC
// holds for a region — its descriptor, D2H progress, pending tag records
// and write span, accepted-chunk records, step-window slots — lives in
// that region's one record, so this count covers all of it: a leak
// check that reads it sees every per-region thing the SC could leak.
func (c *Controller) Regions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sess.regions)
}

// ConfigureCompletionReap enables batched completion reaping: after
// every guarded write the SC forwards to doorbellReg (BAR0-relative),
// it reads headReg from the device and DMA-writes the value into the
// submission ring header (ring.go). Assembly-time configuration: call
// before traffic flows, never concurrently with it.
func (c *Controller) ConfigureCompletionReap(doorbellReg, headReg uint64) {
	c.reapConfigured = true
	c.reapDoorbellReg = doorbellReg
	c.reapHeadReg = headReg
}

// --- host-side traffic ------------------------------------------------------

// Handle implements pcie.Endpoint for packets arriving from the host
// bus: control-BAR accesses and shadowed xPU MMIO.
func (c *Controller) Handle(p *pcie.Packet) *pcie.Packet {
	if c.bar.Contains(p.Address) && (p.Kind == pcie.MRd || p.Kind == pcie.MWr) {
		return c.handleControl(p)
	}
	verdict := c.filter.Classify(p)
	switch verdict.Action {
	case ActionDrop:
		return c.reject(p)
	case ActionPassThrough:
		return c.forwardToDevice(p)
	case ActionWriteProtect:
		return c.handleGuardedMMIO(p, nil)
	case ActionWriteReadProtect:
		// Sensitive MMIO (command payloads addressed at ccAI hardware,
		// Figure 5 L2 row 1) must arrive as sealed submission-ring
		// entries; anything else here is misrouted.
		return c.reject(p)
	}
	return c.reject(p)
}

func (c *Controller) reject(p *pcie.Packet) *pcie.Packet {
	if p.Kind == pcie.MRd || p.Kind == pcie.CfgRd || p.Kind == pcie.CfgWr {
		return pcie.NewCompletion(p, c.id, pcie.CplUR, nil)
	}
	return nil
}

func (c *Controller) forwardToDevice(p *pcie.Packet) *pcie.Packet {
	cpl := c.internal.Route(p)
	c.pinRelayed(c.internal, p, cpl)
	if staleCpl(p, cpl) {
		// A completion answering a different transaction (delayed,
		// duplicated, or misrouted on the device segment) must never be
		// forwarded across the boundary: the stale payload may be
		// plaintext the SC decrypted for the device.
		c.authFailed()
		return c.reject(p)
	}
	return cpl
}

// pinRelayed is the relay half of the packet-recycling contract
// (pcie.PacketArena): p was built by an agent on the other bus and its
// completion goes back there, and neither end can see far. When far
// has a tap after the relayed route returned, the tap may have kept
// either packet, so both leave recycling for good.
func (c *Controller) pinRelayed(far *pcie.Bus, p, cpl *pcie.Packet) {
	if !far.Untapped() {
		pcie.Pin(p)
		pcie.Pin(cpl)
	}
}

// staleCpl reports whether cpl answers a transaction other than req:
// a mismatched transaction tag or requester ID marks a stale or
// foreign completion, which the SC fails closed on rather than carry
// across the trust boundary in either direction.
func staleCpl(req, cpl *pcie.Packet) bool {
	if cpl == nil || (cpl.Kind != pcie.Cpl && cpl.Kind != pcie.CplD) {
		return false
	}
	return cpl.Requester != req.Requester || cpl.Tag != req.Tag
}

// handleGuardedMMIO applies action A3 to control traffic: the write's
// MAC record must already sit in the tag queue (the Adaptor posts it
// before issuing the write), and guarded registers must pass the
// environment checks. carried is the wire record a guarded ring entry
// carries behind its value (nil for a write from the host bus); it
// joins the tag queue, like any uploaded record, in the section that
// matches the write's record.
func (c *Controller) handleGuardedMMIO(p *pcie.Packet, carried []byte) *pcie.Packet {
	if p.Kind == pcie.MRd {
		// Reads of guarded registers carry no payload to verify.
		return c.forwardToDevice(p)
	}
	sp := c.tracer.Start(siteGuardedMMIO,
		keyAddr.Hex(p.Address), keyBytes.I64(int64(len(p.Payload))))
	defer sp.End()
	// The sequence check, MAC verify and counter advance form one
	// atomic step under mu so concurrent guarded writes cannot both
	// claim the same sequence number. The tag match runs under mu, its
	// lock; the keystore takes no lock once the MMIO key's MAC state
	// exists, and never calls back into the controller.
	var in [1]TagRecord
	var names streamNames
	n := 0
	if len(carried) == TagRecordSize && c.parseTag(&in[0], &names, carried) {
		n = 1
	}
	c.mu.Lock()
	c.tags.enqueueLocked(in[:n])
	seq := c.sess.mmioSeq
	rec, ok := c.tagMatchLocked(StreamMMIO, seq)
	if !ok {
		c.mu.Unlock()
		c.authFailed()
		return c.reject(p)
	}
	var hdr [16]byte
	PutMACHeader(&hdr, seq, p.Address, uint32(len(p.Payload)))
	// The 16-byte wire tag is the MAC truncated to TagSize; recompute
	// and compare the truncation (constant-time over the full width).
	// MACSum keeps the key inside the store and reuses its HMAC state.
	want, err := c.params.keys.MACSum(StreamMMIO, hdr[:], p.Payload)
	if err != nil {
		c.mu.Unlock()
		c.authFailed()
		return c.reject(p)
	}
	match := true
	for i := 0; i < secmem.TagSize; i++ {
		if want[i] != rec.Tag[i] {
			match = false
		}
	}
	if !match {
		c.mu.Unlock()
		c.authFailed()
		return c.reject(p)
	}
	c.sess.mmioSeq++
	c.stats.VerifiedChunks++
	c.mu.Unlock()

	// Environment verification on guarded registers.
	if len(p.Payload) >= 8 && p.Address >= c.xpuBar.Base {
		reg := p.Address - c.xpuBar.Base
		val := binary.LittleEndian.Uint64(p.Payload[:8])
		if !c.guard.VerifyMMIO(reg, val) {
			c.mu.Lock()
			c.stats.GuardBlocks++
			c.mu.Unlock()
			return c.reject(p)
		}
	}
	cpl := c.forwardToDevice(p)
	if c.reapConfigured && p.Address == c.xpuBar.Base+c.reapDoorbellReg {
		// The doorbell ran the device's command pump synchronously; reap
		// the batch of completions it produced with one device-head read
		// and one ring-header writeback.
		c.reapCompletion()
	}
	return cpl
}

// MACHeader is the byte layout both ends authenticate for A3 MMIO
// writes: sequence number, target address, payload length. The Adaptor
// mirrors this when computing the companion tag record.
func MACHeader(seq uint32, addr uint64, n uint32) []byte {
	buf := make([]byte, 16)
	PutMACHeader((*[16]byte)(buf), seq, addr, n)
	return buf
}

// PutMACHeader writes the A3 MAC header into a caller-provided
// (typically stack) array — the allocation-free variant.
func PutMACHeader(buf *[16]byte, seq uint32, addr uint64, n uint32) {
	binary.LittleEndian.PutUint32(buf[0:], seq)
	binary.LittleEndian.PutUint64(buf[4:], addr)
	binary.LittleEndian.PutUint32(buf[12:], n)
}

// MMIOSeq reports the next expected A3 sequence number (the Adaptor
// mirrors this counter).
func (c *Controller) MMIOSeq() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sess.mmioSeq
}

// --- control BAR -------------------------------------------------------------

func (c *Controller) handleControl(p *pcie.Packet) *pcie.Packet {
	if p.Requester != c.authorizedTVM {
		c.configReject() // the control BAR answers its TVM only
		return c.reject(p)
	}
	off := p.Address - c.bar.Base
	if p.Kind == pcie.MRd {
		buf := c.slab.Take(int(p.Length))
		var tmp [8]byte
		var v uint64
		c.mu.Lock()
		switch reg := off &^ 7; reg {
		case RegSCStatus:
			v = c.status
		case RegMMIOSeq:
			v = uint64(c.sess.mmioSeq)
		default:
			if r := c.sess.reg(reg); r != nil {
				v = *r
			}
		}
		c.mu.Unlock()
		binary.LittleEndian.PutUint64(tmp[:], v)
		copy(buf, tmp[:])
		return c.pkts.CompletionOwned(p, c.id, pcie.CplSuccess, buf)
	}
	var tmp [8]byte
	copy(tmp[:], p.Payload)
	v := binary.LittleEndian.Uint64(tmp[:])
	switch reg := off &^ 7; reg {
	case RegRingDoorbell:
		c.processRing(v)
	case RegTeardown:
		c.Teardown()
	case RegMetaBase, RegMetaSize, RegRingBase, RegRingSize:
		if reg == RegRingSize && v > RingMaxSlots {
			c.configReject() // a doorbell's span is gathered into one buffer
			break
		}
		c.mu.Lock()
		*c.sess.reg(reg) = v
		c.mu.Unlock()
	default:
		c.configReject() // the offset names no writable register
	}
	return nil
}

// ingestTags enqueues an uploaded tag packet's records under one tag
// manager lock. Records whose hash names no known stream are dropped
// (fail closed).
func (c *Controller) ingestTags(payload []byte) {
	var recs [tagSpanRecords]TagRecord
	var names streamNames
	n := 0
	for ; len(payload) >= TagRecordSize; payload = payload[TagRecordSize:] {
		if !c.parseTag(&recs[n], &names, payload) {
			continue
		}
		if n++; n == len(recs) {
			c.tags.Enqueue(recs[:]...)
			n = 0
		}
	}
	c.tags.Enqueue(recs[:n]...)
}

// streamNames remembers the last wire hash a tag packet resolved: a
// packet's records almost always share one stream, so it is resolved
// once per packet, not once per record.
type streamNames struct {
	hash  uint32
	name  string
	valid bool
}

// parseTag decodes one wire tag record into rec; false when its hash
// names no known stream.
func (c *Controller) parseTag(rec *TagRecord, names *streamNames, payload []byte) bool {
	if h := binary.LittleEndian.Uint32(payload[0:]); !names.valid || h != names.hash {
		*names = streamNames{hash: h, name: c.streamByHash(h), valid: true}
	}
	rec.Stream = names.name
	rec.Chunk = binary.LittleEndian.Uint32(payload[4:])
	rec.Epoch = binary.LittleEndian.Uint32(payload[8:])
	copy(rec.Tag[:], payload[12:12+secmem.TagSize])
	return rec.Stream != ""
}

// ArmPosition packs a positioned tag entry's position word: the step
// window's descriptor ID and the first chunk slot the entry's records
// arm. Descriptor IDs start at 1, so a position is never zero — which
// is how a ring tag entry (whose arg was unused) tells the two apart.
func ArmPosition(region, slot uint32) uint64 { return uint64(region)<<32 | uint64(slot) }

// armSlots ingests a positioned tag entry (DESIGN.md §16): record i
// arms slot first+i of a slotted step window with the IV counter it
// carries, then joins the tag queue like any uploaded record. The
// entry is public, unsealed bytes, so nothing here is trusted: a
// position outside a live step window, a record of another stream, or
// a counter that contradicts a slot the device already consumed is a
// config reject. A forged counter on a fresh slot is accepted here
// and fails where it must — the slot's ciphertext and tag only open
// under the counter and (region, slot) AAD the Adaptor sealed them
// with, so the read fails GCM or lands behind the replay watermark. A
// slot may be re-armed until it is consumed, so the recovery ladder's
// repost heals a corrupted or lost arm.
func (c *Controller) armSlots(pos uint64, payload []byte) {
	region, first := uint32(pos>>32), uint32(pos)
	if len(payload) == 0 || len(payload)%TagRecordSize != 0 {
		c.configReject() // not a whole number of records
		return
	}
	// A packet's worth of records at a time: one critical section arms
	// their slots and enqueues them. A refused record stops the entry
	// where it stands, the records before it armed and enqueued.
	var recs [tagSpanRecords]TagRecord
	var names streamNames
	for slot, refused := first, false; len(payload) > 0 && !refused; {
		n := 0
		c.mu.Lock()
		r := c.sess.byID(region)
		for ; len(payload) > 0 && n < len(recs); payload = payload[TagRecordSize:] {
			rec := &recs[n]
			c.parseTag(rec, &names, payload)
			vrec, consumed := r.verifiedAt(slot)
			if rec.Stream != StreamH2D || rec.Chunk == 0 || slot < first || r == nil || int(slot) >= len(r.slots) ||
				(consumed && vrec.Chunk != rec.Chunk) {
				refused = true
				break
			}
			r.slots[slot] = rec.Chunk
			slot++
			n++
		}
		c.tags.enqueueLocked(recs[:n])
		c.mu.Unlock()
		if refused {
			c.configReject() // a position outside a live window, or a record it may not arm
		}
	}
}

// chunkCounters resolves the IV counters A2 H2D chunks first, first+1,
// … first+len(ctrs)-1 of r were sealed under: consecutive from
// FirstCounter in a one-shot region, whatever the positioned tag armed
// in a slotted step window. It reports false when a slot of the span was
// never armed — the read fails closed. Callers hold c.mu.
func (r *region) chunkCounters(first uint32, ctrs []uint32) bool {
	if !r.desc.Slotted {
		for i := range ctrs {
			ctrs[i] = r.desc.FirstCounter + first + uint32(i)
		}
		return true
	}
	for i := range ctrs {
		slot := int(first) + i
		if slot >= len(r.slots) || r.slots[slot] == 0 {
			return false
		}
		ctrs[i] = r.slots[slot]
	}
	return true
}

// streamByHash resolves a wire stream hash against the active streams
// plus the platform's well-known names (MMIO tags arrive before any
// stream context exists). Activation rejects colliding names, so the
// resolution is unambiguous, and a hash matching nothing drops the
// record (fail closed).
func (c *Controller) streamByHash(h uint32) string {
	if name, ok := c.params.NameByHash(h); ok {
		return name
	}
	for _, name := range wellKnownStreams {
		if hashStream(name) == h {
			return name
		}
	}
	return ""
}

// install makes d a live region, its record from the pool: what a
// sealed descriptor entry reaches once opened. A descriptor that names a
// live ID or overlaps a live region is a config reject.
func (c *Controller) install(d Descriptor) bool {
	c.mu.Lock()
	for _, r := range c.sess.regions {
		if r.desc.ID == d.ID || d.Base < r.desc.Base+r.desc.Len && r.desc.Base < d.Base+d.Len {
			c.mu.Unlock()
			c.configReject()
			return false
		}
	}
	var r *region
	if n := len(c.regFree); n > 0 {
		r, c.regFree = c.regFree[n-1], c.regFree[:n-1]
	} else {
		r = new(region)
	}
	r.desc = d
	if d.Slotted {
		n := chunkCount(d)
		r.slots = slices.Grow(r.slots, n)[:n]
	}
	c.sess.regions = append(c.sess.regions, r)
	c.mu.Unlock()
	return true
}

// releaseRegion unlinks one region's record — the ring's release op —
// and with it everything the SC held for the region. An ID no live
// region has releases nothing.
func (c *Controller) releaseRegion(id uint32) {
	c.mu.Lock()
	var gone *region
	if i := slices.IndexFunc(c.sess.regions, func(r *region) bool { return r.desc.ID == id }); i >= 0 {
		gone = c.sess.regions[i]
		c.sess.regions = slices.Delete(c.sess.regions, i, i+1)
	}
	c.dropTagsLocked(gone)
	c.mu.Unlock()
	c.retire(gone)
}

// dropTagsLocked discards the tag records still pending for a released A2 H2D
// region: those of chunks no device read took — a submission cancelled
// before its doorbell, or one that failed — and reposted duplicates of
// chunks the region had already verified. No read can take them once
// the region is gone; left queued they would outlive it until the cap
// evicted them. Callers hold c.mu, the tag manager's lock.
func (c *Controller) dropTagsLocked(r *region) {
	if r == nil || r.desc.Dir != DirH2D || r.desc.Class != ActionWriteReadProtect {
		return
	}
	if r.desc.Slotted {
		for _, ctr := range r.slots {
			if ctr != 0 {
				c.tags.discardLocked(StreamH2D, ctr, 1)
			}
		}
		return
	}
	c.tags.discardLocked(StreamH2D, r.desc.FirstCounter, uint32((r.desc.Len+uint64(r.desc.ChunkSize)-1)/uint64(r.desc.ChunkSize)))
}

// retire pools records unlinked from the table: each one's pending write
// span is dropped and its tables are zeroed, keeping their capacity for
// the next install. nil entries are skipped. Called without c.mu.
func (c *Controller) retire(rs ...*region) {
	for _, r := range rs {
		if r == nil {
			continue
		}
		if r.ws != nil {
			c.finishSpan(r.ws, false)
		}
		clear(r.verified)
		clear(r.slots)
		*r = region{tags: tagSpan{buf: r.tags.buf[:0]}, verified: r.verified[:0], slots: r.slots[:0]}
	}
	c.mu.Lock()
	for _, r := range rs {
		if r != nil && len(c.regFree) < regionPool {
			c.regFree = append(c.regFree, r)
		}
	}
	c.mu.Unlock()
}

// regionPool caps the retired records the SC keeps for reuse.
const regionPool = 8

// installRuleFrame decodes and installs one sealed rule blob; frame may
// alias caller scratch (it is consumed synchronously).
func (c *Controller) installRuleFrame(frame []byte) {
	pt, err := c.openConfig(frame)
	if err != nil {
		c.configReject() // not sealed under the config stream, or replayed
		return
	}
	r, err := UnmarshalRule(pt)
	if err != nil {
		c.configReject() // a malformed rule
		return
	}
	if r.Action == actionToL2 {
		c.filter.InstallL1(r)
	} else {
		c.filter.InstallL2(r)
	}
}

func (c *Controller) installDescriptorFrame(frame []byte) {
	pt, err := c.openConfig(frame)
	if err != nil {
		c.configReject() // not sealed under the config stream, or replayed
		return
	}
	d, err := UnmarshalDescriptor(pt)
	if err != nil {
		c.configReject() // a malformed descriptor
		return
	}
	c.install(d)
}

// RekeyCommand carries fresh stream material for the §6 IV-exhaustion
// mitigation. It travels sealed under the config stream, so only the
// attested TVM can rotate keys.
type RekeyCommand struct {
	Stream string
	Key    []byte
	Nonce  []byte
}

// Marshal encodes the command for sealed upload.
func (rc RekeyCommand) Marshal() []byte {
	out := []byte{byte(len(rc.Stream))}
	out = append(out, rc.Stream...)
	out = append(out, byte(len(rc.Key)))
	out = append(out, rc.Key...)
	out = append(out, byte(len(rc.Nonce)))
	out = append(out, rc.Nonce...)
	return out
}

// UnmarshalRekeyCommand parses a sealed rekey payload.
func UnmarshalRekeyCommand(b []byte) (RekeyCommand, error) {
	var rc RekeyCommand
	read := func() ([]byte, error) {
		if len(b) < 1 {
			return nil, fmt.Errorf("core: truncated rekey command")
		}
		n := int(b[0])
		if len(b) < 1+n {
			return nil, fmt.Errorf("core: truncated rekey field")
		}
		v := append([]byte(nil), b[1:1+n]...)
		b = b[1+n:]
		return v, nil
	}
	name, err := read()
	if err != nil {
		return rc, err
	}
	rc.Stream = string(name)
	if rc.Key, err = read(); err != nil {
		return rc, err
	}
	if rc.Nonce, err = read(); err != nil {
		return rc, err
	}
	return rc, nil
}

func (c *Controller) applyRekeyFrame(frame []byte) {
	pt, err := c.openConfig(frame)
	if err != nil {
		c.configReject() // not sealed under the config stream, or replayed
		return
	}
	rc, err := UnmarshalRekeyCommand(pt)
	if err != nil {
		c.configReject() // a truncated rekey command
		return
	}
	if rc.Stream == StreamConfig {
		// Rotating the config stream itself would let one sealed blob
		// hand control to a new key without attestation; refuse.
		c.configReject()
		return
	}
	if rc.Stream == StreamMMIO {
		// MMIO MACs use raw key material, not a stream context.
		if err := c.params.keys.Install(rc.Stream, rc.Key, rc.Nonce); err != nil {
			c.configReject() // bad key material
		}
		return
	}
	if err := c.params.Rekey(rc.Stream, rc.Key, rc.Nonce); err != nil {
		c.configReject() // an unknown stream or bad key material
	}
}

func (c *Controller) openConfig(frame []byte) ([]byte, error) {
	sealed, err := UnmarshalBlob(frame)
	if err != nil {
		return nil, err
	}
	stream, err := c.params.Stream(StreamConfig)
	if err != nil {
		return nil, err
	}
	return stream.Open(sealed, nil)
}

// configReject counts one refused control operation and latches the
// config-error status bit. Each call site says why it refuses.
func (c *Controller) configReject() {
	c.mu.Lock()
	c.stats.ConfigRejects++
	c.status |= SCStatusConfigErr
	c.mu.Unlock()
}

// --- device-side traffic ------------------------------------------------------

// internalPort is the controller's endpoint presence on the internal
// bus: the upstream port every device-initiated packet must cross.
type internalPort struct{ c *Controller }

func (ip internalPort) DeviceID() pcie.ID                  { return ip.c.id }
func (ip internalPort) Handle(p *pcie.Packet) *pcie.Packet { return ip.c.HandleFromDevice(p) }

// InternalPort returns the controller's internal-bus endpoint, which
// the platform attaches and gives claims over all host address windows
// so device DMA and MSI traffic route through the filter.
func (c *Controller) InternalPort() pcie.Endpoint { return internalPort{c} }

// HandleFromDevice is the internal bus's upstream path: every DMA
// request and MSI the xPU emits crosses the filter and, inside
// protected regions, the crypto handlers.
//
// On an observed chassis a write burst into a live A2 D2H region
// records no span of its own: it is accounted, with the verdict it
// classified to, in the encrypt_write span of each write span it joins
// (sealSpan). A write that does not get that far — dropped, misrouted,
// failed to seal — has its classify span recorded after the fact, so
// every drop, reject and auth failure still shows one.
//
// A protected packet's region is looked up in the first critical
// section of its handler, which needs the lock for the region anyway.
// Only a write on an observed chassis looks it up before classifying,
// to know whether its span folds into a seal's.
func (c *Controller) HandleFromDevice(p *pcie.Packet) *pcie.Packet {
	if c.tracer == nil || p.Kind != pcie.MWr {
		cpl, _ := c.dispatchFromDevice(p, c.filter.classify(p, true))
		return cpl
	}
	c.mu.Lock()
	r := c.sess.at(p.Address)
	fold := r != nil && r.desc.Dir == DirD2H && r.desc.Class == ActionWriteReadProtect
	c.mu.Unlock()
	verdict := c.filter.classify(p, !fold)
	cpl, staged := c.dispatchFromDevice(p, verdict)
	if fold && !staged {
		c.filter.traceVerdict(p, verdict)
	}
	return cpl
}

// dispatchFromDevice applies the verdict to a device-initiated packet.
// staged reports that the packet was a D2H chunk write accepted into
// its region's write span.
func (c *Controller) dispatchFromDevice(p *pcie.Packet, verdict Verdict) (cpl *pcie.Packet, staged bool) {
	switch verdict.Action {
	case ActionDrop:
		return c.reject(p), false
	case ActionPassThrough:
		cpl := c.hostBus.Route(p)
		c.pinRelayed(c.hostBus, p, cpl)
		if staleCpl(p, cpl) {
			c.authFailed()
			return c.reject(p), false
		}
		return cpl, false
	}

	switch p.Kind {
	case pcie.MRd:
		return c.deviceRead(p), false
	case pcie.MWr:
		if c.encryptWrite(p, verdict) {
			return nil, true
		}
	}
	// Classified protected but no live region of the packet's kind, or a
	// write refused: fail closed.
	c.authFailed()
	return c.reject(p), false
}

// deviceRead serves a protected device read. Its critical section finds
// the read's region and hands it, still locked, to the region's read
// path, which does its checks under the same section before it fetches.
// A read of no live H2D region fails closed.
func (c *Controller) deviceRead(p *pcie.Packet) *pcie.Packet {
	c.mu.Lock()
	if r := c.sess.at(p.Address); r != nil && r.desc.Dir == DirH2D {
		switch r.desc.Class {
		case ActionWriteReadProtect:
			return c.decryptRead(p, r)
		case ActionWriteProtect:
			return c.verifiedRead(p, r)
		}
	}
	c.stats.AuthFailures++
	c.mu.Unlock()
	return c.reject(p)
}

// decryptRead is the SC's one A2 read path: a device read of 1 to
// MaxReadReq bytes of an H2D region, decrypted when it arrives. Nothing
// is fetched or decrypted before the device asks for it, and the SC
// keeps no plaintext once the completion is handed over.
//
// The read's geometry is checked first: a chunk-aligned start, 1 to
// MaxReadReq bytes, inside the region, at most spanChunks chunks (a
// sealed descriptor may carry any non-zero ChunkSize), and every slot
// of a step window armed. Anything else is one auth failure with no
// host fetch and no tag spent. Then one host fetch covers the read, its
// tags leave the queue in one match, and one OpenBatchInto decrypts
// straight into the completion payload; only the last chunk may be
// short, and one that is not the region's tail fails its tag. When
// every tag is on hand and fresh the batch validates, decrypts and
// fail-closes as a unit; any wrinkle — a consumed tag, a reposted table
// behind the watermark — drops to the per-chunk policy in openChunk,
// which knows about duplicates and retransmits.
//
// Called with c.mu held and r the read's region; the geometry and slot
// checks run in that section, which it releases before the fetch.
func (c *Controller) decryptRead(p *pcie.Packet, r *region) *pcie.Packet {
	desc := r.desc
	sp := c.tracer.Start(siteDecryptReadSpan,
		keyAddr.Hex(p.Address), keyBytes.I64(int64(p.Length)), keyRegion.U64(uint64(desc.ID)))
	defer sp.End()
	cs, off, n := uint64(desc.ChunkSize), p.Address-desc.Base, uint64(p.Length)
	if cs == 0 || n == 0 || n > pcie.MaxReadReq || off%cs != 0 || off+n > desc.Len || (n+cs-1)/cs > spanChunks {
		c.stats.AuthFailures++
		c.mu.Unlock()
		return c.reject(p)
	}
	first, k := uint32(off/cs), int((n+cs-1)/cs)
	sc := c.takeScratch()
	defer c.putScratch(sc)
	ctrs, recs, have := sc.ctrs[:k], sc.recs[:k], sc.have[:k]
	if !r.chunkCounters(first, ctrs) {
		c.stats.AuthFailures++
		c.mu.Unlock()
		return c.reject(p)
	}
	c.mu.Unlock()

	req := c.pkts.MemRead(pcie.RoleH2DData, c.id, p.Address, p.Length, p.Tag)
	cpl := c.hostBus.Route(req)
	if cpl == nil || cpl.Status != pcie.CplSuccess || staleCpl(req, cpl) || uint64(len(cpl.Payload)) < n {
		return c.reject(p)
	}
	// The bounce fetch is consumed on every path below (its ciphertext
	// is either decrypted into pt or abandoned on reject), so when it
	// came from the host bridge's arena pool it goes back on the way
	// out. Runs before the deferred putScratch clears the sealed views —
	// harmless, the views are rebuilt per read.
	defer c.releaseFetch(req, cpl, false)
	stream, err := c.params.Stream(StreamH2D)
	if err != nil {
		c.authFailed()
		return c.reject(p)
	}
	// Chunk i is bytes [lo, hi) of both the fetched ciphertext and pt.
	bounds := func(i int) (lo, hi uint64) { return uint64(i) * cs, min(uint64(i+1)*cs, n) }
	c.mu.Lock()
	all := c.tagMatchEachLocked(StreamH2D, ctrs, recs, have)
	c.mu.Unlock()
	// Plaintext destined for the device-facing completion: arena-carved
	// when the device returns completion payloads to the pool, else
	// slab-carved (never recycled, so handing it to taps stays safe).
	pt := c.payloadBuf(int(n), c.internal)
	if all {
		sealed, aads := sc.sealed[:k], sc.aads[:k]
		for i := range sealed {
			lo, hi := bounds(i)
			sealed[i] = secmem.Sealed{
				Counter:    recs[i].Chunk,
				Epoch:      recs[i].Epoch,
				Ciphertext: cpl.Payload[lo:hi],
				Tag:        recs[i].Tag,
			}
			ab := sc.aadBuf[8*i : 8*i+8 : 8*i+8]
			desc.PutAAD((*[8]byte)(ab), first+uint32(i))
			aads[i] = ab
		}
		err = stream.OpenBatchInto(pt, sealed, aads, nil)
		if err == nil {
			c.mu.Lock()
			r := c.sess.of(desc)
			for i := range recs {
				r.verify(first+uint32(i), &recs[i])
			}
			c.stats.DecryptedChunks += uint64(k)
			c.mu.Unlock()
			return c.pkts.CompletionOwned(p, c.id, pcie.CplSuccess, pt)
		}
		if !errors.Is(err, secmem.ErrReplay) {
			// ErrAuth (dst already zeroed) or a fault-hook error: the
			// whole read fails closed, exactly like a single bad chunk.
			c.authFailed()
			return c.reject(p)
		}
		// A counter behind the watermark: some chunks are benign
		// retransmits. Nothing was consumed — the batch validates before
		// it decrypts — so sort it out chunk by chunk below.
	}
	for i := 0; i < k; i++ {
		lo, hi := bounds(i)
		if !c.openChunk(stream, desc, first+uint32(i), cpl.Payload[lo:hi], pt[lo:hi], &recs[i], have[i]) {
			// Zero the partial plaintext before dropping it: a fail-closed
			// read never leaks the chunks that did verify.
			clear(pt)
			c.authFailed()
			return c.reject(p)
		}
	}
	return c.pkts.CompletionOwned(p, c.id, pcie.CplSuccess, pt)
}

// openChunk authenticates and decrypts one H2D chunk whose tag-match
// result is (rec, have) into dst, which is as long as ct. It owns the
// full per-chunk acceptance policy:
//
//   - have: normal open, advancing the replay watermark; on ErrReplay
//     (the Adaptor reposted the whole table after a loss) fall back to
//     the retained verified record, stateless.
//   - !have: duplicate-read suppression — a device retrying DMA after
//     a fault re-reads chunks whose tags were already consumed. Only
//     chunks accepted once before are re-served, and only via the
//     stateless open that leaves the watermark alone.
//
// Anything never accepted before stays fail-closed; the caller counts
// the auth failure and rejects.
func (c *Controller) openChunk(stream *secmem.Stream, desc Descriptor, chunk uint32, ct, dst []byte, rec *TagRecord, have bool) bool {
	var aadBuf [8]byte
	desc.PutAAD(&aadBuf, chunk)
	aad := aadBuf[:]
	if !have {
		c.mu.Lock()
		vrec, seen := c.sess.of(desc).verifiedAt(chunk)
		c.mu.Unlock()
		if !seen {
			return false
		}
		pt, err := stream.OpenStateless(&secmem.Sealed{
			Counter:    vrec.Chunk,
			Epoch:      vrec.Epoch,
			Ciphertext: ct,
			Tag:        vrec.Tag,
		}, aad)
		if err != nil {
			return false
		}
		copy(dst, pt)
		c.duplicateRead()
		return true
	}
	sealed := &secmem.Sealed{
		Counter:    rec.Chunk,
		Epoch:      rec.Epoch,
		Ciphertext: ct,
		Tag:        rec.Tag,
	}
	_, err := stream.OpenDst(sealed, aad, dst[:0])
	if errors.Is(err, secmem.ErrReplay) {
		c.mu.Lock()
		_, seen := c.sess.of(desc).verifiedAt(chunk)
		c.mu.Unlock()
		if seen {
			if pt, err2 := stream.OpenStateless(sealed, aad); err2 == nil {
				copy(dst, pt)
				c.duplicateRead()
				return true
			}
		}
	}
	if err != nil {
		return false
	}
	c.mu.Lock()
	c.sess.of(desc).verify(chunk, rec)
	c.stats.DecryptedChunks++
	c.mu.Unlock()
	return true
}

// duplicateRead counts one benign retransmit.
func (c *Controller) duplicateRead() {
	c.mu.Lock()
	c.stats.DuplicateReads++
	c.mu.Unlock()
}

// MaxRunSlots bounds a verified run, in slots; MaxReadReq bounds it in
// bytes, so one device read fetches a whole run.
const MaxRunSlots = 64

// RunKey is the tag-queue counter a verified run's MAC record travels
// under (stream StreamA3Run); the record's epoch field carries the run
// length in slots. The key packs the low 16 bits of the region id over
// the low 16 bits of the run's first slot, so it can alias — a region id
// past 65,535 (a chassis re-trusted after ~32k tasks stages its command
// ring under one) with an earlier one, a slot past 65,535 with an
// earlier slot. That is safe: the MAC binds the full region id, first
// slot and length (PutRunMACHeader), so a record found under an aliased
// key fails verification, and it does not happen between live regions —
// a slice keeps one verified region, staged anew at every re-trust after
// teardown cleared the queue.
func RunKey(region, first uint32) uint32 { return region<<16 | first&0xffff }

// PutRunMACHeader writes the header both ends authenticate ahead of a
// verified run's bytes: region, first slot, run length, byte count. A
// run's MAC input is at least 16+ChunkSize bytes and a guarded write's
// (PutMACHeader) 24, so neither MAC verifies as the other.
func PutRunMACHeader(buf *[16]byte, region, first, n, size uint32) {
	binary.LittleEndian.PutUint32(buf[0:], region)
	binary.LittleEndian.PutUint32(buf[4:], first)
	binary.LittleEndian.PutUint32(buf[8:], n)
	binary.LittleEndian.PutUint32(buf[12:], size)
}

// verifiedRead services a device read of an A3 H2D region (the command
// ring). A submission's slots are authenticated as one run, and the
// device reads a run whole: the SC answers a read only when a fresh run
// record sits at its first slot and names exactly the read's slot count.
// It then fetches the run from host memory with one read and verifies
// the one MAC over the very buffer it serves, one only the SC holds — what
// the device executes is byte for byte what was verified, with no window
// between the check and a copy — and the SC keeps nothing.
// Any other read — part of a run, two runs, more than a run, a run
// already served, a slot no record names — is an auth failure without a
// host fetch, and spends the record it found. A fetch that fails spends
// nothing.
//
// Called with c.mu held and r the read's region; the geometry check and
// the look at the run record run in that section, which it releases
// before the fetch.
func (c *Controller) verifiedRead(p *pcie.Packet, r *region) *pcie.Packet {
	desc := r.desc
	sp := c.tracer.Start(siteVerifiedRead,
		keyAddr.Hex(p.Address), keyBytes.I64(int64(p.Length)), keyRegion.U64(uint64(desc.ID)))
	defer sp.End()
	cs, off, n := uint64(desc.ChunkSize), p.Address-desc.Base, uint64(p.Length)
	if cs == 0 || n == 0 || off%cs != 0 || n%cs != 0 || n > pcie.MaxReadReq || n/cs > MaxRunSlots || off+n > desc.Len {
		c.stats.AuthFailures++
		c.mu.Unlock()
		return c.reject(p)
	}
	first, k := uint32(off/cs), uint32(n/cs)
	key := RunKey(desc.ID, first)
	if rec, fresh := c.tags.peekLocked(StreamA3Run, key); !fresh || rec.Epoch != k {
		c.tagMatchLocked(StreamA3Run, key) // spends the record, or counts the miss
		c.stats.AuthFailures++
		c.mu.Unlock()
		return c.reject(p)
	}
	c.mu.Unlock()
	req := c.pkts.MemRead(pcie.RoleCommandRun, c.id, p.Address, p.Length, p.Tag)
	cpl := c.hostBus.Route(req)
	if cpl == nil || cpl.Status != pcie.CplSuccess || staleCpl(req, cpl) || uint64(len(cpl.Payload)) < n {
		return c.reject(p)
	}
	// The MAC is taken over the buffer the device gets. On a host bus no
	// tap ever saw, the fetched payload is the SC's alone and is served as
	// it is; otherwise a tap may still hold it, so the SC verifies and
	// serves a copy of its own.
	run := cpl.Payload[:n]
	if !c.recycleOn(c.hostBus) {
		run = c.payloadBuf(int(n), c.internal)
		copy(run, cpl.Payload)
	}
	c.releaseFetch(req, cpl, true)
	var hdr [16]byte
	PutRunMACHeader(&hdr, desc.ID, first, k, uint32(n))
	want, err := c.params.keys.MACSum(StreamMMIO, hdr[:], run)
	c.mu.Lock()
	rec, ok := c.tagMatchLocked(StreamA3Run, key)
	match := ok && err == nil && rec.Epoch == k
	for i := 0; i < secmem.TagSize; i++ {
		if want[i] != rec.Tag[i] {
			match = false
		}
	}
	if match {
		c.stats.VerifiedChunks += uint64(k)
	} else {
		c.stats.AuthFailures++
	}
	c.mu.Unlock()
	if !match {
		return c.reject(p)
	}
	return c.pkts.CompletionOwned(p, c.id, pcie.CplSuccess, run)
}

// encryptWrite services a device write burst into an A2 D2H region —
// one to MaxReadReq/ChunkSize chunks, a single chunk being a burst of
// one — through the write-span pipeline (pipeline.go): the burst's
// chunks are staged with their in-order neighbours, a span's worth per
// critical section, and each span seals as one engine batch that writes
// each chunk's ciphertext out before sealing the next. Flushes happen
// on a full span, a sequence break, the metadata publish cadence, and
// region completion, so host-visible progress never runs ahead of the
// ciphertext and tags backing it.
//
// The burst's geometry is checked as a whole before anything is staged:
// a chunk-aligned start, at most MaxReadReq bytes, inside the region,
// and a partial chunk only at the region's tail. The write is posted,
// so there is nothing to return but the outcome: false — a burst off
// the chunk grid, or a seal that failed, which stops the burst where it
// stands — and the caller fails closed. verdict is what the TLP
// classified to; a write span holds only TLPs of one verdict, which its
// encrypt_write span reports. A write into no live A2 D2H region is
// refused the same way. The region lookup, the geometry check and the
// first staging are one critical section.
func (c *Controller) encryptWrite(p *pcie.Packet, verdict Verdict) bool {
	c.mu.Lock()
	r := c.sess.at(p.Address)
	if r == nil || r.desc.Dir != DirD2H || r.desc.Class != ActionWriteReadProtect {
		c.mu.Unlock()
		return false
	}
	desc := r.desc
	cs, off, n := uint64(desc.ChunkSize), p.Address-desc.Base, uint64(len(p.Payload))
	if n == 0 || n > pcie.MaxReadReq || off%cs != 0 || off+n > desc.Len || (n%cs != 0 && off+n != desc.Len) {
		c.mu.Unlock()
		return false
	}
	chunk, data := uint32(off/cs), p.Payload
	for {
		staged, span := c.stageLocked(r, chunk, data, p.Payload, verdict)
		c.mu.Unlock()
		if staged == 0 && span == nil {
			// The region was released under the burst, which no span owns.
			c.retireStaging(p.Payload)
			return false
		}
		chunk += uint32(staged)
		data = data[min(staged*int(cs), len(data)):]
		if !c.sealSpan(span) {
			if len(data) > 0 {
				// No span took the burst's last chunk, so none owns its buffer.
				c.retireStaging(p.Payload)
			}
			return false
		}
		if len(data) == 0 {
			return true
		}
		c.mu.Lock()
		r = c.sess.of(desc)
	}
}

// tagSpanRecords is how many marshalled tag records fit one TLP payload.
const tagSpanRecords = pcie.MaxPayload / TagRecordSize

// metaPublishEvery is the metadata batch granularity (§5): progress
// counters reach the TVM-resident buffer every this many chunks and at
// region completion, not once per chunk.
const metaPublishEvery = 8

// tagSpan accumulates marshalled tag records for consecutive D2H chunks
// of one region. The tag table is contiguous and the device writes
// chunks in ascending order, so records coalesce into MaxPayload-sized
// table writes instead of one TLP per chunk.
type tagSpan struct {
	start uint32 // chunk index of the first buffered record
	next  uint32 // chunk index that extends the span
	buf   []byte // marshalled records (public bytes), kept with the record
}

// depositTags moves a sealing span's pending tag records into the
// region's tag span and advances its completion count — one critical
// section for the whole run, with exactly the effect of depositing the
// records one by one. The tag span flushes to host memory when it fills
// a TLP, when the chunk sequence breaks (a lost chunk under fault
// injection), and — together with the batched metadata counter — every
// metaPublishEvery chunks and at region completion, so whenever the
// metadata buffer claims N chunks the tag table already holds their
// records. The writes are decided under c.mu but routed after it is
// released (routing can reenter the controller). emitChunk calls this
// when the run tagRun predicted is complete, so each write goes out
// right behind the ciphertext of the chunk that caused it. A region
// released under the seal is not brought back: its records are dropped.
func (c *Controller) depositTags(ws *writeSpan) {
	desc := ws.desc
	total := uint64(chunkCount(desc))
	writes := ws.writes[:0]
	c.mu.Lock()
	r := c.sess.of(desc)
	if r != nil {
		span := &r.tags
		if span.buf == nil {
			span.buf = make([]byte, 0, tagSpanRecords*TagRecordSize)
		}
		for i := range ws.tags[:ws.nTags] {
			chunk := ws.tagStart + uint32(i)
			if chunk != span.next {
				writes = c.appendTagFlush(writes, desc, span)
				span.start, span.buf = chunk, span.buf[:0]
			}
			span.buf = ws.tags[i].AppendMarshal(span.buf)
			span.next = chunk + 1
			r.d2hDone++
			publish := r.d2hDone >= total || r.d2hDone%metaPublishEvery == 0
			if publish || len(span.buf) >= tagSpanRecords*TagRecordSize {
				writes = c.appendTagFlush(writes, desc, span)
				span.start, span.buf = span.next, span.buf[:0]
			}
			if publish {
				writes = c.appendMetadataLocked(writes, desc.ID, r.d2hDone)
			}
		}
		c.stats.EncryptedChunks += uint64(ws.nTags)
	}
	ws.tagStart += uint32(ws.nTags)
	ws.nTags = 0
	ws.run = r.tagRun(ws.tagStart)
	c.mu.Unlock()
	for _, w := range writes {
		c.hostWrite(w.role, w.addr, w.body)
	}
	clear(writes)
	ws.writes = writes[:0]
}

// appendTagFlush queues the tag-table write for a tag span's buffered
// records, if it holds any. The records are copied out of the span
// buffer (which refills immediately) into arena or slab memory via
// payloadBuf, so no per-flush heap allocation occurs.
func (c *Controller) appendTagFlush(writes []hostWr, desc Descriptor, span *tagSpan) []hostWr {
	if len(span.buf) == 0 {
		return writes
	}
	body := c.payloadBuf(len(span.buf), c.hostBus)
	copy(body, span.buf)
	return append(writes, hostWr{role: pcie.RoleTagRecord, addr: desc.TagBase + uint64(span.start)*TagRecordSize, body: body})
}

// appendMetadataLocked implements the §5 I/O-read optimization: instead
// of the Adaptor polling the SC for DMA metadata, the SC batches
// progress counters into a TVM-resident buffer (one 8-byte
// completed-chunk count per region) that the Adaptor reads as plain
// memory. It queues the counter write, or nothing when no buffer is
// configured or the region falls outside the batch window. Callers
// hold c.mu and route the write after releasing it.
func (c *Controller) appendMetadataLocked(writes []hostWr, region uint32, count uint64) []hostWr {
	metaBase, size := c.sess.metaBase, c.sess.metaSize
	if metaBase == 0 {
		return writes
	}
	slot := metaBase + uint64(region)*8
	if size > 0 && slot+8 > metaBase+size {
		return writes // region id outside the configured batch window
	}
	buf := c.payloadBuf(8, c.hostBus)
	binary.LittleEndian.PutUint64(buf, count)
	return append(writes, hostWr{role: pcie.RoleMetadata, addr: slot, body: buf})
}

// D2HProgress reports completed chunks for a region: the count the SC
// batches into the metadata buffer, read at its source (tests).
func (c *Controller) D2HProgress(region uint32) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r := c.sess.byID(region); r != nil {
		return r.d2hDone
	}
	return 0
}

// AttestDevice runs the §6 software-based attestation fallback against
// the guarded xPU: write a fresh nonce to the device's attestation
// register over the internal bus, read back the response digest, and
// compare with the digest the verifier computes from the golden
// firmware measurement. expected is the response the caller derived
// (e.g. xpu.AttestDigest(goldenFirmware, nonce)); attestReg/respReg
// are BAR0-relative.
func (c *Controller) AttestDevice(nonce uint64, expected uint64, attestReg, respReg uint64) bool {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], nonce)
	c.internal.Route(pcie.NewMemWrite(c.id, c.xpuBar.Base+attestReg, buf[:]).WithRole(pcie.RoleControlWrite))
	req := pcie.NewMemRead(c.id, c.xpuBar.Base+respReg, 8, 0).WithRole(pcie.RoleRegRead)
	cpl := c.internal.Route(req)
	if cpl == nil || cpl.Status != pcie.CplSuccess || staleCpl(req, cpl) || len(cpl.Payload) < 8 {
		return false
	}
	return binary.LittleEndian.Uint64(cpl.Payload) == expected
}

// Teardown destroys key material, drops regions and pending tags,
// forgets where the session's submission ring and metadata buffer live —
// a torn-down SC masters nothing on the host bus, whatever doorbell is
// replayed at it; hw_init programs both again — and triggers the
// environment guard's device clean. The session goes in one swap; its
// region records are retired after the lock is released. The filter's
// static platform rules survive; per-session rules are the TVM's to
// reinstall.
func (c *Controller) Teardown() {
	c.mu.Lock()
	c.stats.Teardowns++
	old := c.sess
	c.sess = session{}
	c.mu.Unlock()
	c.retire(old.regions...)
	c.tracer.Mark(siteTeardown)
	c.params.DestroyAll()
	c.tags.Clear()
	// The hook routes reset MMIO to the device, so it must run with no
	// controller lock held.
	if c.onTeardown != nil {
		c.onTeardown()
	}
}
