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
// the whole map: sealed configuration, tag records, command runs and
// notifies have no register — they arrive as submission-ring entries (ring.go) —
// and a write to any other offset is a config reject.
const (
	RegSCStatus     = 0x000 // RO: status bits
	RegTeardown     = 0x028 // WO: destroy keys, clean xPU, drop regions
	RegMetaBase     = 0x030 // RW: host address of the DMA-metadata batch buffer
	RegMetaSize     = 0x038 // RW: batch buffer size
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
	// TagsDroppedByFault counts tag records the tag-loss fault hook took
	// (SetTagFaultHook).
	TagsDroppedByFault uint64
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
	guard  *EnvGuard

	// mu guards the controller's own mutable state below (sess — the
	// region records with their tag tables —, status, stats, the tag
	// fault hook and the freelists). The control panels (filter, params,
	// guard) read published snapshots or carry their own leaf locks and
	// may be called while mu is held; mu is NEVER held across a bus Route
	// call — routing can reenter this controller on the same goroutine
	// (doorbell → DMA upstream).
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
	// guardedPkts hands out the packets of guarded ring entries. A
	// doorbell's packet is in flight for the device's whole command pump,
	// whose fetches take and return pkts' packets meanwhile; an arena of
	// its own keeps both on their lock-free fast path.
	guardedPkts pcie.PacketArena

	// stats is the one cell of every count Stats reports but the filter's
	// and BatchedD2HSpans (sealedSpans); the metrics registry reads it
	// (SetObserver).
	stats Stats

	// tracer records the SC's spans; nil is the untraced state, and every
	// Start/Mark on it is a nil check.
	tracer *obsv.Tracer

	// onTeardown lets the platform hook environment cleaning.
	onTeardown func()

	// tagFault, when set, may drop an arriving tag record — the
	// tag-packet-loss fault class. A dropped record makes the matching
	// data chunk fail closed until the Adaptor reposts it.
	tagFault func(rec TagRecord) bool
}

// SetObserver instruments the controller and its control panels
// (filter, params manager): the hub's registry reads the counts Stats
// returns, and its tracer records spans. A nil hub stops the tracing; a
// registry keeps its reads.
func (c *Controller) SetObserver(h *obsv.Hub) {
	c.filter.SetObserver(h)
	c.params.SetObserver(h, obsv.TrackCrypto+"/sc")
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
	reg.CounterFunc("sc.tags.dropped_by_fault", func() uint64 { return c.Stats().TagsDroppedByFault })
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

// tagMatchLocked takes the pending records of entries first, first+1,
// … of r's tag table — one chunk's or a whole read's — into recs and
// have in one tag_match span; a nil r (a region released under the
// read) holds none. ctr is the first record's IV counter, a span
// attribute. It reports whether every record was on hand. Callers hold
// c.mu.
func (c *Controller) tagMatchLocked(r *region, ctr, first uint32, recs []TagRecord, have []bool) bool {
	var sp obsv.ActiveSpan
	if tr := c.tracer; tr != nil {
		sp = tr.Start(siteTagMatch, keyStream.Str(symStreamH2D),
			keyChunk.U64(uint64(ctr)), keyChunks.I64(int64(len(recs))))
	}
	all := true
	for i := range recs {
		recs[i], have[i] = r.take(first + uint32(i))
		all = all && have[i]
	}
	sp.Set(keyMatched.Bool(all))
	sp.End()
	return all
}

// NewController builds a PCIe-SC with the given identity and control
// BAR placement, guarding the xPU whose BAR0 shadow window is xpuBar.
func NewController(id pcie.ID, bar pcie.Region, keys *secmem.KeyStore) *Controller {
	return &Controller{
		id:     id,
		bar:    bar,
		filter: NewFilter(),
		params: NewParamsManager(keys),
		guard:  NewEnvGuard(),
		status: SCStatusReady,
	}
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

// PendingTags reports the tag records the SC holds that no read has
// taken yet, over every live region's tag table. A test seam for
// sliceHygiene and the protocol model: a quiet slice holds none.
func (c *Controller) PendingTags() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, r := range c.sess.regions {
		n += r.pending
	}
	return n
}

// HeldRuns reports the command runs the SC holds that no device read has
// taken yet, over every live A3 region. A test seam for sliceHygiene and
// the protocol model: a slice at rest holds none.
func (c *Controller) HeldRuns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, r := range c.sess.regions {
		n += len(r.runs)
	}
	return n
}

// SetTagFaultHook installs (or clears, with nil) the tag-packet-loss
// injection point: fn sees every tag record the SC is about to store,
// in arrival order, and drops it by returning true.
func (c *Controller) SetTagFaultHook(fn func(rec TagRecord) bool) {
	c.mu.Lock()
	c.tagFault = fn
	c.mu.Unlock()
}

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

// Regions reports live protected regions. A test seam for sliceHygiene
// and the protocol model's leak checks. Everything the SC
// holds for a region — its descriptor, D2H progress and write span, its
// tag table of pending and accepted records and armed step-window
// slots — lives in that region's one record, so this count covers all
// of it: a leak check that reads it sees every per-region thing the SC
// could leak.
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
		if p.Kind == pcie.MRd {
			// Reads of guarded registers carry no payload to verify.
			return c.forwardToDevice(p)
		}
		// A guarded write reaches the device only as an entry of a sealed
		// ring span (handleGuardedMMIO); one on the host bus carries no
		// seal, so it is refused.
		c.authFailed()
		return c.reject(p)
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

// handleGuardedMMIO applies action A3 to the write a guarded ring entry
// stands for: a guarded register's value must pass the environment
// checks. The span's seal vouched for the entry's bytes and its place in
// the ring before dispatch, so a write cannot run twice or out of order.
// A write to the reap doorbell caches the device head it produced, which
// the span's head writeback posts (ring.go).
func (c *Controller) handleGuardedMMIO(p *pcie.Packet) {
	sp := c.tracer.Start(siteGuardedMMIO,
		keyAddr.Hex(p.Address), keyBytes.I64(int64(len(p.Payload))))
	defer sp.End()
	// Environment verification on guarded registers.
	blocked := len(p.Payload) >= 8 && p.Address >= c.xpuBar.Base &&
		!c.guard.VerifyMMIO(p.Address-c.xpuBar.Base, binary.LittleEndian.Uint64(p.Payload[:8]))
	c.mu.Lock()
	c.stats.VerifiedChunks++
	if blocked {
		c.stats.GuardBlocks++
	}
	c.mu.Unlock()
	if blocked {
		return
	}
	c.forwardToDevice(p)
	if c.reapConfigured && p.Address == c.xpuBar.Base+c.reapDoorbellReg {
		// The doorbell ran the device's command pump synchronously; reap
		// the batch of completions it produced with one device-head read.
		c.reapCompletion()
	}
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

// ArmPosition packs a tag entry's position word: the descriptor ID of
// the region its records authenticate and the index of the first chunk
// or slot they fill. Descriptor IDs start at 1, so a position is never
// zero, and an entry whose arg is zero names no region.
func ArmPosition(region, slot uint32) uint64 { return uint64(region)<<32 | uint64(slot) }

// hashH2D is the wire stream hash of the records an H2D region takes.
var hashH2D = hashStream(StreamH2D)

// ingestTags stores a tag entry's records on the region its position
// (ArmPosition) names, one critical section for the entry. Record i of
// an entry at (region, first) is chunk first+i's: in a one-shot A2 H2D
// region it must carry counter FirstCounter+first+i; in a step window
// (DESIGN.md §16) it arms slot first+i with the counter it carries,
// which a slot the device already consumed refuses unless it is the
// counter the slot was armed with. A record must carry StreamH2D's hash
// and fit the region's table. Only an A2 H2D region takes records — an
// A3 region takes run entries (region.hold) — and an arg of 0 names no
// region. A refused
// record is a config reject and stops the entry where it stands, the
// records before it stored. The span's seal vouched for the entry's
// bytes; the records are still checked on use — a forged counter on a
// fresh slot opens under nothing the Adaptor sealed, so the read fails
// GCM or lands behind the replay watermark. A slot or chunk may be
// re-armed until it is consumed, so the recovery ladder's repost heals
// a lost record.
func (c *Controller) ingestTags(pos uint64, payload []byte) {
	id, first := uint32(pos>>32), uint32(pos)
	if len(payload) == 0 || len(payload)%TagRecordSize != 0 {
		c.configReject() // not a whole number of records
		return
	}
	refused := false
	c.mu.Lock()
	r := c.sess.byID(id)
	for i := uint64(0); len(payload) > 0; i, payload = i+1, payload[TagRecordSize:] {
		rec := TagRecord{
			Chunk: binary.LittleEndian.Uint32(payload[4:]),
			Epoch: binary.LittleEndian.Uint32(payload[8:]),
		}
		copy(rec.Tag[:], payload[12:12+secmem.TagSize])
		at, ok := r.admit(uint64(first)+i, binary.LittleEndian.Uint32(payload), &rec)
		if !ok {
			refused = true
			break
		}
		lost := c.tagFault != nil && c.tagFault(rec)
		if lost {
			c.stats.TagsDroppedByFault++
		}
		r.post(at, &rec, lost)
	}
	c.mu.Unlock()
	if refused {
		c.configReject() // no live region at the position, or a record it may not take
	}
}

// admit reports at which entry of r's tag table a record with wire
// stream hash h goes — index, its place in the entry plus the entry's
// first index — and names the record's stream; false when r may not
// take it (ingestTags). It is nil-safe.
func (r *region) admit(index uint64, h uint32, rec *TagRecord) (uint32, bool) {
	if r == nil || r.desc.Dir != DirH2D || r.desc.Class != ActionWriteReadProtect {
		return 0, false
	}
	rec.Stream = StreamH2D
	ok := h == hashH2D && index < uint64(len(r.recs))
	if r.desc.Slotted {
		// A slot the device consumed keeps the counter it was read under.
		ok = ok && rec.Chunk != 0 && (r.recs[index].state != tagAccepted || r.recs[index].ctr == rec.Chunk)
	} else {
		ok = ok && uint64(rec.Chunk) == uint64(r.desc.FirstCounter)+index
	}
	return uint32(index), ok
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
		if slot >= len(r.recs) || r.recs[slot].ctr == 0 {
			return false
		}
		ctrs[i] = r.recs[slot].ctr
	}
	return true
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
	if d.Dir == DirH2D && d.Class == ActionWriteProtect {
		r.held = slices.Grow(r.held, int(d.Len))[:d.Len]
	} else if d.Dir == DirH2D {
		n := chunkCount(d)
		r.recs = slices.Grow(r.recs, n)[:n]
	}
	c.sess.regions = append(c.sess.regions, r)
	c.mu.Unlock()
	return true
}

// releaseRegion unlinks one region's record — the ring's release op —
// and with it everything the SC held for the region, its tag records
// and held runs included. An ID no live region has releases nothing.
func (c *Controller) releaseRegion(id uint32) {
	c.mu.Lock()
	var gone *region
	if i := slices.IndexFunc(c.sess.regions, func(r *region) bool { return r.desc.ID == id }); i >= 0 {
		gone = c.sess.regions[i]
		c.sess.regions = slices.Delete(c.sess.regions, i, i+1)
	}
	c.mu.Unlock()
	c.retire(gone)
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
		clear(r.recs)
		clear(r.held)
		*r = region{tags: tagSpan{buf: r.tags.buf[:0]}, recs: r.recs[:0], runs: r.runs[:0], held: r.held[:0]}
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
// A one-shot region's chunk i is sealed over bytes [i·ChunkSize,
// (i+1)·ChunkSize) of the region, cut at its end, so a read that starts
// or ends inside a chunk is served from every chunk it touches, fetched
// and verified whole, and the completion carries the read's slice of
// them. A step window's slot is sealed over what its step carried, so a
// read of a window starts on a slot and its last chunk ends where the
// read does.
//
// The read's geometry is checked first: 1 to MaxReadReq bytes, inside
// the region, at most spanChunks chunks touched (a sealed descriptor may
// carry any non-zero ChunkSize), a window read starting on a slot with
// every slot it covers armed. Anything else is one auth failure with no
// host fetch and no tag spent. Then the touched chunks are fetched —
// one host read, or reads of whole chunks of at most MaxReadReq each
// when they span more — their records leave the region's tag table in
// one match, and one OpenBatchInto decrypts them; only the region's
// last chunk may be short. When every tag is on hand and fresh the batch
// validates, decrypts and fail-closes as a unit; any wrinkle — a chunk
// accepted before (an earlier read touched it too), a record behind the
// watermark — drops to the per-chunk policy in openChunk, which knows
// about duplicates and retransmits.
//
// Called with c.mu held and r the read's region; the geometry and slot
// checks run in that section, which it releases before the fetch.
func (c *Controller) decryptRead(p *pcie.Packet, r *region) *pcie.Packet {
	desc := r.desc
	sp := c.tracer.Start(siteDecryptReadSpan,
		keyAddr.Hex(p.Address), keyBytes.I64(int64(p.Length)), keyRegion.U64(uint64(desc.ID)))
	defer sp.End()
	cs, off, n := uint64(desc.ChunkSize), p.Address-desc.Base, uint64(p.Length)
	lo, hi := off, off+n // the bytes of the chunks the read touches
	if cs != 0 && !desc.Slotted {
		lo, hi = off/cs*cs, min((off+n+cs-1)/cs*cs, desc.Len)
	}
	if cs == 0 || n == 0 || n > pcie.MaxReadReq || lo%cs != 0 || off+n > desc.Len ||
		(hi-lo+cs-1)/cs > spanChunks || cs > pcie.MaxReadReq && hi-lo > pcie.MaxReadReq {
		c.stats.AuthFailures++
		c.mu.Unlock()
		return c.reject(p)
	}
	first, k := uint32(lo/cs), int((hi-lo+cs-1)/cs)
	sc := c.takeScratch()
	defer c.putScratch(sc)
	ctrs, recs, have := sc.ctrs[:k], sc.recs[:k], sc.have[:k]
	if !r.chunkCounters(first, ctrs) {
		c.stats.AuthFailures++
		c.mu.Unlock()
		return c.reject(p)
	}
	c.mu.Unlock()

	// The fetches are consumed on every path below (their ciphertext is
	// either decrypted or abandoned on reject), so when they came from the
	// host bridge's arena pool they go back on the way out. Runs before
	// the deferred putScratch clears the sealed views — harmless, the
	// views are rebuilt per read.
	defer c.releaseFetches(sc)
	per := max(1, pcie.MaxReadReq/cs) * cs // bytes of one fetch of whole chunks
	if !c.fetchChunks(sc, desc.Base+lo, hi-lo, per, p.Tag) {
		return c.reject(p)
	}
	stream, err := c.params.Stream(StreamH2D)
	if err != nil {
		c.authFailed()
		return c.reject(p)
	}
	// Chunk i is bytes [lo, hi) of dst, and of the fetch it lies in from
	// that fetch's start.
	span := hi - lo
	bounds := func(i int) (lo, hi uint64) { return uint64(i) * cs, min(uint64(i+1)*cs, span) }
	ciphertext := func(i int) []byte {
		lo, hi := bounds(i)
		f := min(lo/per, uint64(sc.fetched-1))
		return sc.cpls[f].Payload[lo-f*per : hi-f*per]
	}
	c.mu.Lock()
	all := c.tagMatchLocked(c.sess.of(desc), ctrs[0], first, recs, have)
	c.mu.Unlock()
	// Plaintext destined for the device-facing completion: arena-carved
	// when the device returns completion payloads to the pool, else
	// slab-carved (never recycled, so handing it to taps stays safe). A
	// read inside its chunks decrypts them into arena scratch, zeroed back
	// once the read's slice is copied out.
	pt := c.payloadBuf(int(n), c.internal)
	dst := pt
	if span != n {
		dst = arena.Get(int(span))
		defer arena.PutZero(dst)
	}
	served := func() *pcie.Packet {
		if span != n {
			copy(pt, dst[off-lo:])
		}
		return c.pkts.CompletionOwned(p, c.id, pcie.CplSuccess, pt)
	}
	if all {
		sealed, aads := sc.sealed[:k], sc.aads[:k]
		for i := range sealed {
			sealed[i] = secmem.Sealed{
				Counter:    recs[i].Chunk,
				Epoch:      recs[i].Epoch,
				Ciphertext: ciphertext(i),
				Tag:        recs[i].Tag,
			}
			ab := sc.aadBuf[8*i : 8*i+8 : 8*i+8]
			desc.PutAAD((*[8]byte)(ab), first+uint32(i))
			aads[i] = ab
		}
		err = stream.OpenBatchInto(dst, sealed, aads, nil)
		if err == nil {
			c.mu.Lock()
			r := c.sess.of(desc)
			for i := range recs {
				r.accept(first+uint32(i), &recs[i])
			}
			c.stats.DecryptedChunks += uint64(k)
			c.mu.Unlock()
			return served()
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
		if !c.openChunk(stream, desc, first+uint32(i), ciphertext(i), dst[lo:hi], &recs[i], have[i]) {
			// Zero the partial plaintext before dropping it: a fail-closed
			// read never leaks the chunks that did verify.
			clear(dst)
			c.authFailed()
			return c.reject(p)
		}
	}
	return served()
}

// fetchChunks reads the n bytes at addr — whole chunks of a read's
// region — from host memory into sc, in reads of per bytes but for the
// last, which takes the rest when it fits one read request. It reports
// false when a fetch failed, came back stale or short; the fetches that
// did come back are sc's to release.
func (c *Controller) fetchChunks(sc *spanScratch, addr, n, per uint64, tag uint8) bool {
	for at := uint64(0); at < n; sc.fetched++ {
		m := n - at
		if m > pcie.MaxReadReq {
			m = per
		}
		req := c.pkts.MemRead(pcie.RoleH2DData, c.id, addr+at, uint32(m), tag)
		cpl := c.hostBus.Route(req)
		if cpl == nil || cpl.Status != pcie.CplSuccess || staleCpl(req, cpl) || uint64(len(cpl.Payload)) < m {
			return false
		}
		sc.reqs[sc.fetched], sc.cpls[sc.fetched] = req, cpl
		at += m
	}
	return true
}

// releaseFetches gives back a read's host fetches (releaseFetch).
func (c *Controller) releaseFetches(sc *spanScratch) {
	for i := range sc.fetched {
		c.releaseFetch(sc.reqs[i], sc.cpls[i], false)
		sc.reqs[i], sc.cpls[i] = nil, nil
	}
	sc.fetched = 0
}

// openChunk authenticates and decrypts one H2D chunk whose tag-match
// result is (rec, have) into dst, which is as long as ct. It owns the
// full per-chunk acceptance policy:
//
//   - have: normal open, advancing the replay watermark; on ErrReplay
//     a chunk accepted before is re-served, stateless.
//   - !have: duplicate-read suppression — a device retrying DMA after
//     a fault re-reads chunks whose records were already accepted. Only
//     chunks accepted once before are re-served, from their accepted
//     record and via the stateless open that leaves the watermark alone.
//
// Anything never accepted before stays fail-closed; the caller counts
// the auth failure and rejects.
func (c *Controller) openChunk(stream *secmem.Stream, desc Descriptor, chunk uint32, ct, dst []byte, rec *TagRecord, have bool) bool {
	var aadBuf [8]byte
	desc.PutAAD(&aadBuf, chunk)
	aad := aadBuf[:]
	if !have {
		c.mu.Lock()
		vrec, seen := c.sess.of(desc).acceptedAt(chunk)
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
		_, seen := c.sess.of(desc).acceptedAt(chunk)
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
	c.sess.of(desc).accept(chunk, rec)
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
// bytes, so one device read takes a whole run.
const MaxRunSlots = 64

// RunHdrSize is a run entry's header: the run's length in slots,
// little-endian, ahead of the slots the entry carries.
const RunHdrSize = 4

// verifiedRead services a device read of an A3 H2D region (the command
// ring). The device reads a submission's run whole — in two reads when
// it wraps the region's end, where the device cuts its reads — and the
// SC answers a read only when it is exactly the next read of a whole
// held run: it serves the run's held bytes — what the sealed entries
// carried, not what host memory holds now — and drops the run once all
// of it is read. Any other read — part of a run, two runs, more than a
// run, a run already served, a slot no read of a run starts at — is an
// auth failure, and drops the run it found. Nothing is fetched from the
// host.
//
// Called with c.mu held and r the read's region; it releases c.mu.
func (c *Controller) verifiedRead(p *pcie.Packet, r *region) *pcie.Packet {
	desc := r.desc
	sp := c.tracer.Start(siteVerifiedRead,
		keyAddr.Hex(p.Address), keyBytes.I64(int64(p.Length)), keyRegion.U64(uint64(desc.ID)))
	defer sp.End()
	cs, off, n := uint64(desc.ChunkSize), p.Address-desc.Base, uint64(p.Length)
	var run []byte
	if i := r.runAt(uint32(off / cs)); i >= 0 && off%cs == 0 {
		h := &r.runs[i]
		if k := min(h.n, r.slots()-h.first); h.have == h.n && n == uint64(k)*cs {
			run = c.payloadBuf(int(n), c.internal)
			copy(run, r.held[off:off+n])
			c.stats.VerifiedChunks += uint64(k)
			h.first, h.n, h.have = 0, h.n-k, h.have-k // what is left of a run that wraps
		}
		if run == nil || h.n == 0 {
			r.runs = slices.Delete(r.runs, i, i+1)
		}
	}
	if run == nil {
		c.stats.AuthFailures++
	}
	c.mu.Unlock()
	if run == nil {
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
// batches into the metadata buffer, read at its source. A test seam: the
// D2H burst and release cells hold what the SC published to it.
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

// Teardown destroys key material, drops regions with their tag records,
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
	// The hook routes reset MMIO to the device, so it must run with no
	// controller lock held.
	if c.onTeardown != nil {
		c.onTeardown()
	}
}
