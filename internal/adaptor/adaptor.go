// Package adaptor implements ccAI's TVM-side software component (§3,
// §7.1): a kernel module that gives the unmodified native xPU driver a
// confidential path to the device. It stages sensitive payloads through
// encrypted bounce buffers (de/encrypt_data), uploads Packet Filter
// policies and transfer descriptors to the PCIe-SC as sealed entries of
// its submission ring (pkt_filter_manage), posts authentication-tag
// records, and wraps control MMIO with the A3 integrity protocol — all
// without touching the driver or the application.
package adaptor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"ccai/internal/arena"
	"ccai/internal/core"
	"ccai/internal/mem"
	"ccai/internal/obsv"
	"ccai/internal/pcie"
	"ccai/internal/secmem"
	"ccai/internal/sim"
)

// IOStats counts the Adaptor's MMIO interactions with the PCIe-SC —
// the quantity §5's optimizations exist to reduce.
type IOStats struct {
	MMIOWrites uint64
	MMIOReads  uint64
}

// Region is one staged transfer: the bounce buffer, its descriptor as
// registered with the SC, and (for D2H) the tag table.
type Region struct {
	Desc     core.Descriptor
	Buf      *mem.Buffer
	TagBuf   *mem.Buffer
	PlainLen int64
	// Recs retains the posted tag records so recovery can repost them
	// after tag-packet loss (RepostTags). For a step window they are the
	// records of the step armed last, which occupy chunk slots starting
	// at slot.
	Recs []core.TagRecord
	slot uint32
}

// Adaptor is the TVM-side component instance. It owns the TVM replicas
// of the protected streams (negotiated during trust establishment) and
// the staging memory in the shared region.
type Adaptor struct {
	// mu serializes all session state: stream replicas, sequence
	// numbers, recovery counters. Retry paths run under it, so
	// concurrent staging/collect calls cannot interleave half-recovered
	// state.
	mu sync.Mutex

	id    pcie.ID
	bus   *pcie.Bus
	space *mem.Space
	keys  *secmem.KeyStore

	scBar   uint64
	xpuBar  uint64
	region  string // staging region name within the space
	mmioSeq uint32
	nextID  uint32
	nextTag uint8 // transaction tag for non-posted requests; fresh per attempt

	h2d    *secmem.Stream // seal side
	d2h    *secmem.Stream // open side
	config *secmem.Stream // seal side

	// metaBuf (the DMA-metadata batch page) and ringBuf (the submission
	// ring's backing memory) are allocated once and survive teardown;
	// ring is the live producer state, nil when there is no session.
	metaBuf *mem.Buffer
	ringBuf *mem.Buffer
	ring    *submitRing

	// lastCplHead is the highest device command head accepted by
	// CompletionHead this session — the monotonicity floor that rejects
	// regressed or replayed completion-word writebacks.
	lastCplHead uint64

	io     IOStats
	policy RetryPolicy
	clock  *sim.Engine
	rec    RecoveryStats

	// Per-call scratch reused across staging/collect batches (guarded by
	// mu): the slice-header tables for batch seal/open. Plaintext
	// aliases are cleared before the call returns so the Adaptor never
	// retains references into a caller's buffer.
	scratchPts    [][]byte
	scratchAADs   [][]byte
	scratchSealed []secmem.Sealed
	descWire      [core.DescriptorSize]byte // registerDescriptor's marshal buffer
	// recsFree keeps up to recsFreeCap tag-record tables of released H2D
	// regions for the next StageH2D or step window (a 64 KiB region's
	// table is 10 KiB).
	recsFree [][]core.TagRecord

	// pkts hands out the structs of the MMIO writes this Adaptor routes;
	// routeWrite takes them back.
	pkts pcie.PacketArena

	// hub propagates observability to streams activated in HWInit; obs
	// holds the cached handles (zero value = uninstrumented).
	hub *obsv.Hub
	obs adaptorObs

	// onTeardown, when set, runs at the end of every teardown, asked for
	// or fail-closed (see SetTeardownHook).
	onTeardown func()
}

// errNoSession is what every operation that needs the session's streams
// or its ring returns before HWInit and after teardown.
var errNoSession = errors.New("adaptor: session not established (HWInit) or already torn down")

// recsFreeCap bounds the free tag-record tables an Adaptor keeps.
const recsFreeCap = 4

// SharedRegion is the mem.Space region name the Adaptor stages bounce
// buffers in; the platform must create it and IOMMU-map it for the SC.
const SharedRegion = "shared"

// New constructs an Adaptor for a TVM with requester ID id, talking to
// a PCIe-SC whose control BAR is at scBar and whose guarded xPU window
// starts at xpuBar. Staging memory comes from the named region of space
// (SharedRegion on a single-slice platform; multi-tenant platforms give
// each tenant its own shared window).
func New(id pcie.ID, bus *pcie.Bus, space *mem.Space, keys *secmem.KeyStore, scBar, xpuBar uint64, region string) *Adaptor {
	return &Adaptor{
		id: id, bus: bus, space: space, keys: keys,
		scBar: scBar, xpuBar: xpuBar, region: region, nextID: 1,
		nextTag: 1, policy: DefaultRetryPolicy(),
	}
}

// IO reports cumulative MMIO interaction counts.
func (a *Adaptor) IO() IOStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.io
}

// HWInit activates the Adaptor's stream replicas from negotiated key
// material and programs the metadata batch buffer and the submission
// ring (§7.1 hw_init). Both buffers are allocated by the first session
// and reused, scrubbed, by every later one: the SC forgets their bases
// at teardown, so each session programs them again.
func (a *Adaptor) HWInit() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	var err error
	if a.h2d, err = a.keys.Stream(core.StreamH2D); err != nil {
		return fmt.Errorf("adaptor: %w", err)
	}
	if a.d2h, err = a.keys.Stream(core.StreamD2H); err != nil {
		return fmt.Errorf("adaptor: %w", err)
	}
	if a.config, err = a.keys.Stream(core.StreamConfig); err != nil {
		return fmt.Errorf("adaptor: %w", err)
	}
	track := obsv.TrackCrypto + "/adaptor"
	a.h2d.SetObserver(a.hub, track, core.StreamH2D)
	a.d2h.SetObserver(a.hub, track, core.StreamD2H)
	a.config.SetObserver(a.hub, track, core.StreamConfig)
	if a.metaBuf == nil {
		if a.metaBuf, err = a.space.Alloc(a.region, "dma-metadata", mem.PageSize); err != nil {
			return fmt.Errorf("adaptor: metadata buffer: %w", err)
		}
	} else {
		clear(a.metaBuf.Bytes()) // last session's progress counters
	}
	a.mmioWrite64(pcie.RoleControlWrite, core.RegMetaBase, a.metaBuf.Base())
	a.mmioWrite64(pcie.RoleControlWrite, core.RegMetaSize, uint64(a.metaBuf.Size()))
	if a.ringBuf == nil {
		if a.ringBuf, err = a.space.Alloc(a.region, "dma-submitring", int64(core.RingHdrSize+(ringSlots+core.RingMirrorSlots)*core.RingSlotSize)); err != nil {
			return fmt.Errorf("adaptor: submission ring: %w", err)
		}
	} else {
		// Scrub the head/status words the SC wrote last session before
		// re-arming.
		clear(a.ringBuf.Bytes()[:core.RingHdrSize])
	}
	a.ring = &submitRing{buf: a.ringBuf, slots: ringSlots}
	a.lastCplHead = 0
	a.mmioWrite64(pcie.RoleControlWrite, core.RegRingBase, a.ringBuf.Base())
	a.mmioWrite64(pcie.RoleControlWrite, core.RegRingSize, ringSlots)
	return nil
}

// --- raw SC MMIO -------------------------------------------------------------

// routeWrite issues one posted MMIO write of the given role carrying a
// copy of payload. Copy and packet struct are pooled: every MMIO
// payload is public bytes (sealed blobs, tag records, register values
// the bus shows anyway) and the SC and the device consume a write
// before Route returns, so when no tap has seen the bus — and the SC did
// not pin the packet because a tap sits on the segment it relayed it to
// — the Adaptor is the last holder of both.
func (a *Adaptor) routeWrite(role pcie.Role, addr uint64, payload []byte) {
	body := arena.Get(len(payload))
	copy(body, payload)
	p := a.pkts.MemWrite(role, a.id, addr, body)
	p.FirstBE, p.LastBE = 0xf, 0xf
	a.bus.Route(p)
	if a.bus.Untapped() && pcie.Release(p) {
		arena.Put(body)
	}
}

func (a *Adaptor) mmioWrite64(role pcie.Role, off uint64, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	a.io.MMIOWrites++
	a.routeWrite(role, a.scBar+off, buf[:])
}

// SCStatus reads the controller's status register (an I/O read with
// the full retry discipline).
func (a *Adaptor) SCStatus() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	cpl, err := a.readWithRetry(a.scBar + core.RegSCStatus)
	if err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(cpl.Payload)
}

// --- pkt_filter_manage --------------------------------------------------------

// InstallRule seals a Packet Filter policy under the config stream and
// uploads it as a ring entry (§4.1's encrypted configuration).
func (a *Adaptor) InstallRule(r core.Rule) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.config == nil {
		return errNoSession
	}
	sealed, err := a.sealWithRetry(a.config, r.Marshal(), nil)
	if err != nil {
		return fmt.Errorf("adaptor: seal rule: %w", err)
	}
	if err := a.ringPush(core.RingOpRule, 0, core.MarshalBlob(sealed)); err != nil {
		return err
	}
	return a.flushRingLocked()
}

func (a *Adaptor) registerDescriptor(d core.Descriptor) error {
	// The wire image lives in the Adaptor (guarded by mu): a local array
	// would escape through the cipher's interface call and cost the
	// allocation Marshal did.
	sealed, err := a.sealWithRetry(a.config, d.AppendMarshal(a.descWire[:0]), nil)
	if err != nil {
		return fmt.Errorf("adaptor: seal descriptor: %w", err)
	}
	// No flush here: staging callers batch the descriptor with the tag
	// and notify entries that follow it and publish once.
	return a.ringPush(core.RingOpDesc, 0, core.MarshalBlob(sealed))
}

// ReleaseRegion drops a transfer region on the SC and frees its staging
// memory. With no session there is no ring to carry the release: the
// region goes on the TVM side only, and the SC dropped it at teardown —
// or, if the teardown write was lost on the link, keeps it, as it keeps
// the keys, until a later teardown lands.
func (a *Adaptor) ReleaseRegion(r *Region) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.ringPush(core.RingOpRelease, uint64(r.Desc.ID), nil) == nil {
		_ = a.flushRingLocked()
	}
	a.freeRegionLocked(r)
}

// --- tag uploads ---------------------------------------------------------------

// postTags queues tag records, as many to a ring entry as fit one TLP
// payload.
func (a *Adaptor) postTags(recs []core.TagRecord) error {
	sp := a.obs.tracer.Start(sitePostTags, keyRecords.I64(int64(len(recs))))
	defer sp.End()
	// One reused arena buffer per upload burst: ringPush copies the
	// payload into the slot, so the buffer is free to refill immediately.
	perPacket := pcie.MaxPayload / core.TagRecordSize
	payload := arena.Get(perPacket * core.TagRecordSize)[:0]
	for len(recs) > 0 {
		n := perPacket
		if len(recs) < n {
			n = len(recs)
		}
		payload = payload[:0]
		for _, r := range recs[:n] {
			payload = r.AppendMarshal(payload)
		}
		if err := a.ringPush(core.RingOpTags, 0, payload); err != nil {
			arena.Put(payload)
			return err
		}
		recs = recs[n:]
	}
	arena.Put(payload) // wire-format tags: public bytes
	return nil
}

// --- encrypt_data / staging ------------------------------------------------------

// StageH2D encrypts data into a fresh bounce region chunk-by-chunk
// (consuming consecutive IV counters), posts the chunk tags, registers
// the region with the SC, and sends the single region-ready notify.
// The returned region's bounce address is what the native driver's DMA
// descriptors point at.
func (a *Adaptor) StageH2D(name string, data []byte) (*Region, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.h2d == nil {
		return nil, errNoSession
	}
	sp := a.obs.tracer.Start(siteStageH2D, a.obs.regionName(name), keyBytes.I64(int64(len(data))))
	defer sp.End()
	if _, err := a.maybeRekeyLocked(); err != nil {
		return nil, err
	}
	buf, err := a.space.Alloc(a.region, name, int64(len(data)))
	if err != nil {
		return nil, fmt.Errorf("adaptor: bounce alloc: %w", err)
	}
	first := a.h2d.SendCounter() + 1
	desc := core.Descriptor{
		ID: a.nextID, Dir: core.DirH2D, Class: core.ActionWriteReadProtect,
		Base: buf.Base(), Len: uint64(len(data)),
		ChunkSize: core.ChunkSize, FirstCounter: first,
	}
	a.nextID++

	// Register the descriptor up front so the tag packets the pipeline
	// flushes below land against a known region; a failed pipeline
	// releases it again.
	if err := a.registerDescriptor(desc); err != nil {
		a.space.Free(buf)
		return nil, err
	}

	// Chunk the payload. Counters are reserved contiguously under the
	// stream lock (matching desc.FirstCounter), and AADs share one
	// backing array instead of one alloc per chunk.
	pts, aads, aadAll := a.chunkViews(desc, 0, data)
	nChunks := len(pts)

	// Streaming pipeline (DESIGN.md §10): each chunk is sealed straight
	// into its slot of the bounce buffer, then handed to this emit stage,
	// which records its tag and flushes full tag packets.
	recs := a.takeRecs(nChunks)
	perPacket := pcie.MaxPayload / core.TagRecordSize
	tagPayload := arena.Get(perPacket * core.TagRecordSize)[:0]
	emit := func(i int, chunk *secmem.Sealed) error {
		recs = append(recs, core.TagRecord{
			Stream: core.StreamH2D, Chunk: chunk.Counter, Epoch: chunk.Epoch, Tag: chunk.Tag,
		})
		tagPayload = recs[len(recs)-1].AppendMarshal(tagPayload)
		if len(tagPayload) >= perPacket*core.TagRecordSize {
			if err := a.ringPush(core.RingOpTags, 0, tagPayload); err != nil {
				return err
			}
			tagPayload = tagPayload[:0]
		}
		return nil
	}
	err = a.sealBatchIntoWithRetry(a.h2d, buf.Bytes(), pts, aads, emit)
	if err == nil && len(tagPayload) > 0 {
		err = a.ringPush(core.RingOpTags, 0, tagPayload)
	}
	arena.Put(tagPayload) // wire-format tags: public bytes
	dropChunkViews(pts, aads, aadAll)
	if err == nil {
		// One region-ready notify, then one doorbell publishes the whole
		// burst: descriptor, tag packets, notify (the batched I/O of §5).
		err = a.ringPush(core.RingOpNotify, uint64(desc.ID), nil)
	}
	if err == nil {
		err = a.flushRingLocked()
	}
	if err != nil {
		a.withdrawLocked(&Region{Desc: desc, Buf: buf, Recs: recs})
		return nil, fmt.Errorf("adaptor: encrypt_data: %w", err)
	}
	return &Region{Desc: desc, Buf: buf, PlainLen: int64(len(data)), Recs: recs}, nil
}

// takeRecs returns an empty tag-record table with room for n records:
// the smallest free one that fits, so a one-chunk region never takes a
// KV region's table. Callers hold a.mu.
func (a *Adaptor) takeRecs(n int) []core.TagRecord {
	best := -1
	for i, recs := range a.recsFree {
		if cap(recs) >= n && (best < 0 || cap(recs) < cap(a.recsFree[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]core.TagRecord, 0, n)
	}
	recs, last := a.recsFree[best], len(a.recsFree)-1
	a.recsFree[best], a.recsFree[last] = a.recsFree[last], nil
	a.recsFree = a.recsFree[:last]
	return recs
}

// putRecs keeps a released region's table (tags and counters: public
// bytes) for the next region. A full list trades its smallest table for
// a larger one, so the one-record tables of step windows and token-id
// regions cannot crowd out the table a KV region needs. Callers hold a.mu.
func (a *Adaptor) putRecs(recs []core.TagRecord) {
	if cap(recs) == 0 {
		return
	}
	if len(a.recsFree) < recsFreeCap {
		a.recsFree = append(a.recsFree, recs[:0])
		return
	}
	small := 0
	for i := range a.recsFree {
		if cap(a.recsFree[i]) < cap(a.recsFree[small]) {
			small = i
		}
	}
	if cap(recs) > cap(a.recsFree[small]) {
		a.recsFree[small] = recs[:0]
	}
}

// chunkViews slices data into ChunkSize plaintext views and builds the
// AAD binding each to region positions first, first+1, … — in the
// Adaptor's reusable scratch (guarded by mu), the AADs sharing one arena
// buffer instead of one alloc per chunk. dropChunkViews gives all three
// back.
func (a *Adaptor) chunkViews(desc core.Descriptor, first uint32, data []byte) (pts, aads [][]byte, aadAll []byte) {
	n := (len(data) + core.ChunkSize - 1) / core.ChunkSize
	if cap(a.scratchPts) < n {
		a.scratchPts = make([][]byte, n)
	}
	if cap(a.scratchAADs) < n {
		a.scratchAADs = make([][]byte, n)
	}
	pts, aads = a.scratchPts[:n], a.scratchAADs[:n]
	aadAll = arena.Get(8 * n)
	for i := range pts {
		pts[i] = data[i*core.ChunkSize : min((i+1)*core.ChunkSize, len(data))]
		ab := aadAll[i*8 : i*8+8 : i*8+8]
		desc.PutAAD((*[8]byte)(ab), first+uint32(i))
		aads[i] = ab
	}
	return pts, aads, aadAll
}

// dropChunkViews zeroes the AAD scratch (it follows the secret-adjacent
// discipline) and drops the plaintext aliases, so the Adaptor never
// retains references into a caller's buffer.
func dropChunkViews(pts, aads [][]byte, aadAll []byte) {
	arena.PutZero(aadAll)
	for i := range pts {
		pts[i], aads[i] = nil, nil
	}
}

// StageVerified stages plaintext the device may read under action A3
// (e.g. the command ring): the data sits in the clear, and the device
// reads only runs of chunks SyncVerified posted a one-shot MAC record
// for.
func (a *Adaptor) StageVerified(name string, size int64, chunkSize uint32) (*Region, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.config == nil {
		return nil, errNoSession
	}
	if chunkSize == 0 || chunkSize > pcie.MaxReadReq {
		return nil, fmt.Errorf("adaptor: verified region chunk size %d outside (0, %d]", chunkSize, pcie.MaxReadReq)
	}
	sp := a.obs.tracer.Start(siteStageVerified, a.obs.regionName(name), keyBytes.I64(size))
	defer sp.End()
	buf, err := a.space.Alloc(a.region, name, size)
	if err != nil {
		return nil, fmt.Errorf("adaptor: verified alloc: %w", err)
	}
	desc := core.Descriptor{
		ID: a.nextID, Dir: core.DirH2D, Class: core.ActionWriteProtect,
		Base: buf.Base(), Len: uint64(size), ChunkSize: chunkSize,
	}
	a.nextID++
	if err := a.registerDescriptor(desc); err != nil {
		a.space.Free(buf)
		return nil, err
	}
	r := &Region{Desc: desc, Buf: buf, PlainLen: size}
	if err := a.flushRingLocked(); err != nil {
		a.withdrawLocked(r)
		return nil, err
	}
	return r, nil
}

// SyncVerified posts the MAC records that let the device read the given
// chunk indices of an A3 region; the driver (via the platform hook) calls
// this right before ringing a doorbell that will make the device read
// those chunks. Consecutive indices form a run — a submission is one,
// two when it wraps the region — and a run gets one record: its MAC
// binds the region, the first slot, the length and the run's bytes
// (core.PutRunMACHeader), and the SC fetches and verifies the run as a
// unit. The records are queued, not published: the guarded doorbell
// write that follows flushes the ring before it goes out, so they reach
// the SC ahead of the device's first read without a doorbell of their
// own.
func (a *Adaptor) SyncVerified(r *Region, chunks []uint32) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	sp := a.obs.tracer.Start(siteSyncVerified,
		keyRegion.U64(uint64(r.Desc.ID)), keyChunks.I64(int64(len(chunks))))
	defer sp.End()
	cs := r.Desc.ChunkSize
	maxRun := min(core.MaxRunSlots, pcie.MaxReadReq/int(cs))
	var entry [core.RingMaxData]byte // one tag entry's worth of records
	payload := entry[:0]
	for len(chunks) > 0 {
		n := 1
		for n < len(chunks) && n < maxRun && chunks[n] == chunks[n-1]+1 {
			n++
		}
		first, size := chunks[0], uint32(n)*cs
		var hdr [16]byte
		core.PutRunMACHeader(&hdr, r.Desc.ID, first, uint32(n), size)
		mac, err := a.keys.MACSum(core.StreamMMIO, hdr[:], r.Buf.Slice(int64(first)*int64(cs), int64(size)))
		if err != nil {
			return fmt.Errorf("adaptor: %w", err)
		}
		rec := core.TagRecord{Stream: core.StreamA3Run, Chunk: core.RunKey(r.Desc.ID, first), Epoch: uint32(n)}
		copy(rec.Tag[:], mac[:secmem.TagSize])
		if len(payload)+core.TagRecordSize > len(entry) {
			if err := a.ringPush(core.RingOpTags, 0, payload); err != nil {
				return err
			}
			payload = entry[:0]
		}
		payload = rec.AppendMarshal(payload)
		chunks = chunks[n:]
	}
	if len(payload) == 0 {
		return nil
	}
	return a.ringPush(core.RingOpTags, 0, payload)
}

// PrepareD2H allocates a result bounce region plus its tag table and
// registers both with the SC.
func (a *Adaptor) PrepareD2H(name string, size int64) (*Region, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	r, err := a.prepareD2HLocked(name, size)
	if err != nil {
		return nil, err
	}
	if err := a.flushRingLocked(); err != nil {
		a.withdrawLocked(r)
		return nil, err
	}
	return r, nil
}

// prepareD2HLocked is PrepareD2H up to, but not including, the flush
// that publishes the descriptor. Callers hold a.mu.
func (a *Adaptor) prepareD2HLocked(name string, size int64) (*Region, error) {
	if a.d2h == nil {
		return nil, errNoSession
	}
	sp := a.obs.tracer.Start(sitePrepareD2H, a.obs.regionName(name), keyBytes.I64(size))
	defer sp.End()
	buf, err := a.space.Alloc(a.region, name, size)
	if err != nil {
		return nil, fmt.Errorf("adaptor: d2h alloc: %w", err)
	}
	chunks := (size + core.ChunkSize - 1) / core.ChunkSize
	tagBuf, err := a.space.Alloc(a.region, name+"-tags", chunks*core.TagRecordSize)
	if err != nil {
		a.space.Free(buf)
		return nil, fmt.Errorf("adaptor: tag table alloc: %w", err)
	}
	r := &Region{PlainLen: size, Buf: buf, TagBuf: tagBuf, Desc: core.Descriptor{
		ID: a.nextID, Dir: core.DirD2H, Class: core.ActionWriteReadProtect,
		Base: buf.Base(), Len: uint64(size), TagBase: tagBuf.Base(),
		ChunkSize: core.ChunkSize,
	}}
	a.nextID++
	if err := a.registerDescriptor(r.Desc); err != nil {
		a.freeRegionLocked(r)
		return nil, err
	}
	return r, nil
}

// withdrawLocked takes back regions whose descriptors the caller queued
// but will not hand out, because a flush failed: a release rides behind
// each, so whenever the ring next publishes, the SC drops what it
// installs — it never keeps a region whose memory went back to the
// space — and the staging memory is freed. Callers hold a.mu.
func (a *Adaptor) withdrawLocked(rs ...*Region) {
	queued := true
	for _, r := range rs {
		if queued = a.ringPush(core.RingOpRelease, uint64(r.Desc.ID), nil) == nil; !queued {
			break // a desync tore the session down: no ring to carry it
		}
	}
	if queued {
		_ = a.flushRingLocked()
	}
	for _, r := range rs {
		a.freeRegionLocked(r)
	}
}

// freeRegionLocked returns a region's staging memory to the space and
// its tag-record table to the Adaptor; the region is dead afterwards.
func (a *Adaptor) freeRegionLocked(r *Region) {
	if r.Buf != nil {
		a.space.Free(r.Buf)
	}
	if r.TagBuf != nil {
		a.space.Free(r.TagBuf)
	}
	a.putRecs(r.Recs)
	r.Recs = nil
}

// D2HProgress reports how many chunks the SC has completed for a D2H
// region, from the TVM metadata buffer the SC batches its progress
// counters into (§5: a memory read, not an I/O read).
func (a *Adaptor) D2HProgress(r *Region) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	// Ordering safety: anything still pending in the ring (tag records,
	// a notify) must reach the SC before progress is interpreted.
	if a.metaBuf == nil || a.flushRingLocked() != nil {
		return 0
	}
	v, err := a.space.ReadUint64(a.metaBuf.Base() + uint64(r.Desc.ID)*8)
	if err != nil {
		return 0
	}
	return v
}

// CollectD2H authenticates and decrypts a completed result region
// (decrypt_data): ciphertext from the bounce buffer, tags from the tag
// table, counters enforced in order by the d2h stream replica.
func (a *Adaptor) CollectD2H(r *Region, n int64) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.d2h == nil {
		return nil, errNoSession
	}
	if n > r.PlainLen {
		return nil, fmt.Errorf("adaptor: collect %d bytes from %d-byte region", n, r.PlainLen)
	}
	sp := a.obs.tracer.Start(siteCollectD2H, keyRegion.U64(uint64(r.Desc.ID)), keyBytes.I64(n))
	defer sp.End()
	if err := a.flushRingLocked(); err != nil {
		return nil, err
	}
	// Assemble the batch from the bounce buffer + tag table (records by
	// value, AADs sharing one backing array), then authenticate and
	// decrypt straight into the result buffer; the stream replica
	// enforces the strictly-increasing counter discipline across the
	// whole batch, and a failed batch comes back zeroed rather than
	// partially decrypted.
	nChunks := int((n + core.ChunkSize - 1) / core.ChunkSize)
	if cap(a.scratchSealed) < nChunks {
		a.scratchSealed = make([]secmem.Sealed, nChunks)
	}
	if cap(a.scratchAADs) < nChunks {
		a.scratchAADs = make([][]byte, nChunks)
	}
	sealedChunks := a.scratchSealed[:nChunks]
	aads := a.scratchAADs[:nChunks]
	aadAll := arena.Get(8 * nChunks)
	for i := 0; i < nChunks; i++ {
		off := int64(i) * core.ChunkSize
		end := off + core.ChunkSize
		if end > n {
			end = n
		}
		recBytes := r.TagBuf.Slice(int64(i)*core.TagRecordSize, core.TagRecordSize)
		sealedChunks[i] = secmem.Sealed{
			Counter:    binary.LittleEndian.Uint32(recBytes[4:]),
			Epoch:      binary.LittleEndian.Uint32(recBytes[8:]),
			Ciphertext: r.Buf.Slice(off, end-off),
		}
		copy(sealedChunks[i].Tag[:], recBytes[12:])
		ab := aadAll[i*8 : i*8+8 : i*8+8]
		r.Desc.PutAAD((*[8]byte)(ab), uint32(i))
		aads[i] = ab
	}
	out := make([]byte, n) // escapes to the caller: a real allocation
	err := a.openBatchIntoWithRetry(a.d2h, out, sealedChunks, aads)
	arena.PutZero(aadAll)
	for i := range sealedChunks { // drop bounce-buffer aliases
		sealedChunks[i].Ciphertext, aads[i] = nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("adaptor: decrypt_data: %w", err)
	}
	return out, nil
}

// --- control MMIO -----------------------------------------------------------------

// GuardedWrite performs an A3-protected MMIO write to a device
// register: the MAC record for the upcoming sequence number joins the
// submission ring behind whatever is pending, one doorbell publishes the
// burst — the record is consumed (head == tail) before anything else
// happens — and then the write itself goes out through the SC's shadow
// window. A write the device acts on stays that direct TLP: it is
// individually MACed and sequence-bound, and batching it would hide the
// very packet the per-write integrity protocol protects.
func (a *Adaptor) GuardedWrite(reg uint64, value uint64) error {
	return a.guardedWrite(reg, value, false)
}

// GuardedWriteBatched is GuardedWrite for a register whose value the
// device only acts on at a later doorbell (the command-ring tail): the
// write joins the submission ring as one entry, its MAC record behind
// its value, and reaches the SC with the burst the next direct guarded
// write publishes — same sequence number, same MAC, same order, no MMIO
// of its own.
func (a *Adaptor) GuardedWriteBatched(reg uint64, value uint64) error {
	return a.guardedWrite(reg, value, true)
}

func (a *Adaptor) guardedWrite(reg uint64, value uint64, batched bool) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	sp := a.obs.tracer.Start(siteGuardedWrite, keyReg.Hex(reg))
	defer sp.End()
	// entry is the batched form's ring payload: value, then MAC record.
	var entry [8 + core.TagRecordSize]byte
	payload := entry[:8]
	binary.LittleEndian.PutUint64(payload, value)
	var hdr [16]byte
	core.PutMACHeader(&hdr, a.mmioSeq, a.xpuBar+reg, uint32(len(payload)))
	mac, err := a.keys.MACSum(core.StreamMMIO, hdr[:], payload)
	if err != nil {
		return fmt.Errorf("adaptor: %w", err)
	}
	rec := core.TagRecord{Stream: core.StreamMMIO, Chunk: a.mmioSeq}
	copy(rec.Tag[:], mac[:secmem.TagSize])
	if batched {
		if err := a.ringPush(core.RingOpGuarded, a.xpuBar+reg, rec.AppendMarshal(payload)); err != nil {
			return err
		}
		a.mmioSeq++
		return nil
	}
	if err := a.ringPush(core.RingOpTags, 0, rec.AppendMarshal(entry[8:8])); err != nil {
		return err
	}
	if err := a.flushRingLocked(); err != nil {
		return err
	}
	a.mmioSeq++
	a.io.MMIOWrites++
	a.routeWrite(pcie.RoleGuardedWrite, a.xpuBar+reg, payload)
	return nil
}

// CompletionHead reads the device's command-head register, serving it
// from the submission ring's completion word (a host-memory read) while
// the session has a ring. The word is accepted only when it carries
// the RingCplValid tag and is monotonic against the session floor;
// anything else — never posted, scrubbed, regressed, or corrupted —
// falls back to the guarded MMIO read, which is authoritative. A stale
// word is safe by construction: the SC only writes heads it just read
// from the device, so a lost writeback makes the producer see an old
// (smaller) head and re-kick, never a fabricated completion.
func (a *Adaptor) CompletionHead(reg uint64) (uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	sp := a.obs.tracer.Start(siteCompletionHead, keyReg.Hex(reg))
	defer sp.End()
	if a.ring != nil {
		// Ordering: anything pending in the ring (tag syncs, notifies)
		// must be published before the completion word is interpreted —
		// the SC reaps on the far side of the doorbell.
		if err := a.flushRingLocked(); err != nil {
			return 0, err
		}
		if w, err := a.space.ReadUint64(a.ring.buf.Base() + core.RingHdrCplOff); err == nil && w&core.RingCplValid != 0 {
			head := w &^ uint64(core.RingCplValid)
			if head >= a.lastCplHead {
				a.lastCplHead = head
				return head, nil
			}
			// Regressed completion word: a delayed or tampered writeback.
			// Fall through to the MMIO read rather than hand the driver a
			// head that moved backwards.
		}
	}
	cpl, err := a.readWithRetry(a.xpuBar + reg)
	if err != nil {
		return 0, err
	}
	head := binary.LittleEndian.Uint64(cpl.Payload)
	if head >= a.lastCplHead {
		a.lastCplHead = head
	}
	return head, nil
}

// DeviceRead performs a pass-through (A4) read of a device register
// through the SC window, with bounded retry on completion timeout and
// stale-completion suppression.
func (a *Adaptor) DeviceRead(reg uint64) (uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	sp := a.obs.tracer.Start(siteDeviceRead, keyReg.Hex(reg))
	defer sp.End()
	cpl, err := a.readWithRetry(a.xpuBar + reg)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(cpl.Payload), nil
}

// --- key rotation ------------------------------------------------------------

// RekeyThreshold is the remaining-counter level that triggers proactive
// rotation: rotating well before the 2³²-chunk exhaustion point keeps
// GCM IVs unique even with pipelined traffic in flight (§6).
const RekeyThreshold = 1 << 16

// RekeyStream rotates one protected stream: fresh material is sealed
// under the config stream, uploaded as a ring entry, and installed on
// both ends with a bumped epoch.
func (a *Adaptor) RekeyStream(stream string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rekeyStreamLocked(stream)
}

func (a *Adaptor) rekeyStreamLocked(stream string) error {
	if a.config == nil {
		return fmt.Errorf("adaptor: session not established")
	}
	key, nonce := secmem.FreshKey(), secmem.FreshNonce()
	cmd := core.RekeyCommand{Stream: stream, Key: key, Nonce: nonce}
	sealed, err := a.sealWithRetry(a.config, cmd.Marshal(), nil)
	if err != nil {
		return fmt.Errorf("adaptor: seal rekey: %w", err)
	}
	if err := a.ringPush(core.RingOpRekey, 0, core.MarshalBlob(sealed)); err != nil {
		return err
	}
	// Once the entry is queued the TVM side rotates, whether or not this
	// flush publishes it: whatever is sealed under the new key reaches
	// the SC behind the entry, so the SC never lags an epoch behind its
	// peer — and a rekey the next flush publishes cannot rotate the SC
	// alone.
	flushErr := a.flushRingLocked()
	if a.config == nil {
		return flushErr // the flush found the ring desynced: no session left
	}
	a.obs.rekeys.Inc()
	a.obs.tracer.Mark(siteRekey, keyStream.Str(obsv.Intern(stream)))
	a.hub.Eventf(obsv.EvRekey, "", "stream=%s", stream)

	// Mirror on the TVM side.
	if err := a.keys.Install(stream, key, nonce); err != nil {
		return err
	}
	switch stream {
	case core.StreamH2D:
		err = a.h2d.Rekey(key, nonce)
	case core.StreamD2H:
		err = a.d2h.Rekey(key, nonce)
	case core.StreamMMIO:
		// raw MAC key; Install above is the whole rotation
	default:
		err = fmt.Errorf("adaptor: stream %q not rotatable", stream)
	}
	if err != nil {
		return err
	}
	return flushErr
}

// H2DFence pins the H2D stream's current key epoch. Long-lived sealed
// state (a session's device-resident KV-cache) holds the fence across
// decode steps; a tripped fence marks a mid-session rekey — the
// resident ciphertext is still the fenced epoch's and stays valid in
// device memory, but nothing may be re-sealed under it.
func (a *Adaptor) H2DFence() secmem.Fence {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.h2d.Fence()
}

// StreamEpoch reports the named data stream's current key epoch.
func (a *Adaptor) StreamEpoch(stream string) uint32 {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch stream {
	case core.StreamH2D:
		return a.h2d.Epoch()
	case core.StreamD2H:
		return a.d2h.Epoch()
	}
	return 0
}

// MaybeRekey rotates any data stream approaching IV exhaustion and
// reports which streams were rotated. Call it between transfers; the
// staging helpers call it implicitly.
func (a *Adaptor) MaybeRekey() ([]string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.maybeRekeyLocked()
}

func (a *Adaptor) maybeRekeyLocked() ([]string, error) {
	var rotated []string
	if a.h2d != nil && a.h2d.Remaining() < RekeyThreshold {
		if err := a.rekeyStreamLocked(core.StreamH2D); err != nil {
			return rotated, err
		}
		rotated = append(rotated, core.StreamH2D)
	}
	if a.d2h != nil && a.d2h.Remaining() < RekeyThreshold {
		if err := a.rekeyStreamLocked(core.StreamD2H); err != nil {
			return rotated, err
		}
		rotated = append(rotated, core.StreamD2H)
	}
	return rotated, nil
}

// Teardown destroys the session: the SC wipes keys/regions and cleans
// the device; the TVM side zeroizes its own replicas.
func (a *Adaptor) Teardown() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.teardownLocked()
}

func (a *Adaptor) teardownLocked() {
	a.obs.tracer.Mark(siteTeardown)
	// Pending ring entries die with the session; teardown itself stays a
	// direct MMIO write so it cannot depend on ring health.
	a.ring = nil
	a.mmioWrite64(pcie.RoleControlWrite, core.RegTeardown, 1)
	a.keys.DestroyAll()
	a.h2d, a.d2h, a.config = nil, nil, nil
	a.mmioSeq = 0
	if a.onTeardown != nil {
		a.onTeardown()
	}
}

// SetTeardownHook installs fn to run, under the Adaptor's lock, at the
// end of every teardown: Teardown, FailClosed, and the fail-closed
// paths the Adaptor takes on its own (a desynced submission ring). fn
// must not call back into the Adaptor.
func (a *Adaptor) SetTeardownHook(fn func()) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.onTeardown = fn
}
