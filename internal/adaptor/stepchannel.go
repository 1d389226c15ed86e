package adaptor

import (
	"fmt"

	"ccai/internal/arena"
	"ccai/internal/core"
	"ccai/internal/secmem"
)

// Step channel (DESIGN.md §16): the session-resident pair of regions a
// decode stream moves its per-step traffic through. StageH2D and
// PrepareD2H describe a buffer to the SC, use it once and release it —
// right for a blob task or a prefill, whose buffers differ every time,
// and 126 sealed installs too many for a stream whose every step moves
// the same few bytes the same way. A channel is installed once: an H2D
// window of StepWindowSlots chunk slots, filled one step at a time,
// and a D2H output region the SC re-seals into on every step. A step
// then costs a seal into the next free slot and a positioned tag entry
// — public bytes, like every tag record — telling the SC which IV
// counter that slot was sealed under; nothing is sealed under the
// config stream, allocated or released until the window is spent.

// StepWindowSlots is W, the chunk slots of a step window: a stream of
// single-chunk steps renews its channel every 64 steps.
const StepWindowSlots = 64

// armRecords bounds the records of one positioned tag entry: 8, one
// fewer than a slot holds. How a multi-chunk step splits into entries is
// on the wire — the decode budgets and the committed scorecards pin it.
const armRecords = (core.RingMaxData - 8) / core.TagRecordSize

// StepChannel is one installed step window plus output region. The
// owner serializes its use (one step at a time).
type StepChannel struct {
	// Window is the H2D ids window; the recovery ladder reposts it like
	// any staged region (RepostTags).
	Window *Region
	// Out is the D2H output region CollectD2H opens after every step.
	Out *Region

	next uint32 // first unspent window slot
}

// stepSlots is how many chunk slots an n-byte step payload takes.
func stepSlots(n int) uint32 { return uint32((n + core.ChunkSize - 1) / core.ChunkSize) }

// Fits reports whether the window has unspent slots for an n-byte step
// payload; when it does not, the channel is spent: close it and open
// the next one.
func (ch *StepChannel) Fits(n int) bool { return ch.next+stepSlots(n) <= StepWindowSlots }

// OpenStepChannel installs a step channel: the window and an outLen-byte
// output region, registered with the SC in one ring burst. Every later
// step's output must fit outLen; a multi-chunk output region must be
// sized to the step that opens it (the SC's flush cadence counts chunks
// against the region's size).
func (a *Adaptor) OpenStepChannel(idsName, outName string, outLen int64) (*StepChannel, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	win, err := a.stageWindowLocked(idsName)
	if err != nil {
		return nil, err
	}
	out, err := a.prepareD2HLocked(outName, outLen)
	if err != nil {
		// The window's descriptor is already queued: take it back.
		a.withdrawLocked(win)
		return nil, err
	}
	if err := a.flushRingLocked(); err != nil {
		a.withdrawLocked(out, win)
		return nil, err
	}
	return &StepChannel{Window: win, Out: out}, nil
}

// stageWindowLocked allocates and registers an empty step window. It
// seals no data: slots are filled by ArmStep. Callers hold a.mu and
// publish the descriptor with their own flush.
func (a *Adaptor) stageWindowLocked(name string) (*Region, error) {
	if a.h2d == nil {
		return nil, errNoSession
	}
	const size = StepWindowSlots * core.ChunkSize
	sp := a.obs.tracer.Start(siteStageH2D, a.obs.regionName(name), keyBytes.I64(size))
	defer sp.End()
	buf, err := a.space.Alloc(a.region, name, size)
	if err != nil {
		return nil, fmt.Errorf("adaptor: step window alloc: %w", err)
	}
	r := &Region{Buf: buf, PlainLen: size, Desc: core.Descriptor{
		ID: a.nextID, Dir: core.DirH2D, Class: core.ActionWriteReadProtect,
		Base: buf.Base(), Len: size, ChunkSize: core.ChunkSize, Slotted: true,
	}}
	a.nextID++
	if err := a.registerDescriptor(r.Desc); err != nil {
		a.space.Free(buf)
		return nil, err
	}
	return r, nil
}

// ArmStep seals one step's payload into the window's next free slots
// under the next h2d IV counters and queues the positioned tag entry
// (and the region-ready notify) behind it in the submission ring. It
// returns the bounce address the step's DMA command reads. Nothing is
// published here: the entries ride the burst the submission's doorbell
// flushes, so an armed step costs no MMIO of its own. Each (window,
// slot) position is sealed at most once — the AAD binds it — so a
// failed step never gets its slots back.
func (a *Adaptor) ArmStep(ch *StepChannel, data []byte) (uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.h2d == nil {
		return 0, errNoSession
	}
	win, slot, n := ch.Window, ch.next, stepSlots(len(data))
	if n == 0 || !ch.Fits(len(data)) {
		return 0, fmt.Errorf("adaptor: %d-byte step does not fit step window %d at slot %d", len(data), win.Desc.ID, slot)
	}
	sp := a.obs.tracer.Start(siteArmStep,
		keyRegion.U64(uint64(win.Desc.ID)), keySlot.U64(uint64(slot)), keyBytes.I64(int64(len(data))))
	defer sp.End()
	if _, err := a.maybeRekeyLocked(); err != nil {
		return 0, err
	}
	ch.next += n

	pts, aads, aadAll := a.chunkViews(win.Desc, slot, data)
	if cap(win.Recs) < int(n) {
		a.putRecs(win.Recs)
		win.Recs = a.takeRecs(int(n))
	}
	win.Recs, win.slot = win.Recs[:0], slot
	// Cut at the step's bytes: the seal writes nothing outside them.
	dst := win.Buf.Bytes()[int(slot)*core.ChunkSize:][:len(data)]
	err := a.sealBatchIntoWithRetry(a.h2d, dst, pts, aads, func(_ int, chunk *secmem.Sealed) error {
		win.Recs = append(win.Recs, core.TagRecord{
			Stream: core.StreamH2D, Chunk: chunk.Counter, Epoch: chunk.Epoch, Tag: chunk.Tag,
		})
		return nil
	})
	dropChunkViews(pts, aads, aadAll)
	if err == nil {
		err = a.postArm(win)
	}
	if err == nil {
		err = a.ringPush(core.RingOpNotify, uint64(win.Desc.ID), nil)
	}
	if err != nil {
		return 0, fmt.Errorf("adaptor: arm step: %w", err)
	}
	return win.Buf.Base() + uint64(slot)*core.ChunkSize, nil
}

// postArm queues the positioned tag entries for the step a window
// holds in Recs: each entry carries its position (core.ArmPosition) in
// the ring entry's arg and up to armRecords records arming consecutive
// slots as its data. Callers hold a.mu.
func (a *Adaptor) postArm(win *Region) error {
	payload := arena.Get(armRecords * core.TagRecordSize)
	defer arena.Put(payload) // wire-format tags: public bytes
	for at := 0; at < len(win.Recs); at += armRecords {
		payload = payload[:0]
		for _, r := range win.Recs[at:min(at+armRecords, len(win.Recs))] {
			payload = r.AppendMarshal(payload)
		}
		if err := a.ringPush(core.RingOpTags, core.ArmPosition(win.Desc.ID, win.slot+uint32(at)), payload); err != nil {
			return err
		}
	}
	return nil
}

// CloseStepChannel releases both regions on the SC in one ring burst
// and frees their staging memory.
func (a *Adaptor) CloseStepChannel(ch *StepChannel) {
	a.mu.Lock()
	defer a.mu.Unlock()
	// Without a ring (a desync inside a push tore the session down) there
	// is nothing to publish.
	if a.ringPush(core.RingOpRelease, uint64(ch.Out.Desc.ID), nil) == nil &&
		a.ringPush(core.RingOpRelease, uint64(ch.Window.Desc.ID), nil) == nil {
		_ = a.flushRingLocked()
	}
	a.freeRegionLocked(ch.Out)
	a.freeRegionLocked(ch.Window)
}
