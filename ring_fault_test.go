package ccai

// Submission-ring fault matrix entries (ISSUE 8): the ring's two
// failure families against DESIGN.md §6. A lost batch doorbell is a
// benign link fault — the flush retry ladder re-publishes the same
// window and the SC's idempotent [head, tail) consumption absorbs the
// duplicate. Corrupted ring framing is indistinguishable from an
// attack on the submission path — the SC refuses the batch, raises the
// header status word, and the producer fails closed. And the whole
// point of the ring: what a task costs in MMIO writes, pinned exactly.

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ccai/internal/core"
	"ccai/internal/mem"
	"ccai/internal/pcie"
)

// TestRingDoorbellDropRecovers deletes the first batch doorbell in
// flight: the flush retry re-rings, and the task is exact at the cost of
// retries only (D1).
func TestRingDoorbellDropRecovers(t *testing.T) { playTrace(t, "ring-doorbell-drop") }

// ringSeqCorrupter flips the sequence field of the first entry in
// every ring-fetch completion (exact RingSlotSize multiples) toward
// the SC — tampered ring framing, the fail-closed family.
type ringSeqCorrupter struct{}

func (c *ringSeqCorrupter) Tap(p *pcie.Packet) *pcie.Packet {
	if p.Kind != pcie.CplD || len(p.Payload) == 0 || len(p.Payload)%core.RingSlotSize != 0 {
		return p
	}
	q := p.Clone()
	q.Payload[4] ^= 0x80 // entry 0 seq field
	return q
}

// TestRingDesyncFailsClosed corrupts ring framing in flight: the SC
// refuses the batch (a config reject and the status word) and the
// producer fails the session closed — no stream context, no key, no
// plaintext on the wire (T3).
func TestRingDesyncFailsClosed(t *testing.T) { playTrace(t, "ring-desync") }

// TestRingCutsMMIOWritesAtLeast4x pins the control path's price per
// 64 KiB staged task in MMIO writes, measured through the obsv counter:
// 6 — the five ring doorbells of input, output, submission and two
// releases, plus the guarded doorbell, whose MAC record rides the
// submission's burst — however many tag records (256 here) the task
// stages. One write per operation would be 39; that ratio is Figure
// 11's, held in internal/bench. The counter is the one IO reports.
func TestRingCutsMMIOWritesAtLeast4x(t *testing.T) {
	p := observedPlatform(t)
	in := bytes.Repeat([]byte{0x42}, 64<<10)
	before, io := p.MetricsSnapshot().Counters["adaptor.mmio.writes"], p.Adaptor.IO().MMIOWrites
	if _, err := p.RunTask(Task{Input: in, Kernel: KernelAdd, Param: 1}); err != nil {
		t.Fatal(err)
	}
	got := p.MetricsSnapshot().Counters["adaptor.mmio.writes"] - before
	if got != 6 {
		t.Fatalf("64 KiB task cost %d MMIO writes, want 6", got)
	}
	if ioGot := p.Adaptor.IO().MMIOWrites - io; ioGot != got {
		t.Fatalf("adaptor.mmio.writes moved %d, IO().MMIOWrites %d", got, ioGot)
	}
}

// forgeRingEntry is the host writing the control path itself. The ring's
// address is no secret — it crossed the host bus at bring-up, and the
// shared window is host memory: the ring is its second allocation, right
// behind the metadata page — so the attacker writes one entry at the
// head the SC last posted and rings the doorbell one past it. That
// leaves the SC's head ahead of the producer's tail
// (TestRingAppendedEntry is that attack's own cell), so a cell that
// wants the session undisturbed rewrites an entry of a passing burst
// instead (ringEdit, rewriteEntry).
func forgeRingEntry(t *testing.T, pl *pipeline, host *pcie.Bus, op uint8, arg uint64, data []byte) {
	t.Helper()
	ring, ok := pl.space.Resolve(sharedBase + mem.PageSize)
	if !ok || ring.Name() != "dma-submitring" {
		t.Fatal("no submission ring behind the shared window's metadata page")
	}
	slots := (uint64(ring.Size())-core.RingHdrSize)/core.RingSlotSize - core.RingMirrorSlots
	head := binary.LittleEndian.Uint64(ring.Bytes())
	slot := ring.Bytes()[core.RingHdrSize+head%slots*core.RingSlotSize:][:core.RingSlotSize]
	core.PutRingEntry((*[core.RingEntryHdrSize]byte)(slot), op, uint16(len(data)), uint32(head), arg)
	copy(slot[core.RingEntryHdrSize:], data)
	host.Route(pcie.NewMemWrite(TVMID, scBARBase+core.RegRingDoorbell, binary.LittleEndian.AppendUint64(nil, head+1)))
}

// rewriteEntry turns a ring slot into another entry in place, under the
// sequence number the producer gave it.
func rewriteEntry(slot []byte, op uint8, arg uint64, data []byte) {
	seq := binary.LittleEndian.Uint32(slot[4:])
	core.PutRingEntry((*[core.RingEntryHdrSize]byte)(slot), op, uint16(len(data)), seq, arg)
	copy(slot[core.RingEntryHdrSize:], data)
}

// TestRingAppendedEntry: the host appends entries of its own behind the
// producer's tail and rings the doorbell. Each earns its config reject,
// but the SC's head now sits past the producer's tail: the producer's
// next entries — the next task's input descriptor among them — land in
// slots the SC holds consumed and are never dispatched. That is an
// availability attack (the host can as well drop the doorbell) and ends
// like one: the task fails the session closed with no wrong byte handed
// back, and a re-trust serves (t2 F t2 r t2).
func TestRingAppendedEntry(t *testing.T) { playTrace(t, "ring-appended-entry") }
