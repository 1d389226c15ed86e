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

	"ccai/internal/attack"
	"ccai/internal/core"
	"ccai/internal/mem"
	"ccai/internal/pcie"
	"ccai/internal/xpu"
)

// TestRingDoorbellDropRecovers deletes the first batch doorbell in
// flight. The SC never sees the publish, the producer observes a head
// that did not advance, and the retry ladder re-rings; the task must
// complete with the correct result at the cost of retries only.
func TestRingDoorbellDropRecovers(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	drop := &attack.Dropper{
		Match: func(pk *pcie.Packet) bool {
			return pk.Kind == pcie.MWr && pk.Requester == TVMID &&
				pk.Address == scBARBase+core.RegRingDoorbell
		},
		Count: 1,
	}
	p.Host.AddTap(drop)
	in := taskInput()
	out, err := p.RunTask(Task{Input: in, Kernel: KernelAdd, Param: 2})
	if drop.Dropped() == 0 {
		t.Fatal("dropper never fired; ring doorbell not exercised")
	}
	if err != nil {
		t.Fatalf("one lost doorbell must be recoverable: %v", err)
	}
	for i := range in {
		if out[i] != in[i]+2 {
			t.Fatalf("recovered output wrong at byte %d", i)
		}
	}
	rec := p.Adaptor.Recovery()
	if rec.Retries == 0 || rec.Recovered == 0 {
		t.Fatalf("doorbell loss left no recovery trace: %+v", rec)
	}
	if rec.FailClosed != 0 {
		t.Fatalf("benign doorbell loss must not fail closed: %+v", rec)
	}
}

// ringSeqCorrupter flips the sequence field of the first entry in
// every ring-fetch completion (exact RingSlotSize multiples) toward
// the SC — tampered ring framing, the fail-closed family.
type ringSeqCorrupter struct{ hits int }

func (c *ringSeqCorrupter) Tap(p *pcie.Packet) *pcie.Packet {
	if p.Kind != pcie.CplD || len(p.Payload) == 0 || len(p.Payload)%core.RingSlotSize != 0 {
		return p
	}
	q := p.Clone()
	q.Payload[4] ^= 0x80 // entry 0 seq field
	c.hits++
	return q
}

// TestRingDesyncFailsClosed corrupts ring framing in flight: the SC
// must reject the batch (config reject + status word, head pinned) and
// the producer must tear the session down rather than limp — with the
// §6 teardown invariants intact.
func TestRingDesyncFailsClosed(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	snoop := attack.NewSnooper()
	p.Host.AddTap(snoop)
	corrupt := &ringSeqCorrupter{}
	p.Host.AddTap(corrupt)

	rejBefore := p.SC.Stats().ConfigRejects
	_, err := p.RunTask(Task{Input: taskInput(), Kernel: KernelAdd, Param: 1})
	if corrupt.hits == 0 {
		t.Fatal("corrupter never fired; ring fetch not exercised")
	}
	if err == nil {
		t.Fatal("task succeeded over a desynced submission ring")
	}
	if p.SC.Stats().ConfigRejects <= rejBefore {
		t.Fatal("SC accepted corrupted ring framing without a config reject")
	}
	rec := p.Adaptor.Recovery()
	if rec.FailClosed == 0 {
		t.Fatalf("ring desync did not fail closed: %+v", rec)
	}
	if rec.LastFailure != "submission ring desync" {
		t.Fatalf("LastFailure = %q", rec.LastFailure)
	}
	// Fail-closed means torn down: no live stream contexts, no keys, no
	// plaintext ever on the wire.
	if n := p.SC.Params().Active(); n != 0 {
		t.Fatalf("%d live stream contexts after ring fail-closed", n)
	}
	if p.tvmKeys.Count() != 0 {
		t.Fatal("TVM key material survived ring fail-closed")
	}
	if snoop.SawPlaintext(secret) {
		t.Fatal("plaintext on host bus during ring desync episode")
	}
}

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
func forgeRingEntry(t *testing.T, p *Platform, op uint8, arg uint64, data []byte) {
	t.Helper()
	ring, ok := p.Guest.Space.Resolve(sharedBase + mem.PageSize)
	if !ok || ring.Name() != "dma-submitring" {
		t.Fatal("no submission ring behind the shared window's metadata page")
	}
	slots := (uint64(ring.Size())-core.RingHdrSize)/core.RingSlotSize - core.RingMirrorSlots
	head := binary.LittleEndian.Uint64(ring.Bytes())
	slot := ring.Bytes()[core.RingHdrSize+head%slots*core.RingSlotSize:][:core.RingSlotSize]
	core.PutRingEntry((*[core.RingEntryHdrSize]byte)(slot), op, uint16(len(data)), uint32(head), arg)
	copy(slot[core.RingEntryHdrSize:], data)
	p.Host.Route(pcie.NewMemWrite(TVMID, scBARBase+core.RegRingDoorbell, binary.LittleEndian.AppendUint64(nil, head+1)))
}

// rewriteEntry turns a ring slot into another entry in place, under the
// sequence number the producer gave it.
func rewriteEntry(slot []byte, op uint8, arg uint64, data []byte) {
	seq := binary.LittleEndian.Uint32(slot[4:])
	core.PutRingEntry((*[core.RingEntryHdrSize]byte)(slot), op, uint16(len(data)), seq, arg)
	copy(slot[core.RingEntryHdrSize:], data)
}

// TestRingAppendedEntry: the host appends an entry of its own behind the
// producer's tail and rings the doorbell. The entry earns its config
// reject, but the SC's head now sits one past the producer's tail: the
// producer's next entry — the next task's input descriptor — lands in a
// slot the SC holds consumed and is never dispatched. That is an
// availability attack (the host can as well drop the doorbell) and ends
// like one: the device's read of the undescribed region is refused, the
// ladder runs out, the session fails closed with no wrong byte handed
// back, and a re-trust serves.
func TestRingAppendedEntry(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	task := Task{Input: taskInput(), Kernel: KernelAdd, Param: 2}
	if _, err := p.RunTask(task); err != nil {
		t.Fatal(err)
	}
	rejects := p.SC.Stats().ConfigRejects
	forgeRingEntry(t, p, core.RingOpRule, 0, core.Rule{ID: 99, Action: core.ActionPassThrough}.Marshal())
	if got := p.SC.Stats().ConfigRejects; got != rejects+1 {
		t.Fatalf("appended unsealed rule: %d config rejects, want 1", got-rejects)
	}
	out, err := p.RunTask(task)
	if rec := p.Adaptor.Recovery(); err == nil || out != nil || p.trusted || rec.FailClosed != 1 {
		t.Fatalf("task over a ring the host advanced: out %d bytes, err %v, trusted %v, %+v; want fail closed",
			len(out), err, p.trusted, rec)
	}
	if err := p.EstablishTrust(); err != nil {
		t.Fatalf("re-trust: %v", err)
	}
	out, err = p.RunTask(task)
	if err != nil {
		t.Fatalf("task after re-trust: %v", err)
	}
	for i, b := range task.Input {
		if out[i] != b+2 {
			t.Fatalf("byte %d wrong after re-trust", i)
		}
	}
}
