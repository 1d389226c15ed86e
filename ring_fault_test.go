package ccai

// Submission-ring fault matrix entries (ISSUE 8): the ring's two
// failure families against DESIGN.md §6. A lost batch doorbell is a
// benign link fault — the flush retry ladder re-publishes the same
// window and the SC's idempotent [head, tail) consumption absorbs the
// duplicate. Corrupted ring framing is indistinguishable from an
// attack on the submission path — the SC refuses the batch, raises the
// header status word, and the producer fails closed. A doorbell replayed
// behind the SC's head is re-reaped. What a task costs in MMIO writes,
// the point of the ring, is a row of the wire ledger (wire_ledger_test.go).

import (
	"encoding/binary"
	"errors"
	"testing"

	"ccai/internal/adaptor"
	"ccai/internal/attack"
	"ccai/internal/core"
	"ccai/internal/mem"
	"ccai/internal/pcie"
	"ccai/internal/xpu"
)

// TestRingDoorbellDropRecovers deletes the first batch doorbell in
// flight: the flush retry re-rings, and the task is exact at the cost of
// retries only (D1).
func TestRingDoorbellDropRecovers(t *testing.T) { playTrace(t, "ring-doorbell-drop") }

// ringSeqCorrupter flips the sequence field of the first entry in
// every ring-slot fetch completion toward the SC — tampered ring
// framing, the fail-closed family.
type ringSeqCorrupter struct{}

func (c *ringSeqCorrupter) Tap(p *pcie.Packet) *pcie.Packet {
	if p.Kind != pcie.CplD || p.Role != pcie.RoleSlotFetch || len(p.Payload) == 0 {
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

// TestRingDesyncLeavesSliceUntrusted: once the Adaptor fails a desynced
// ring closed on its own, the slice is untrusted like one torn down on
// purpose — the next task is refused with ErrNotTrusted, not run into a
// dead session.
func TestRingDesyncLeavesSliceUntrusted(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	p.Host.AddTap(&ringSeqCorrupter{})
	if _, err := p.RunTask(Task{Input: []byte("desync"), Kernel: KernelAdd, Param: 1}); !errors.Is(err, adaptor.ErrRingDesync) {
		t.Fatalf("task over tampered ring framing: %v, want ErrRingDesync", err)
	}
	p.Host.ClearTaps()
	if p.trusted {
		t.Fatal("slice still trusted after the Adaptor failed closed")
	}
	if _, err := p.RunTask(Task{Input: []byte("after"), Kernel: KernelAdd, Param: 1}); !errors.Is(err, ErrNotTrusted) {
		t.Fatalf("task after a ring desync: %v, want ErrNotTrusted", err)
	}
}

// TestRetrustAfterLostTeardownWrite: when the teardown write of a
// desynced session is lost on the link, the SC still holds that session
// and ignores every doorbell. A re-trust starts with a teardown of its
// own, so the slice comes back.
func TestRetrustAfterLostTeardownWrite(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	writes := 0 // the Dropper drops the first control write it matches
	lost := &attack.Dropper{Count: 1, Match: func(pk *pcie.Packet) bool {
		if pk.Role != pcie.RoleControlWrite {
			return false
		}
		writes++
		return true
	}}
	p.Host.AddTap(&ringSeqCorrupter{})
	p.Host.AddTap(lost)
	if _, err := p.RunTask(Task{Input: []byte("desync"), Kernel: KernelAdd, Param: 1}); !errors.Is(err, adaptor.ErrRingDesync) {
		t.Fatalf("task over tampered ring framing: %v, want ErrRingDesync", err)
	}
	p.Host.ClearTaps()
	if writes != 1 || p.SC.Stats().Teardowns != 0 {
		t.Fatalf("%d control writes, %d teardowns reached the SC; want the one teardown lost", writes, p.SC.Stats().Teardowns)
	}
	if err := p.EstablishTrust(); err != nil {
		t.Fatal(err)
	}
	if out, err := p.RunTask(Task{Input: []byte("after"), Kernel: KernelAdd, Param: 1}); err != nil || string(out) != "bgufs" {
		t.Fatalf("task after re-trust: %q, %v", out, err)
	}
}

// TestReplayedRingDoorbellIsReReaped: a ring doorbell the host records
// and replays later carries a tail behind the SC's head. The SC re-posts
// its head and consumes nothing, so the session lives on: the next task
// is exact, with no config reject and no recovery step.
func TestReplayedRingDoorbellIsReReaped(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	var doorbell *pcie.Packet
	p.Host.AddTap(pcie.TapFunc(func(pk *pcie.Packet) *pcie.Packet {
		if doorbell == nil && pk.Role == pcie.RoleRingDoorbell {
			doorbell = pk.Clone()
		}
		return pk
	}))
	if _, err := p.RunTask(Task{Input: []byte("recorded"), Kernel: KernelAdd, Param: 1}); err != nil {
		t.Fatal(err)
	}
	p.Host.ClearTaps()
	rejects := p.SC.Stats().ConfigRejects
	p.Host.Route(doorbell)
	out, err := p.RunTask(Task{Input: []byte("after"), Kernel: KernelAdd, Param: 1})
	if rec := p.Adaptor.Recovery(); err != nil || string(out) != "bgufs" || p.SC.Stats().ConfigRejects != rejects || rec != (adaptor.RecoveryStats{}) {
		t.Fatalf("task after a replayed ring doorbell: %q, %v; %d config rejects, recovery %+v",
			out, err, p.SC.Stats().ConfigRejects-rejects, rec)
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
