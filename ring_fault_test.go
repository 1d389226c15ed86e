package ccai

// Submission-ring fault matrix entries (ISSUE 8): the ring's two
// failure families against DESIGN.md §6. A lost batch doorbell is a
// benign link fault — the flush retry ladder re-publishes the same
// window and the SC's idempotent [head, tail) consumption absorbs the
// duplicate. Corrupted ring framing is indistinguishable from an
// attack on the submission path — the SC refuses the batch, raises the
// header status word, and the producer fails closed. And the whole
// point of the ring: the batched doorbell must cut per-task MMIO
// writes by at least 4× against the same platform with the ring off.

import (
	"bytes"
	"testing"

	"ccai/internal/adaptor"
	"ccai/internal/attack"
	"ccai/internal/core"
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

// TestRingCutsMMIOWritesAtLeast4x is the ISSUE 8 acceptance gate: the
// batched submission ring must reduce MMIO writes per 64 KiB staged
// task by ≥4× against the identical platform with only the ring
// disabled, measured through the obsv counters.
func TestRingCutsMMIOWritesAtLeast4x(t *testing.T) {
	writesPerTask := func(t *testing.T, opts adaptor.Options) uint64 {
		t.Helper()
		p, err := New(WithXPU(xpu.A100), WithMode(Protected), WithObserve(), WithAdaptor(opts))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		if err := p.EstablishTrust(); err != nil {
			t.Fatal(err)
		}
		in := bytes.Repeat([]byte{0x42}, 64<<10)
		before := p.MetricsSnapshot().Counters["adaptor.mmio.writes"]
		if _, err := p.RunTask(Task{Input: in, Kernel: KernelAdd, Param: 1}); err != nil {
			t.Fatal(err)
		}
		return p.MetricsSnapshot().Counters["adaptor.mmio.writes"] - before
	}

	ringOff := adaptor.Optimized()
	ringOff.SubmitRing, ringOff.CompletionReap = false, false
	off := writesPerTask(t, ringOff)
	on := writesPerTask(t, adaptor.Optimized())
	t.Logf("MMIO writes per 64 KiB task: ring on = %d, ring off = %d", on, off)
	if on == 0 || off/on < 4 {
		t.Fatalf("submission ring reduced MMIO writes only %dx (%d -> %d); need >=4x", off/on, off, on)
	}
}
