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
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"ccai/internal/adaptor"
	"ccai/internal/attack"
	"ccai/internal/core"
	"ccai/internal/llm"
	"ccai/internal/mem"
	"ccai/internal/pcie"
	"ccai/internal/xpu"
)

// TestRingDoorbellDropRecovers deletes the first batch doorbell in
// flight: the flush retry re-rings, and the task is exact at the cost of
// retries only (D1).
func TestRingDoorbellDropRecovers(t *testing.T) { playTrace(t, "ring-doorbell-drop") }

// TestRingDoorbellsDroppedPastOneFlush drops 10, then 15, consecutive
// ring doorbells during one 300 B task — two and three flushes' worth of
// retries. The completion poll's flush exhausts its retries, and so does
// each rung of the recovery ladder whose flush still meets a dropped
// doorbell (a tag repost, a kick), until one gets through; the ladder
// reads the device head after every kick, so the task ends exact,
// nothing stays queued at the SC and the next task is exact too. A
// ladder that gives up on a rung that cannot publish fails this session
// closed as "submission stalled", with every command consumed.
func TestRingDoorbellsDroppedPastOneFlush(t *testing.T) {
	for _, c := range []struct{ dropped, reposts, exhausted uint64 }{{10, 1, 2}, {15, 2, 3}} {
		t.Run(fmt.Sprintf("%d", c.dropped), func(t *testing.T) {
			p := protectedPlatform(t, xpu.A100)
			in := bytes.Repeat([]byte{0x41}, 300)
			want := bytes.Repeat([]byte{0x42}, 300)
			p.Host.AddTap(&attack.Dropper{Count: int(c.dropped), Match: func(pk *pcie.Packet) bool { return pk.Role == pcie.RoleRingDoorbell }})
			out, err := p.RunTask(Task{Input: in, Kernel: KernelAdd, Param: 1})
			p.Host.ClearTaps()
			rec := p.Adaptor.Recovery()
			if err != nil || !bytes.Equal(out, want) || rec.Reposts != c.reposts || rec.Exhausted != c.exhausted || rec.FailClosed != 0 {
				t.Fatalf("task under %d dropped doorbells: %v, exact %v; recovery %+v", c.dropped, err, bytes.Equal(out, want), rec)
			}
			if depth := p.SC.PendingTags(); depth != 0 {
				t.Fatalf("%d tag records left queued at the SC", depth)
			}
			if out, err := p.RunTask(Task{Input: in, Kernel: KernelAdd, Param: 1}); err != nil || !bytes.Equal(out, want) {
				t.Fatalf("next task: %v, exact %v", err, bytes.Equal(out, want))
			}
		})
	}
}

// ringArgCorrupter flips a bit of the first entry's arg in every
// ring-slot fetch completion toward the SC, counting them — a ring entry
// rewritten in flight, which breaks its span's seal: the fail-closed
// family.
type ringArgCorrupter struct{ fetches int }

func (c *ringArgCorrupter) Tap(p *pcie.Packet) *pcie.Packet {
	if p.Kind != pcie.CplD || p.Role != pcie.RoleSlotFetch || len(p.Payload) == 0 {
		return p
	}
	c.fetches++
	q := p.Clone()
	q.Payload[4] ^= 0x80 // entry 0's arg, low byte
	return q
}

// TestRingDesyncFailsClosed corrupts ring framing in flight: the SC
// refuses the batch (a config reject and the status word) and the
// producer fails the session closed — no stream context, no key, no
// plaintext on the wire (T3).
func TestRingDesyncFailsClosed(t *testing.T) { playTrace(t, "ring-desync") }

// TestRingDesyncLeavesSliceUntrusted: a span tampered in every fetch is
// fetched twice — refused, fetched once more, refused again — and no
// more. Once the Adaptor fails the desynced ring closed on its own, the
// slice is untrusted like one torn down on purpose — the next task is
// refused with ErrNotTrusted, not run into a dead session.
func TestRingDesyncLeavesSliceUntrusted(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	tamper := &ringArgCorrupter{}
	p.Host.AddTap(tamper)
	rejects := p.SC.Stats().ConfigRejects
	if _, err := p.RunTask(Task{Input: []byte("desync"), Kernel: KernelAdd, Param: 1}); !errors.Is(err, adaptor.ErrRingDesync) {
		t.Fatalf("task over a tampered ring entry: %v, want ErrRingDesync", err)
	}
	if got := p.SC.Stats().ConfigRejects - rejects; tamper.fetches != 2 || got != 1 {
		t.Fatalf("the tampered span was fetched %d times for %d config rejects; want 2 and 1", tamper.fetches, got)
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
	p.Host.AddTap(&ringArgCorrupter{})
	p.Host.AddTap(lost)
	if _, err := p.RunTask(Task{Input: []byte("desync"), Kernel: KernelAdd, Param: 1}); !errors.Is(err, adaptor.ErrRingDesync) {
		t.Fatalf("task over a tampered ring entry: %v, want ErrRingDesync", err)
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

// TestKickedFinishedRunLeavesNoRecord: the completion words of a task's
// doorbell span and of the repost that follows both arrive one behind
// (a delayed writeback each). The recovery kick takes the last command
// for unconsumed and re-sends its run, but the device had read that run
// already. The SC drops the run at the reap that follows the kick's
// doorbell, so the task is exact and nothing stays held at the SC.
func TestKickedFinishedRunLeavesNoRecord(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	tk := Task{Input: []byte("kicked"), Kernel: KernelAdd, Param: 1}
	if _, err := p.RunTask(tk); err != nil {
		t.Fatal(err)
	}
	regressed := 0
	p.Host.AddTap(pcie.TapFunc(func(pk *pcie.Packet) *pcie.Packet {
		if pk.Role != pcie.RoleCompletionWord || regressed == 2 {
			return pk
		}
		head := binary.LittleEndian.Uint64(pk.Payload) &^ uint64(core.RingCplValid)
		if head < 2*taskCommands {
			return pk // the first task's head, re-posted by the second's staging
		}
		regressed++
		q := pk.Clone()
		binary.LittleEndian.PutUint64(q.Payload, (head-1)|core.RingCplValid)
		return q
	}))
	out, err := p.RunTask(tk)
	p.Host.ClearTaps()
	if rec := p.Adaptor.Recovery(); err != nil || string(out) != "ljdlfe" || regressed != 2 || rec.Reposts != 1 {
		t.Fatalf("task behind two regressed completion words: %q, %v; %d regressed, recovery %+v", out, err, regressed, rec)
	}
	if n, held := p.SC.PendingTags(), p.SC.HeldRuns(); n != 0 || held != 0 {
		t.Fatalf("%d records and %d runs left at the SC", n, held)
	}
}

// cplForger adds d to the head of the completion words the SC posts
// into the ring header, modulo 2^64 (^0 sets each one behind), keeping
// RingCplValid: the first word whose head reaches from on, or every
// word when all is set. forged counts them.
type cplForger struct {
	d, from uint64
	all     bool
	forged  int
}

func (f *cplForger) Tap(pk *pcie.Packet) *pcie.Packet {
	if pk.Role != pcie.RoleCompletionWord || f.forged > 0 && !f.all {
		return pk
	}
	head := binary.LittleEndian.Uint64(pk.Payload) &^ uint64(core.RingCplValid)
	if head < f.from {
		return pk
	}
	f.forged++
	q := pk.Clone()
	binary.LittleEndian.PutUint64(q.Payload, (head+f.d)|core.RingCplValid)
	return q
}

// TestForgedCompletionWordMovesNoFloor: the host forges the completion
// word ahead by d, keeping its valid tag. The Adaptor takes no word past
// the command tail the driver last wrote, so the forged word moves no
// floor: the task that reads it pays at most its one guarded MMIO read,
// every later task reads the word again for free, and nothing is
// reposted. With every word forged, every task pays the read and is
// exact, and no forgery is reported as a stall.
func TestForgedCompletionWordMovesNoFloor(t *testing.T) {
	tk := Task{Input: []byte("forged ahead"), Kernel: KernelAdd, Param: 1}
	for _, d := range []uint64{64, 1 << 20} {
		for _, all := range []bool{false, true} {
			t.Run(fmt.Sprintf("d=%d/all=%v", d, all), func(t *testing.T) {
				p := protectedPlatform(t, xpu.A100)
				if _, err := p.RunTask(tk); err != nil {
					t.Fatal(err)
				}
				forger := &cplForger{d: d, from: p.Driver.Tail() + taskCommands, all: all}
				p.Host.AddTap(forger)
				var reads []uint64
				for i := 0; i < 6; i++ {
					before := p.Adaptor.IO().MMIOReads
					out, err := p.RunTask(tk)
					if err != nil || !bytes.Equal(out, tk.want()) {
						t.Fatalf("task %d behind forged completion words: %v, exact %v", i, err, bytes.Equal(out, tk.want()))
					}
					reads = append(reads, p.Adaptor.IO().MMIOReads-before)
				}
				p.Host.ClearTaps()
				want := []uint64{1, 0, 0, 0, 0, 0}
				if all {
					want = []uint64{1, 1, 1, 1, 1, 1}
				}
				if rec := p.Adaptor.Recovery(); forger.forged == 0 || !slices.Equal(reads, want) || rec.Reposts != 0 {
					t.Fatalf("%d words forged: MMIO reads per task %v, want %v; recovery %+v", forger.forged, reads, want, rec)
				}
			})
		}
	}
}

// forgeRingEntry is the host writing the control path itself. The ring's
// address is no secret — it crossed the host bus at bring-up, and the
// shared window is host memory: the ring is its second allocation, right
// behind the metadata page — so the attacker writes one entry at the
// head the SC last posted and rings the doorbell one past it. It holds
// no seal key: the SC refuses the span and raises the ring's status
// word, so the producer's next flush fails the session closed
// (TestRingAppendedEntry is that attack's own cell).
func forgeRingEntry(t *testing.T, pl *pipeline, host *pcie.Bus, op uint8, arg uint64, data []byte) {
	t.Helper()
	ring := hostRing(t, pl)
	slots := (uint64(ring.Size())-core.RingHdrSize)/core.RingSlotSize - core.RingMirrorSlots
	head := binary.LittleEndian.Uint64(ring.Bytes())
	slot := ring.Bytes()[core.RingHdrSize+head%slots*core.RingSlotSize:][:core.RingSlotSize]
	core.PutRingEntry((*[core.RingEntryHdrSize]byte)(slot), op, uint16(len(data)), arg)
	copy(slot[core.RingEntryHdrSize:], data)
	host.Route(pcie.NewMemWrite(TVMID, scBARBase+core.RegRingDoorbell, binary.LittleEndian.AppendUint64(nil, head+1)))
}

// hostRing is the slice's submission ring in host memory, header first.
func hostRing(t *testing.T, pl *pipeline) *mem.Buffer {
	t.Helper()
	ring, ok := pl.space.Resolve(sharedBase + mem.PageSize)
	if !ok || ring.Name() != "dma-submitring" {
		t.Fatal("no submission ring behind the shared window's metadata page")
	}
	return ring
}

// TestRingHeaderForgeries: each word of the ring header the SC writes
// into host memory, forged by the host for one task (the protocol
// model's H ops, one saved trace each; DESIGN.md §6 tabulates the
// words). A completion word forged ahead costs the one guarded read; one
// forged behind, like a forged status word, costs the session; a
// consumed head forged over a dropped doorbell costs a repost. Never a
// wrong byte, and a re-trusted slice serves.
func TestRingHeaderForgeries(t *testing.T) {
	for _, name := range []string{"header-cpl-ahead", "header-cpl-behind", "header-status", "header-head-at-tail"} {
		t.Run(name, func(t *testing.T) { playTrace(t, name) })
	}
}

// TestRingAppendedEntry: the host appends entries of its own behind the
// producer's tail and rings the doorbell. None carries a seal, so each
// span is refused — a config reject each, no entry dispatched — and the
// desync word it raises fails the session closed at the producer's next
// flush. That is an availability attack (the host can as well drop the
// doorbell) and ends like one: no wrong byte handed back, and a re-trust
// serves (t2 F t2 r t2).
func TestRingAppendedEntry(t *testing.T) { playTrace(t, "ring-appended-entry") }

// TestRingHiddenRelease: a decode session's step renews its spent
// window, and the doorbell that returns the old channel's two regions
// is cut after the first release by a cleared more bit, in every fetch.
// The span's seal covers the bit, so the span is refused whole, its
// re-fetch too, and the session fails closed — the window's SC region never outlives its freed host buffer —
// and a re-trusted slice serves a new session (S6, the saved trace
// ring-hidden-release; ROADMAP item 16).
func TestRingHiddenRelease(t *testing.T) { playTrace(t, "ring-hidden-release") }

// moreBitClearer clears one more bit in a ring fetch toward the SC: in
// the skip-th slot whose chain holds two entries or more, the first
// entry's, so the SC sees that entry alone, or (trailing) the
// last-but-one's, so it sees all but the last. hit holds the opcodes of
// the entries dropped.
type moreBitClearer struct {
	skip     int
	trailing bool
	hit      []uint8
}

func (c *moreBitClearer) Tap(p *pcie.Packet) *pcie.Packet {
	if c.hit != nil {
		return p
	}
	for i, slot := range ringSlots(p) {
		chain := slotChain(slot)
		if len(chain) < 2 {
			continue
		}
		if c.skip--; c.skip >= 0 {
			continue
		}
		keep := 1
		if c.trailing {
			keep = len(chain) - 1
		}
		for _, e := range chain[keep:] {
			c.hit = append(c.hit, e.Op)
		}
		q := p.Clone()
		q.Payload[i*core.RingSlotSize+chainSize(chain[:keep-1])+1] &^= core.RingFlagMore
		return q
	}
	return p
}

// TestRingClearedMoreBit: the host clears a more bit in a ring fetch
// toward the SC — a chain's first, dropping every entry behind it, or
// its last-but-one, dropping the trailing entry. The SC sees a shorter
// chain, well framed, but the span's seal covers the bit: the span is
// refused whole and the session fails closed, so no entry of it — a
// task's D2H descriptor, a region release — is lost while the rest act.
// At every packed slot of a 300 B task and of a 32-token decode session,
// both ways, one run each: the op is exact, or it fails with the session
// failed closed; the slice serves an exact task after (a re-trust first
// when the session failed closed), and the chassis passes its hygiene
// check. Never a wrong byte, never a stale SC region over freed memory.
func TestRingClearedMoreBit(t *testing.T) {
	cfg := llm.Config{MaxNewTokens: 32, ChunkTokens: 8, MaxPromptTokens: 16, Seed: 0x9f}
	prompt := []byte("packed slots, cut short")
	in := bytes.Repeat([]byte{7}, 300)
	want := bytes.Repeat([]byte{8}, 300)
	task := func(tn *Tenant) (bool, error) {
		out, err := tn.RunTask(Task{Input: in, Kernel: KernelAdd, Param: 1})
		return bytes.Equal(out, want), err
	}
	decode := func(tn *Tenant) (bool, error) {
		ctx := context.Background()
		s, err := tn.OpenSession(ctx, cfg)
		if err != nil {
			return false, err
		}
		defer s.Close()
		ch, err := s.Decode(ctx)
		if err != nil {
			return false, err
		}
		if err := s.Prefill(ctx, prompt); err != nil {
			return false, err
		}
		chunks, err := readStream(t, ch)
		var out []byte
		for _, c := range chunks {
			out = append(out, c.Tokens...)
		}
		return bytes.Equal(out, expectedStream(cfg, prompt)), err
	}
	for _, op := range []struct {
		name string
		run  func(*Tenant) (bool, error)
	}{{"task", task}, {"decode", decode}} {
		for _, trailing := range []bool{false, true} {
			for k := 0; ; k++ {
				var hit []uint8
				t.Run(fmt.Sprintf("%s/trailing=%v/slot=%d", op.name, trailing, k), func(t *testing.T) {
					mp, err := NewMultiPlatform([]xpu.Profile{xpu.A100}, WithLLMEngine(llm.EngineConfig{Workers: 1}))
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(mp.Close)
					tn := mp.Tenants[0]
					if err := tn.EstablishTrust(); err != nil {
						t.Fatal(err)
					}
					chassisHygiene(t, mp)
					tap := &moreBitClearer{skip: k, trailing: trailing}
					mp.Host.AddTap(tap)
					exact, err := op.run(tn)
					mp.Host.ClearTaps()
					if hit = tap.hit; hit == nil { // past the op's last packed slot
						return
					}
					closed := tn.Adaptor.Recovery().FailClosed > 0
					t.Logf("dropped ops %v; exact %v, err %v, failed closed %v", hit, exact, err, closed)
					if err == nil && !exact || err != nil && !closed {
						t.Errorf("exact %v, err %v, failed closed %v; want exact, or an error with the session failed closed", exact, err, closed)
					}
					if closed {
						if err := tn.EstablishTrust(); err != nil {
							t.Fatal(err)
						}
					}
					if exact, err := task(tn); !exact || err != nil {
						t.Errorf("the next task: exact %v, err %v", exact, err)
					}
				})
				if hit == nil {
					break
				}
			}
		}
	}
}
