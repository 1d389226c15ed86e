package adaptor

import (
	"bytes"
	"maps"
	"testing"

	"ccai/internal/core"
	"ccai/internal/pcie"
)

// stepData is step k's distinguishable n-byte payload.
func stepData(k, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(k*37 + i*5 + 1)
	}
	return out
}

// TestStepChannelRig drives the step channel on the Adaptor⇄SC rig. A
// stream longer than one window arms each step into a fresh slot, the
// device reads exactly that step's bytes, the output region is collected
// after every step, and the channel is renewed once — with nothing
// installed in between.
func TestStepChannelRig(t *testing.T) {
	t.Run("ring", func(t *testing.T) {
		r, dev := newRig(t)
		baseline := r.sc.Regions()
		open := func() *StepChannel {
			t.Helper()
			ch, err := r.adaptor.OpenStepChannel("ids", "chunk", 32)
			if err != nil {
				t.Fatal(err)
			}
			r.publish(t)
			if got := r.sc.Regions(); got != baseline+2 {
				t.Fatalf("open channel: SC holds %d regions, want %d", got, baseline+2)
			}
			return ch
		}
		ch := open()
		renewals := 0
		for k := 0; k < StepWindowSlots+6; k++ {
			ids, result := stepData(k, 32), stepData(1000+k, 32)
			if !ch.Fits(len(ids)) {
				r.adaptor.CloseStepChannel(ch)
				ch = open()
				renewals++
			}
			regions, writes := r.sc.Regions(), r.adaptor.IO().MMIOWrites
			src, err := r.adaptor.ArmStep(ch, ids)
			if err != nil {
				t.Fatalf("step %d: %v", k, err)
			}
			if got := r.adaptor.IO().MMIOWrites; got != writes {
				t.Fatalf("step %d: arming cost %d MMIO writes, want 0", k, got-writes)
			}
			// The doorbell the driver rings next publishes the step.
			if err := r.adaptor.GuardedWrite(0x10, uint64(k)); err != nil {
				t.Fatal(err)
			}
			if err := r.adaptor.Publish(); err != nil {
				t.Fatal(err)
			}
			if r.sc.Regions() != regions {
				t.Fatalf("step %d changed the SC's region table", k)
			}
			if bytes.Contains(ch.Window.Buf.Bytes(), ids[:16]) {
				t.Fatalf("step %d: window holds plaintext", k)
			}
			got, ok := dev.dmaRead(src, int64(len(ids)))
			if !ok || !bytes.Equal(got, ids) {
				t.Fatalf("step %d: device read %x, ok %v; want %x", k, got, ok, ids)
			}
			// The next slot is nobody's yet: unarmed, it fails closed.
			if ch.Fits(1) {
				fails := r.sc.Stats().AuthFailures
				if _, ok := dev.dmaRead(src+core.ChunkSize, 32); ok || r.sc.Stats().AuthFailures != fails+1 {
					t.Fatalf("step %d: unarmed slot readable", k)
				}
			}
			dev.dmaWrite(ch.Out.Buf.Base(), result)
			out, err := r.adaptor.CollectD2H(ch.Out, int64(len(result)))
			if err != nil || !bytes.Equal(out, result) {
				t.Fatalf("step %d: collected %x, %v; want %x", k, out, err, result)
			}
		}
		if renewals != 1 {
			t.Fatalf("%d renewals over %d single-slot steps, want 1", renewals, StepWindowSlots+6)
		}

		// A repost (the recovery ladder's move) re-arms the consumed slot
		// with the same counter: the retransmitted read is re-served as a
		// duplicate, never as fresh data.
		src := ch.Window.Buf.Base() + uint64(ch.Window.slot)*core.ChunkSize
		dup, dec := r.sc.Stats().DuplicateReads, r.sc.Stats().DecryptedChunks
		r.adaptor.RepostTags(ch.Window)
		if got, ok := dev.dmaRead(src, 32); !ok || !bytes.Equal(got, stepData(StepWindowSlots+5, 32)) {
			t.Fatal("reposted step not re-served")
		}
		if st := r.sc.Stats(); st.DuplicateReads != dup+1 || st.DecryptedChunks != dec {
			t.Fatalf("repost: duplicate reads %d→%d, decrypted %d→%d", dup, st.DuplicateReads, dec, st.DecryptedChunks)
		}

		r.adaptor.CloseStepChannel(ch)
		if got := r.sc.Regions(); got != baseline {
			t.Fatalf("closed channel: SC holds %d regions, want %d", got, baseline)
		}
		if st := r.sc.Stats(); st.ConfigRejects != 0 {
			t.Fatalf("%d config rejects on a clean stream", st.ConfigRejects)
		}
	})
}

// TestStepChannelMultiChunkStep arms steps wider than one chunk: the
// slots of one step carry consecutive counters but the steps of two
// interleaved channels do not, and both the chunk-at-a-time and the
// span read resolve every slot's own counter.
func TestStepChannelMultiChunkStep(t *testing.T) {
	t.Run("ring=true", func(t *testing.T) {
		r, dev := newRig(t)
		a, err := r.adaptor.OpenStepChannel("ids-a", "chunk-a", 600)
		if err != nil {
			t.Fatal(err)
		}
		b, err := r.adaptor.OpenStepChannel("ids-b", "chunk-b", 600)
		if err != nil {
			t.Fatal(err)
		}
		// 20 chunks per step: three positioned entries (8 records each
		// at most) per arm.
		const n = 19*core.ChunkSize + 100
		for k := 0; k < 3; k++ {
			for i, ch := range []*StepChannel{a, b} {
				data := stepData(10*k+i, n)
				src, err := r.adaptor.ArmStep(ch, data)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.adaptor.GuardedWrite(0x10, 1); err != nil {
					t.Fatal(err)
				}
				if err := r.adaptor.Publish(); err != nil {
					t.Fatal(err)
				}
				var got []byte
				if k%2 == 0 {
					var ok bool
					if got, ok = dev.dmaRead(src, n); !ok {
						t.Fatalf("step %d/%d: chunked read failed", k, i)
					}
				} else {
					// One span read per MaxReadReq, like the real device.
					for off := 0; off < n; off += pcie.MaxReadReq {
						cpl := dev.up(pcie.NewMemRead(dev.id, src+uint64(off), uint32(min(pcie.MaxReadReq, n-off)), 0))
						if cpl == nil || cpl.Status != pcie.CplSuccess {
							t.Fatalf("step %d/%d: span read at %d failed", k, i, off)
						}
						got = append(got, cpl.Payload...)
					}
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("step %d/%d: device read wrong bytes", k, i)
				}
			}
		}
		if a.Fits(n) {
			t.Fatalf("three 20-slot steps leave %d slots, a fourth must not fit", StepWindowSlots-a.next)
		}
		if _, err := r.adaptor.ArmStep(a, stepData(99, n)); err == nil {
			t.Fatal("step armed past the end of its window")
		}
		if st := r.sc.Stats(); st.AuthFailures != 0 || st.ConfigRejects != 0 {
			t.Fatalf("clean multi-chunk stream: %d auth failures, %d config rejects", st.AuthFailures, st.ConfigRejects)
		}
	})
}

// TestDecodeSessionsReuseTagTables replays a decode session's regions on
// the rig — a 65,280-byte KV region staged and held, a one-chunk prompt
// region staged and released, a step window armed step by step, then
// the window closed and the KV region released — and checks that once
// warm a session makes no tag-record table: the Adaptor's free list
// holds the same tables after every session.
func TestDecodeSessionsReuseTagTables(t *testing.T) {
	r, _ := newRig(t)
	a := r.adaptor
	kv := stepData(0, 65280)
	session := func() {
		t.Helper()
		kvReg, err := a.StageH2D("kv", kv)
		if err != nil {
			t.Fatal(err)
		}
		ids, err := a.StageH2D("prompt", stepData(1, 64))
		if err != nil {
			t.Fatal(err)
		}
		a.ReleaseRegion(ids)
		ch, err := a.OpenStepChannel("ids", "chunk", 32)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 8; k++ {
			if _, err := a.ArmStep(ch, stepData(k, 32)); err != nil {
				t.Fatal(err)
			}
			if err := a.GuardedWrite(0x10, uint64(k)); err != nil {
				t.Fatal(err)
			}
			if err := a.Publish(); err != nil {
				t.Fatal(err)
			}
		}
		a.CloseStepChannel(ch)
		a.ReleaseRegion(kvReg)
	}
	tables := func() map[*core.TagRecord]int {
		set := make(map[*core.TagRecord]int)
		for _, recs := range a.recsFree {
			set[&recs[:cap(recs)][0]] = cap(recs)
		}
		return set
	}
	session()
	session()
	warm := tables()
	for i := 0; i < 8; i++ {
		session()
		if got := tables(); !maps.Equal(got, warm) {
			t.Fatalf("session %d after warm-up: free tag tables %v, want %v", i, got, warm)
		}
	}
}

// TestTagTableFreeListKeepsLargeTables pins the free list's two choices:
// a full list trades its smallest table for a larger one, and a take
// hands out the smallest table that fits, so one-record tables neither
// crowd out nor borrow a KV region's.
func TestTagTableFreeListKeepsLargeTables(t *testing.T) {
	var a Adaptor
	for i := 0; i < recsFreeCap; i++ {
		a.putRecs(make([]core.TagRecord, 1))
	}
	big := make([]core.TagRecord, 255)
	a.putRecs(big)
	if n := len(a.recsFree); n != recsFreeCap {
		t.Fatalf("free list holds %d tables, want %d", n, recsFreeCap)
	}
	if got := a.takeRecs(1); cap(got) != 1 {
		t.Fatalf("a one-record take got a %d-record table", cap(got))
	}
	if got := a.takeRecs(200); &got[:1][0] != &big[0] {
		t.Fatal("a full list of one-record tables dropped the larger table")
	}
}
