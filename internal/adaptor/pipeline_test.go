package adaptor

// Tests for the streaming staging pipeline (DESIGN.md §10) as seen
// from the wire: tag uploads must track the crypto pool's emit order,
// and a parallel pipeline must stage byte-identical regions to a
// serial one.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"ccai/internal/core"
	"ccai/internal/pcie"
	"ccai/internal/secmem"
)

// ringTagTap parses every tag record in the tag entries of the ring
// slots the SC fetches (completions of whole slots), in wire order.
type ringTagTap struct {
	mu       sync.Mutex
	counters []uint32
}

func (tw *ringTagTap) Tap(p *pcie.Packet) *pcie.Packet {
	if p.Kind != pcie.CplD || len(p.Payload) == 0 || len(p.Payload)%core.RingSlotSize != 0 {
		return p
	}
	tw.mu.Lock()
	defer tw.mu.Unlock()
	for slot := p.Payload; len(slot) > 0; slot = slot[core.RingSlotSize:] {
		if slot[0] != core.RingOpTags {
			continue
		}
		recs := slot[core.RingEntryHdrSize:][:binary.LittleEndian.Uint16(slot[2:])]
		for ; len(recs) >= core.TagRecordSize; recs = recs[core.TagRecordSize:] {
			tw.counters = append(tw.counters, binary.LittleEndian.Uint32(recs[4:]))
		}
	}
	return p
}

// TestStageH2DTagOrderUnderParallelCrypto taps the host bus during a
// parallel-crypto StageH2D and asserts the tag counters hit the wire
// strictly ascending: the pool may seal chunks out of order, but the
// emit stage must serialize them back before anything escapes the
// Adaptor. A reordered tag upload would break the SC's contiguous
// tag-span batching and, worse, decouple tag position from chunk
// identity.
func TestStageH2DTagOrderUnderParallelCrypto(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			r, _ := newRig(t)
			r.adaptor.pool = secmem.NewPool(workers)
			tap := &ringTagTap{}
			r.host.AddTap(tap)

			data := make([]byte, 64<<10) // 256 chunks through the pipeline
			for i := range data {
				data[i] = byte(i * 31)
			}
			reg, err := r.adaptor.StageH2D("ordered", data)
			if err != nil {
				t.Fatal(err)
			}
			r.host.ClearTaps()

			tap.mu.Lock()
			counters := append([]uint32(nil), tap.counters...)
			tap.mu.Unlock()
			nChunks := (len(data) + core.ChunkSize - 1) / core.ChunkSize
			if len(counters) != nChunks {
				t.Fatalf("saw %d tag records on the wire, want %d", len(counters), nChunks)
			}
			first := reg.Desc.FirstCounter
			for i, c := range counters {
				if c != first+uint32(i) {
					t.Fatalf("tag %d carries counter %d, want %d (reordered upload)", i, c, first+uint32(i))
				}
			}
		})
	}
}

// TestStageH2DParallelMatchesSerial stages the same plaintext through
// a 1-worker and a 4-worker pipeline (each rig has its own keys, so
// ciphertext differs) and requires the device to read back identical
// plaintext with identically structured tag records: pipeline width is
// a scheduling detail, never a protocol-visible one.
func TestStageH2DParallelMatchesSerial(t *testing.T) {
	data := make([]byte, 20<<10)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	stage := func(workers int) []core.TagRecord {
		r, dev := newRig(t)
		r.adaptor.pool = secmem.NewPool(workers)
		reg, err := r.adaptor.StageH2D("w", data)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := dev.dmaRead(reg.Desc.Base, int64(len(data)))
		if !ok {
			t.Fatalf("device read of staged region failed (workers=%d)", workers)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("device read back wrong plaintext (workers=%d)", workers)
		}
		return reg.Recs
	}
	serialRecs := stage(1)
	parRecs := stage(4)
	if len(serialRecs) != len(parRecs) {
		t.Fatalf("record counts diverge: %d vs %d", len(serialRecs), len(parRecs))
	}
	for i := range serialRecs {
		if serialRecs[i].Chunk != parRecs[i].Chunk || serialRecs[i].Epoch != parRecs[i].Epoch {
			t.Fatalf("tag record %d structure diverges between widths", i)
		}
	}
}

// TestStagedRegionSpanReadable drives the full new read path: a
// staged 64 KiB region consumed by the stub device in MaxReadReq-sized
// span reads must come back as the original plaintext, chunk batching
// and all.
func TestStagedRegionSpanReadable(t *testing.T) {
	r, dev := newRig(t)
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(i ^ (i >> 8))
	}
	reg, err := r.adaptor.StageH2D("span", data)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 0, len(data))
	for off := 0; off < len(data); off += pcie.MaxReadReq {
		n := pcie.MaxReadReq
		if len(data)-off < n {
			n = len(data) - off
		}
		cpl := dev.up(pcie.NewMemRead(dev.id, reg.Desc.Base+uint64(off), uint32(n), 0))
		if cpl == nil || cpl.Status != pcie.CplSuccess {
			t.Fatalf("span read at %d rejected", off)
		}
		got = append(got, cpl.Payload...)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("span reads reassembled wrong plaintext")
	}
	if n := r.sc.Stats().DecryptedChunks; n != 256 {
		t.Fatalf("DecryptedChunks = %d, want 256", n)
	}
}

// BenchmarkStageH2D64KiB times the hot staging path in isolation:
// seal 256 chunks, write the bounce buffer, upload tags. allocs/op is
// the number the arena work targets (the benchmark of record tracks it
// as adaptor.stage_h2d_64k_xref and allocs_per_op).
func BenchmarkStageH2D64KiB(b *testing.B) {
	r, _ := newRig(b)
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(i * 13)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg, err := r.adaptor.StageH2D("bench", data)
		if err != nil {
			b.Fatal(err)
		}
		r.adaptor.ReleaseRegion(reg)
	}
}
