package adaptor

// Tests for the streaming staging pipeline (DESIGN.md §10) as seen
// from the wire: tag uploads must track the seal's emit order, and a
// staged region must read back as its plaintext.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"ccai/internal/core"
	"ccai/internal/pcie"
)

// ringTagTap parses every tag record in the tag entries of the ring
// slots the SC fetches, in wire order, with the SC's entry decoder.
type ringTagTap struct {
	mu       sync.Mutex
	counters []uint32
}

func (tw *ringTagTap) Tap(p *pcie.Packet) *pcie.Packet {
	if p.Kind != pcie.CplD || p.Role != pcie.RoleSlotFetch {
		return p
	}
	tw.mu.Lock()
	defer tw.mu.Unlock()
	// The fetch's last slot stops at the span's end.
	for at := 0; at < len(p.Payload); at += core.RingSlotSize {
		for rest := p.Payload[at:min(at+core.RingSlotSize, len(p.Payload))]; rest != nil; {
			e, next, ok := core.CutRingEntry(rest)
			if !ok {
				break
			}
			for recs := e.Data; e.Op == core.RingOpTags && len(recs) >= core.TagRecordSize; recs = recs[core.TagRecordSize:] {
				tw.counters = append(tw.counters, binary.LittleEndian.Uint32(recs[4:]))
			}
			rest = next
		}
	}
	return p
}

// TestStageH2DTagOrderUnderParallelCrypto taps the host bus during a
// 64 KiB StageH2D and asserts the tag counters hit the wire strictly
// ascending: the emit stage must post them in chunk order before
// anything escapes the Adaptor. A reordered tag upload would break the
// SC's contiguous tag-span batching and, worse, decouple tag position
// from chunk identity. Each subtest stages at GOMAXPROCS of that many
// workers, the proc count that once sized the Adaptor's crypto pool:
// the wire order must not depend on it.
func TestStageH2DTagOrderUnderParallelCrypto(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			r, _ := newRig(t)
			tap := &ringTagTap{}
			r.host.AddTap(tap)

			data := make([]byte, 64<<10) // 16 chunks through the pipeline
			for i := range data {
				data[i] = byte(i * 31)
			}
			reg, err := r.adaptor.StageH2D("ordered", data)
			if err != nil {
				t.Fatal(err)
			}
			r.publish(t)
			r.host.ClearTaps()

			tap.mu.Lock()
			counters := append([]uint32(nil), tap.counters...)
			tap.mu.Unlock()
			nChunks := (len(data) + BulkChunkSize - 1) / BulkChunkSize
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
	r.publish(t)
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
	if n := r.sc.Stats().DecryptedChunks; n != uint64(len(data)/BulkChunkSize) {
		t.Fatalf("DecryptedChunks = %d, want %d", n, len(data)/BulkChunkSize)
	}
}

// BenchmarkStageH2D64KiB times the hot staging path in isolation:
// seal 16 chunks, write the bounce buffer, upload tags. allocs/op is
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
