package ccai

import (
	"testing"

	"ccai/internal/xpu"
)

// These tests pin the ISSUE 9 data-plane overlap structurally: the SC
// must actually run decrypt ahead of the device's DMA (H2D), seal
// device write bursts as batches (D2H), and serve completion heads
// without MMIO round trips (batched reaping). The virtual-time side of
// the same claims lives in internal/bench's overlap test.

// TestDecryptDMAOverlapPipelined runs one 64 KiB protected task and
// checks both halves of the pipeline fired: every span read after the
// first was served from the decrypt-ahead cache (its crypto ran under
// the previous span's DMA shadow), and the D2H path sealed spans as
// engine batches rather than chunk-at-a-time.
func TestDecryptDMAOverlapPipelined(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	input := make([]byte, 64<<10)
	for i := range input {
		input[i] = byte(i * 13)
	}
	before := p.SC.Stats()
	if _, err := p.RunTask(Task{Input: input, Kernel: KernelXOR, Param: 0x5a}); err != nil {
		t.Fatal(err)
	}
	after := p.SC.Stats()

	// 64 KiB input = 16 MaxReadReq spans; the first span is a demand
	// miss, every later one must hit the cache filled while the prior
	// span's completion was in flight.
	const spans = 16
	hits := after.PrefetchHits - before.PrefetchHits
	if hits < spans-1 {
		t.Fatalf("prefetch hits = %d, want >= %d: H2D decrypt not overlapping DMA", hits, spans-1)
	}
	if pf := after.PrefetchedChunks - before.PrefetchedChunks; pf == 0 {
		t.Fatal("no chunks decrypted ahead of demand")
	}
	if d2h := after.BatchedD2HSpans - before.BatchedD2HSpans; d2h == 0 {
		t.Fatal("no D2H write spans sealed as batches")
	}
}

// TestCompletionReapHalvesMMIOReads pins what batched reaping leaves of
// the completion poll: with the ring's completion word carrying the
// head, a steady-state 64 KiB task issues no MMIO read at all (the
// guarded read it replaces is one per task — the ratio is Figure 11's,
// held in internal/bench).
func TestCompletionReapHalvesMMIOReads(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	task := Task{Input: make([]byte, 64<<10), Kernel: KernelXOR, Param: 1}
	if _, err := p.RunTask(task); err != nil { // warm-up
		t.Fatal(err)
	}
	before := p.Adaptor.IO().MMIOReads
	if _, err := p.RunTask(task); err != nil {
		t.Fatal(err)
	}
	if reads := p.Adaptor.IO().MMIOReads - before; reads != 0 {
		t.Fatalf("steady-state 64 KiB task issued %d completion MMIO reads, want 0", reads)
	}
}

// TestCompletionReapCoversTenants pins that the multi-tenant assembly
// arms reaping too: a tenant's steady-state task must serve its
// completion polls from host memory, not MMIO. (The wiring lives in
// addTenant; before it existed, every tenant silently rode the MMIO
// fallback while the single-tenant platform reaped.)
func TestCompletionReapCoversTenants(t *testing.T) {
	mp := servingPlatform(t, 2)
	input := make([]byte, 64<<10)
	task := Task{Input: input, Kernel: KernelXOR, Param: 1}
	for _, tn := range mp.Tenants {
		if _, err := tn.RunTask(task); err != nil { // warm-up
			t.Fatal(err)
		}
		before := tn.Adaptor.IO().MMIOReads
		if _, err := tn.RunTask(task); err != nil {
			t.Fatal(err)
		}
		if reads := tn.Adaptor.IO().MMIOReads - before; reads != 0 {
			t.Fatalf("tenant %d: steady-state 64 KiB task issued %d completion MMIO reads, want 0 (reaping not armed)",
				tn.Index, reads)
		}
	}
}
