package ccai

import (
	"testing"

	"ccai/internal/xpu"
)

// These tests pin the SC data plane structurally: the SC seals device
// write bursts as batches (D2H) and serves completion heads without
// MMIO round trips (batched reaping). The crypto/DMA overlap of the
// paper's hardware exists only on the virtual clock; internal/bench's
// overlap test holds it there.

// TestD2HSealsWriteSpansAsBatches runs one 64 KiB protected task and
// checks that the D2H path sealed its 256 chunks as engine batches, one
// per write span (16 chunks cut at the 8-chunk metadata cadence: 32),
// rather than chunk-at-a-time.
func TestD2HSealsWriteSpansAsBatches(t *testing.T) {
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
	if d2h := after.BatchedD2HSpans - before.BatchedD2HSpans; d2h != 32 {
		t.Fatalf("%d D2H write spans sealed as batches, want 32", d2h)
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
