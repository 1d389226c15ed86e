package ccai

import (
	"bytes"
	"context"
	"testing"

	"ccai/internal/llm"
	"ccai/internal/mem"
	"ccai/internal/xpu"
)

// TestHostBuffersReleasedAfterWork puts host buffers on the teardown
// hygiene list: after trust is established on a two-tenant chassis, the
// address space's live-buffer count is back where it started once 50
// protected 64 KiB tasks, a decode session, a session closed mid-stream
// and an 8-task scheduler burst are done. A buffer left live stays
// resolvable as a DMA target; a freed one left in the DMA index would be
// one too.
func TestHostBuffersReleasedAfterWork(t *testing.T) {
	mp := llmChassis(t, []xpu.Profile{xpu.A100, xpu.A100})
	baseline := mp.space.Live()
	ctx := context.Background()

	task := Task{Input: bytes.Repeat([]byte{5}, 64<<10), Kernel: KernelXOR, Param: 1}
	for i := 0; i < 50; i++ {
		if _, err := mp.Tenants[i%2].RunTask(task); err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
	}
	if got := mp.space.Live(); got != baseline {
		t.Fatalf("after 50 tasks: %d live host buffers, want %d", got, baseline)
	}

	cfg := llm.Config{MaxNewTokens: 64, ChunkTokens: 8, MaxPromptTokens: 16, Seed: 0x5eed}
	sess, ch := openStream(t, mp.Tenants[0], cfg, []byte("host buffer hygiene"))
	collectStream(t, ch)
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if got := mp.space.Live(); got != baseline {
		t.Fatalf("after a decode session: %d live host buffers, want %d", got, baseline)
	}

	sess, ch = openStream(t, mp.Tenants[1], cfg, []byte("closed mid-stream"))
	if c := <-ch; c.Err != nil {
		t.Fatal(c.Err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if got := mp.space.Live(); got != baseline {
		t.Fatalf("after a session closed mid-stream: %d live host buffers, want %d", got, baseline)
	}

	s := batchScheduler(t, mp, 8)
	var burst []TenantTask
	for i := 0; i < 8; i++ {
		burst = append(burst, TenantTask{Tenant: i % 2, Task: Task{
			Input: bytes.Repeat([]byte{byte(i)}, (i+1)<<12), Kernel: KernelAdd, Param: 1,
		}})
	}
	for i, r := range runBatch(s, burst) {
		if r.Err != nil {
			t.Fatalf("burst task %d: %v", i, r.Err)
		}
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if got := mp.space.Live(); got != baseline {
		t.Fatalf("after an 8-task burst: %d live host buffers, want %d", got, baseline)
	}
}

// TestSpaceAllocFreeAllocatesOneObject pins what the DMA index costs an
// Alloc/Free pair: the *Buffer and nothing else. The slot table reuses
// a freed slot, and a recycled backing serves the bytes, so an index
// that copied itself per mutation would show up here as a second
// object.
func TestSpaceAllocFreeAllocatesOneObject(t *testing.T) {
	if raceDetector {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	s := mem.NewSpace()
	if err := s.AddRegion("shared", 0x8000_0000, 16<<20); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Alloc("shared", "resident", mem.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	run := func() {
		b, err := s.Alloc("shared", "bounce", 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		s.Free(b)
	}
	run()
	if got := testing.AllocsPerRun(200, run); got != 1 {
		t.Fatalf("Alloc/Free pair allocates %.1f objects, want 1 (the *Buffer)", got)
	}
}
