package ccai

// Allocation budget for the protected hot path (ISSUE 8 acceptance
// gate). The seed measured 1817 allocs per 64 KiB protected task; the
// zero-alloc sweep — SerializeInto, the slab/packet arenas in the SC
// and device DMA engines, arena-backed AAD staging, and the submission
// ring — must hold the steady-state count at or below half of that.
// The gate is deliberately the acceptance ceiling, not the measured
// value, so scheduler noise cannot flake it; the benchmark of record
// (benchmark/, allocs_per_op) tracks the exact trajectory.

import (
	"context"
	"runtime"
	"testing"

	"ccai/internal/fault"
	"ccai/internal/llm"
	"ccai/internal/xpu"
)

// taskAllocCeiling is the hard allocs/op budget for task/ccAI/64KiB.
// Trajectory: 1817 (seed) -> 908 (first halving) -> 480 after the
// overlapped-data-plane wave (measured ~330/op) -> 41 once the SC/device
// round went span-granular (measured 34 on a Platform, 33 on a tenant:
// packet structs recycled, verified sets, tag-record tables and the
// batch-crypto scratch pooled) -> 40 once the Platform row stopped
// building its task.runs counter name per run (measured 33 on both
// rows; 21–23 since, at one proc or two, with every chunk sealed and
// opened on the caller). Measured + 20 %: the headroom absorbs
// GC-timing jitter (a collection empties the buffer pools) without
// readmitting the per-chunk and per-span allocation patterns this
// ceiling exists to keep out.
const taskAllocCeiling = 40

// schedAllocCeiling and schedAllocCeilingBackground are the hard budget
// for what a Scheduler round trip (Submit → fair queue → resident worker
// → Result) allocates on top of the direct Tenant.RunTask call with
// observability off, by whether the request's context can be cancelled
// or is context.Background(). Measured 5 with
// context.Background(): handle, done channel, request, queue entry, and
// the wake channel the fair queue re-makes because a lone submitter's
// worker parks between two requests. Measured 8 with a cancellable
// context: those and the queued-cancellation hook context.AfterFunc
// arms. It was 22 while every metric name was still built per request,
// and 9 (ceiling 12) while every request ran on a goroutine of its own
// and armed the hook on any context, cancellable or not.
const (
	schedAllocCeiling           = 10
	schedAllocCeilingBackground = 5
)

// measureTaskAllocs reports steady-state heap allocations per protected
// task of size bytes after a warm-up pass (arenas primed, pools filled).
func measureTaskAllocs(t *testing.T, iters, size int, run func(Task) ([]byte, error)) uint64 {
	t.Helper()
	input := make([]byte, size)
	for i := range input {
		input[i] = byte(i)
	}
	task := Task{Input: input, Kernel: KernelXOR, Param: 0x5a}
	if _, err := run(task); err != nil { // warm-up
		t.Fatal(err)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < iters; i++ {
		if _, err := run(task); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&ms1)
	return (ms1.Mallocs - ms0.Mallocs) / uint64(iters)
}

// TestTaskAllocBudget fails the build when the protected 64 KiB task
// path — on a Platform or on a MultiPlatform tenant, which share one
// pipeline and one recycling assembly — regresses past its allocation
// ceiling. The 64 KiB rows hold at any proc count: every chunk is
// sealed and opened on the goroutine running the task, so what a task
// allocates does not depend on GOMAXPROCS (make ci runs them at -cpu 1,2).
func TestTaskAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	rows := []struct {
		name  string
		build func(t *testing.T) func(Task) ([]byte, error)
	}{
		{"task/ccAI/64KiB", func(t *testing.T) func(Task) ([]byte, error) {
			return protectedPlatform(t, xpu.A100).RunTask
		}},
		{"task/tenant/64KiB", func(t *testing.T) func(Task) ([]byte, error) {
			return llmChassis(t, []xpu.Profile{xpu.A100}).Tenants[0].RunTask
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			got := measureTaskAllocs(t, 32, 64<<10, row.build(t))
			t.Logf("%s: %d allocs/op at GOMAXPROCS %d (ceiling %d, seed baseline 1817)",
				row.name, got, runtime.GOMAXPROCS(0), taskAllocCeiling)
			if got > taskAllocCeiling {
				t.Fatalf("64 KiB protected task allocates %d/op; budget is %d/op", got, taskAllocCeiling)
			}
		})
	}
	t.Run("scheduled/tenant/4KiB", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		schedulerAllocBudget(t, ctx, schedAllocCeiling)
	})
	t.Run("scheduled/tenant/4KiB/background", func(t *testing.T) {
		schedulerAllocBudget(t, context.Background(), schedAllocCeilingBackground)
	})
	t.Run("decode-step", decodeStepAllocBudget)
	t.Run("prefill/64KiB-KV", prefillAllocBudget)
}

// decodeStepAllocCeiling is the hard budget for one steady-state decode
// step of a streaming session, dispatcher and stream delivery included,
// observability off. Measured 1 — the chunk CollectD2H returns, which its
// consumer owns — with headroom for a collection that empties the buffer
// pools inside the measured span. It was ~105 while every step staged,
// installed and released two regions of its own, ~42 through the step
// channel, 20 when MMIO writes, packet structs and the seal scratch
// stopped being allocated per call, 2 once MAC inputs and AADs stopped
// escaping through the hash and cipher interfaces, the fair queue
// stopped swapping its wake channel with nobody parked on it, the SC
// opened single chunks into a pooled completion payload and the engine's
// step lived in its session, and 1 once the driver's Submit reused its
// slot-index list.
const decodeStepAllocCeiling = 3

// decodeStepAllocBudget is the decode-step row: heap objects per decode
// step between two dispatches deep inside one window of a 512-token
// session (no channel open, renewal or release in the measured span).
func decodeStepAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mp := llmChassis(t, []xpu.Profile{xpu.A100}, WithLLMEngine(llm.EngineConfig{Workers: 1}))
	const from, to = 8, 56 // dispatch ordinals: decode steps 8..55
	var (
		dispatch int
		ms       [2]runtime.MemStats
	)
	mp.SetLLMFaultHook(func(point string) bool {
		if point == fault.SchedPointDequeue {
			switch dispatch++; dispatch {
			case from + 1:
				runtime.ReadMemStats(&ms[0])
			case to + 1:
				runtime.ReadMemStats(&ms[1])
			}
		}
		return false
	})
	cfg := llm.Config{MaxNewTokens: 512, ChunkTokens: 8, MaxPromptTokens: 16, Seed: 0xa110c}
	for warm := 0; warm < 2; warm++ { // the second session is the measured one
		dispatch = 0
		s, ch := openStream(t, mp.Tenants[0], cfg, []byte("decode-step allocation row"))
		collectStream(t, ch)
		s.Close()
	}
	got := (ms[1].Mallocs - ms[0].Mallocs) / (to - from)
	t.Logf("decode-step: %d allocs/step at GOMAXPROCS 1 (ceiling %d)", got, decodeStepAllocCeiling)
	if got > decodeStepAllocCeiling {
		t.Fatalf("a decode step allocates %d objects; budget is %d", got, decodeStepAllocCeiling)
	}
}

// prefillAllocCeiling is the hard budget for one whole prefill-only
// session — open, 65,280 B of KV sealed and staged once (128 prompt
// tokens × 480 B), one 8-token chunk streamed, close — the shape of the
// benchmark's llm-prefill workload: measured 40 + 20 % (74 while each
// session still built its llm.sessions counter name, 46 while each Close
// still built the error it aborts an unfinished stream with, 41–43 while
// each session made its KV image in a fresh 64 KiB slice).
const prefillAllocCeiling = 48

// prefillBytesCeiling is the same session's heap-bytes budget: 8 KiB.
// Measured about 69 KB while every session made its KV image in a fresh
// 64 KiB slice, and about 3.9 KB since prefillStep derives it into an
// arena buffer it zeroes back (DESIGN.md §10).
const prefillBytesCeiling = 8 << 10

// prefillAllocBudget is the prefill/64KiB-KV row: heap objects and bytes
// per session over a run of identical sessions, after two warm-up
// sessions.
func prefillAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mp := llmChassis(t, []xpu.Profile{xpu.A100}, WithLLMEngine(llm.EngineConfig{Workers: 1}))
	cfg := llm.Config{MaxNewTokens: 8, ChunkTokens: 8, MaxPromptTokens: 128, TokenBytes: 4, KVBytesPerToken: 480, Seed: 0xa110c}
	prompt := make([]byte, cfg.MaxPromptTokens*cfg.TokenBytes)
	for i := range prompt {
		prompt[i] = byte(i*13 + 1)
	}
	session := func() {
		s, ch := openStream(t, mp.Tenants[0], cfg, prompt)
		collectStream(t, ch)
		s.Close()
	}
	session()
	session()
	const sessions = 16
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < sessions; i++ {
		session()
	}
	runtime.ReadMemStats(&ms1)
	got := (ms1.Mallocs - ms0.Mallocs) / sessions
	heap := (ms1.TotalAlloc - ms0.TotalAlloc) / sessions
	t.Logf("prefill/64KiB-KV: %d allocs and %d B/session at GOMAXPROCS 1 (ceilings %d, %d B)",
		got, heap, prefillAllocCeiling, prefillBytesCeiling)
	if got > prefillAllocCeiling {
		t.Fatalf("a prefill-only session allocates %d objects; budget is %d", got, prefillAllocCeiling)
	}
	if heap > prefillBytesCeiling {
		t.Fatalf("a prefill-only session allocates %d B; budget is %d B", heap, prefillBytesCeiling)
	}
}

// schedulerAllocBudget is the scheduled/tenant/4KiB rows: with
// observability off the serving path adds at most schedAllocCeiling
// allocations per request over the direct call — "zero cost when off"
// includes not building metric names nobody will read, and not arming a
// cancellation hook on a context that cannot be cancelled.
func schedulerAllocBudget(t *testing.T, ctx context.Context, ceiling uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mp := llmChassis(t, []xpu.Profile{xpu.A100})
	s, err := mp.NewScheduler(SchedulerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	direct := measureTaskAllocs(t, 64, 4<<10, mp.Tenants[0].RunTask)
	scheduled := measureTaskAllocs(t, 64, 4<<10, func(task Task) ([]byte, error) {
		h, err := s.Submit(ctx, TenantTask{Tenant: 0, Task: task})
		if err != nil {
			return nil, err
		}
		return h.Result()
	})
	t.Logf("%s: %d allocs/op scheduled, %d direct (scheduler may add %d)", t.Name(), scheduled, direct, ceiling)
	if scheduled > direct+ceiling {
		t.Fatalf("scheduler adds %d allocs/request over Tenant.RunTask; budget is %d", scheduled-direct, ceiling)
	}
}
