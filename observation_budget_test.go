package ccai

// The price of observation, as deterministic gates (ISSUE 17): how many
// spans each op records, that recording them allocates nothing the
// unobserved op does not, that nothing unbounded reaches the symbol
// table, and that the names the benchmark and the soak scorecards read
// observability by are the names the program emits.

import (
	"context"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"

	"ccai/internal/core"
	"ccai/internal/fault"
	"ccai/internal/llm"
	"ccai/internal/obsv"
	"ccai/internal/pcie"
	"ccai/internal/xpu"
)

// observedChassis is llmChassis with the hub on.
func observedChassis(t *testing.T, profiles []xpu.Profile, opts ...Option) *MultiPlatform {
	t.Helper()
	return llmChassis(t, profiles, append(opts, WithObserve())...)
}

// decodeCfg is the benchmark's llm-decode session: 16-token prompt, 512
// new tokens in 8-token chunks — 64 engine steps.
var decodeCfg = llm.Config{MaxNewTokens: 512, ChunkTokens: 8, MaxPromptTokens: 16, Seed: 0xa110c}

// prefillCfg is the benchmark's llm-prefill session: 128-token prompt,
// 65,280 B of KV staged once, one chunk, no decode step.
var prefillCfg = llm.Config{MaxNewTokens: 8, ChunkTokens: 8, MaxPromptTokens: 128, TokenBytes: 4, KVBytesPerToken: 480, Seed: 0xa110c}

func prefillPrompt() []byte {
	prompt := make([]byte, prefillCfg.MaxPromptTokens*prefillCfg.TokenBytes)
	for i := range prompt {
		prompt[i] = byte(i*13 + 1)
	}
	return prompt
}

// runSession opens, streams to the end and closes one session.
func runSession(t *testing.T, tenant *Tenant, cfg llm.Config, prompt []byte) {
	t.Helper()
	s, ch := openStream(t, tenant, cfg, prompt)
	collectStream(t, ch)
	s.Close()
}

// betweenDispatches runs one decode session on mp and calls at(n) on the
// dispatcher's goroutine just before it claims its n-th step (1-based;
// step 1 is the prefill). The pipeline is idle at that point, so at may
// read the tracer or the allocator.
func betweenDispatches(t *testing.T, mp *MultiPlatform, at func(n int)) {
	t.Helper()
	n := 0
	mp.SetLLMFaultHook(func(point string) bool {
		if point == fault.SchedPointDequeue {
			n++
			at(n)
		}
		return false
	})
	defer mp.SetLLMFaultHook(nil)
	runSession(t, mp.Tenants[0], decodeCfg, []byte("steady decode"))
}

// Span budgets, pinned at what each op records today. Aggregates keep
// them flat in the transfer size: a 64 KiB task's 16 D2H chunk writes
// are 16 encrypt_write spans and 16 seal_stream spans (one each per
// sealed write span, which ends at MaxReadReq bytes), and every device
// read of an A2 region, one chunk or sixteen, is one decrypt_read_span
// and one tag_match. A new per-TLP or per-chunk span
// shows up here as a jump, in the count pass of benchmark/ as
// obsv.spans_per_op. A submission's command slots ride its span as one
// run, and the device reads a run with one read the SC serves from the
// run it holds: one sync_verified, and one dma_read, classify and
// verified_read per run, with no tag_match. Its two
// guarded writes are ring entries, each one guarded_mmio span at the SC,
// with no classify span and no tag_match: the span's seal vouches for
// an entry, and the SC checks the environment guard in place.
// Posting staging and sealing each span add no span.
const (
	spansPerTask64K    = 106
	spansPerTask4K     = 31
	spansPerDecodeStep = 25
	spansPerPrefill    = 84
)

// TestSpanBudget pins spans per op exactly, on the synthetic clock.
func TestSpanBudget(t *testing.T) {
	task := func(size int) int {
		p := observedPlatform(t)
		in := make([]byte, size)
		run := func() {
			if _, err := p.RunTask(Task{Input: in, Kernel: KernelXOR, Param: 0x5a}); err != nil {
				t.Fatal(err)
			}
		}
		run() // the cold op: allocator and ring at their initial positions
		tr := p.Obs.T()
		tr.Reset()
		run()
		if tr.Dropped() != 0 {
			t.Fatalf("dropped %d spans", tr.Dropped())
		}
		return len(tr.Spans())
	}
	if got := task(64 << 10); got != spansPerTask64K {
		t.Errorf("a 64 KiB task records %d spans, budget is exactly %d", got, spansPerTask64K)
	}
	if got := task(4 << 10); got != spansPerTask4K {
		t.Errorf("a 4 KiB task records %d spans, budget is exactly %d", got, spansPerTask4K)
	}

	t.Run("decode-step", func(t *testing.T) {
		mp := observedChassis(t, []xpu.Profile{xpu.A100}, WithLLMEngine(llm.EngineConfig{Workers: 1}))
		tr := mp.Obs.T()
		tr.SetLimit(1 << 14)
		const from, to = 8, 56 // deep inside one step window: no open, renewal or release
		var spans int
		betweenDispatches(t, mp, func(n int) {
			switch n {
			case from + 1:
				tr.Reset()
			case to + 1:
				spans = len(tr.Spans())
			}
		})
		// One of the 48 submissions straddles the end of the 64-slot command
		// ring (commands 127–129 of the session are slots 63, 0, 1): two
		// runs, so one dma_read, classify and verified_read more.
		if want := spansPerDecodeStep*(to-from) + 3; spans != want {
			t.Errorf("%d decode steps record %d spans, budget is exactly %d a step and one for the wrap (%d)",
				to-from, spans, spansPerDecodeStep, want)
		}
	})

	t.Run("prefill", func(t *testing.T) {
		mp := observedChassis(t, []xpu.Profile{xpu.A100}, WithLLMEngine(llm.EngineConfig{Workers: 1}))
		runSession(t, mp.Tenants[0], prefillCfg, prefillPrompt())
		tr := mp.Obs.T()
		tr.Reset()
		runSession(t, mp.Tenants[0], prefillCfg, prefillPrompt())
		if got := len(tr.Spans()); got != spansPerPrefill {
			t.Errorf("a prefill-only session records %d spans, budget is exactly %d", got, spansPerPrefill)
		}
	})
}

// TestObservedAllocParity: recording allocates nothing. Heap objects per
// 64 KiB task, per steady decode step and per whole 512-token session
// are the same with the hub on as with it off — spans go into a
// preallocated buffer by handle, counters were resolved at wiring time —
// with no buffer swap inside the measured span. GOMAXPROCS 1, where the
// counts are deterministic.
func TestObservedAllocParity(t *testing.T) {
	if raceDetector {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// A collection empties the buffer pools, and when one falls differs
	// between the two chassis; with the collector off the counts repeat.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mallocs := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	both := func(name string, measure func(t *testing.T, observe bool) uint64) {
		t.Run(name, func(t *testing.T) {
			off, on := measure(t, false), measure(t, true)
			t.Logf("%s: %d objects unobserved, %d observed", name, off, on)
			if on != off {
				t.Fatalf("%s allocates %d objects observed and %d unobserved", name, on, off)
			}
		})
	}
	both("task/64KiB", func(t *testing.T, observe bool) uint64 {
		p := protectedPlatform(t, xpu.A100)
		if observe {
			p = observedPlatform(t)
			p.Obs.T().SetLimit(1 << 14)
		}
		return measureTaskAllocs(t, 32, 64<<10, p.RunTask)
	})
	chassis := func(t *testing.T, observe bool) *MultiPlatform {
		opts := []Option{WithLLMEngine(llm.EngineConfig{Workers: 1})}
		if !observe {
			return llmChassis(t, []xpu.Profile{xpu.A100}, opts...)
		}
		mp := observedChassis(t, []xpu.Profile{xpu.A100}, opts...)
		mp.Obs.T().SetLimit(1 << 15)
		return mp
	}
	both("decode-step", func(t *testing.T, observe bool) uint64 {
		mp := chassis(t, observe)
		runSession(t, mp.Tenants[0], decodeCfg, []byte("warm-up"))
		const from, to = 8, 56
		var m0, m1 uint64
		betweenDispatches(t, mp, func(n int) {
			switch n {
			case from + 1:
				m0 = mallocs()
			case to + 1:
				m1 = mallocs()
			}
		})
		return (m1 - m0) / (to - from)
	})
	both("session/512-tokens", func(t *testing.T, observe bool) uint64 {
		mp := chassis(t, observe)
		for warm := 0; warm < 2; warm++ {
			runSession(t, mp.Tenants[0], decodeCfg, []byte("warm-up"))
		}
		const sessions = 4
		mp.Obs.T().Reset()
		m0 := mallocs()
		for i := 0; i < sessions; i++ {
			runSession(t, mp.Tenants[0], decodeCfg, []byte("measured"))
		}
		m1 := mallocs()
		if d := mp.Obs.T().Dropped(); d != 0 {
			t.Fatalf("dropped %d spans: the measured span must fit the buffer", d)
		}
		// To the nearest object, not the floor: the total sits two
		// objects over a multiple of sessions, and the runtime adds one of
		// its own now and then (a type-assertion cache rebuilt, a timer heap
		// or sudog cache grown) on either side — which a floor at the edge
		// of its bucket reads as a difference of one a session.
		return (m1 - m0 + sessions/2) / sessions
	})
}

// failClosedReason returns the reason attribute of the platform's
// recovery.fail_closed span.
func failClosedReason(t *testing.T, p *Platform) string {
	t.Helper()
	for _, sp := range p.Obs.T().Spans() {
		if sp.Name == "recovery.fail_closed" {
			for _, a := range sp.Attrs() {
				if a.Key == "reason" {
					return a.Val()
				}
			}
		}
	}
	t.Fatal("no recovery.fail_closed span with a reason")
	return ""
}

// TestSymbolTableBounded (see internal/obsv for the flood against the
// cap itself): a fail-closed teardown records its reason as a fixed
// class and its counts as numbers, so a hundred teardowns that each
// differ in what the device had consumed add nothing to the process-
// wide symbol table after the first.
func TestSymbolTableBounded(t *testing.T) {
	// The pipeline's own teardown: every doorbell hangs, the ladder
	// exhausts.
	p := observedPlatform(t)
	inj := fault.NewInjector(fault.Plan{Seed: matrixSeeds[0], Events: []fault.Event{{Class: fault.DoorbellHang, Count: 64}}})
	p.Device.SetFaultHook(inj.DeviceFault)
	if _, err := p.RunTask(Task{Input: taskInput(), Kernel: KernelXOR, Param: 0x5a}); err == nil || p.trusted {
		t.Fatal("the hung doorbell did not fail the session closed")
	}
	if got := failClosedReason(t, p); got != "submission stalled" {
		t.Fatalf("fail_closed span reason %q, want the fixed class", got)
	}
	if last := p.Adaptor.Recovery().LastFailure; !strings.Contains(last, "consumed=0 expected=3") {
		t.Fatalf("LastFailure lost the counts: %q", last)
	}

	settled := obsv.SymbolCount()
	for i := uint64(0); i < 100; i++ {
		p := observedPlatform(t)
		p.Adaptor.FailClosed("submission stalled",
			obsv.U64("consumed", i), obsv.U64("expected", 1000+i), obsv.Hex("status", i*0x11))
		if got := failClosedReason(t, p); got != "submission stalled" {
			t.Fatalf("teardown %d: reason %q", i, got)
		}
		p.Close()
	}
	if n := obsv.SymbolCount(); n != settled || n > obsv.MaxSymbols {
		t.Fatalf("symbol table grew from %d to %d over 100 fail-closed teardowns with distinct counts (cap %d)",
			settled, n, obsv.MaxSymbols)
	}
}

// TestObservabilityNameContract holds the names benchmark/counts.go and
// internal/soak/scorecard.go read observability by. They match spans by
// name and counters by prefix and label; a rename would otherwise fail
// only inside a benchmark run, as a count-pass cross-check.
func TestObservabilityNameContract(t *testing.T) {
	mp := observedChassis(t, []xpu.Profile{xpu.A100, xpu.A100}, WithLLMEngine(llm.EngineConfig{Workers: 1}))
	tr := mp.Obs.T()
	tr.SetLimit(1 << 14)
	counters := func() map[string]uint64 { return mp.Obs.Reg().Snapshot().Counters }
	sum := func(c map[string]uint64, match func(name string) bool) (total uint64) {
		for name, v := range c {
			if match(name) {
				total += v
			}
		}
		return total
	}
	descInstalls := func(name string) bool {
		return strings.HasPrefix(name, "secmem.open.ops{") && strings.Contains(name, "side=crypto/sc") &&
			strings.Contains(name, "stream="+core.StreamConfig)
	}
	before := sum(counters(), descInstalls)
	tr.Reset()
	// Device reads of A2 H2D regions — every device read but the
	// command ring's (A3) — seen on the device segments: each, one chunk
	// or sixteen, is one decrypt_read_span.
	var a2Reads atomic.Uint64
	for _, tenant := range mp.Tenants {
		tenant.internal.AddTap(pcie.TapFunc(func(p *pcie.Packet) *pcie.Packet {
			if p.Kind == pcie.MRd && p.Role == pcie.RoleH2DData && p.Requester == tenant.XPUID {
				a2Reads.Add(1)
			}
			return p
		}))
	}

	// A task, a prefill with three decode steps, and a scheduled burst
	// with one rejected submission.
	if _, err := mp.Tenants[0].RunTask(Task{Input: make([]byte, 64<<10), Kernel: KernelXOR, Param: 1}); err != nil {
		t.Fatal(err)
	}
	cfg := decodeCfg
	cfg.MaxNewTokens = 4 * cfg.ChunkTokens
	runSession(t, mp.Tenants[0], cfg, []byte("name contract"))
	s, err := mp.NewScheduler(SchedulerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var handles []*Handle
	for i := 0; i < 4; i++ {
		h, err := s.Submit(context.Background(), TenantTask{Tenant: i % 2, Task: Task{Input: make([]byte, 4<<10), Kernel: KernelAdd, Param: 1}})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	if _, err := s.Submit(context.Background(), TenantTask{Tenant: 0}); err == nil {
		t.Fatal("empty task admitted")
	}
	for _, h := range handles {
		if _, err := h.Result(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(fault.Plan{Seed: matrixSeeds[0], Events: []fault.Event{{Class: fault.DoorbellHang, Count: 1}}})
	inj.SetObserver(mp.Obs)
	mp.Tenants[1].Device.SetFaultHook(inj.DeviceFault)
	if _, err := mp.Tenants[1].RunTask(Task{Input: make([]byte, 4<<10), Kernel: KernelAdd, Param: 1}); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped %d spans", tr.Dropped())
	}

	// Staging spans == descriptors the SC opened on the config stream.
	var staging, spanReads uint64
	for _, sp := range tr.Spans() {
		switch sp.Name {
		case "stage_h2d", "prepare_d2h", "stage_verified":
			staging++
		case "decrypt_read_span":
			spanReads++
		}
	}
	c := counters()
	installs := sum(c, descInstalls) - before
	if staging == 0 || staging != installs {
		t.Errorf("%d staging spans (stage_h2d + prepare_d2h + stage_verified) but the SC opened %d config-stream blobs", staging, installs)
	}
	if spanReads == 0 || spanReads != a2Reads.Load() {
		t.Errorf("%d decrypt_read_span spans for %d device reads of A2 regions", spanReads, a2Reads.Load())
	}
	for _, want := range []struct{ prefix, label string }{
		{"secmem.seal.bytes{", "side=crypto/sc"},
		{"secmem.open.bytes{", "side=crypto/sc"},
		{"llm.steps{", "kind="},
		{"sched.rejected{", "reason="},
		{"llm.sessions{", "status=ok"},
		{"fault.fired{class=", ""},
	} {
		if sum(c, func(name string) bool {
			return strings.HasPrefix(name, want.prefix) && strings.Contains(name, want.label)
		}) == 0 {
			t.Errorf("no counter %s…%s… counted anything; have %v", want.prefix, want.label, c)
		}
	}
}
