package ccai

// Observability-layer integration tests: a protected task's exported
// timeline must cover the full pipeline (classify → seal → DMA →
// tag-match → open), recovery rungs must increment their metrics
// exactly once under fixed fault seeds (the fault_matrix_test.go
// seeds), and no metric, span, or exported timeline may ever contain
// payload plaintext.

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ccai/internal/fault"
	"ccai/internal/obsv"
	"ccai/internal/pcie"
	"ccai/internal/xpu"
)

// observedPlatform is protectedPlatform with the observability layer
// enabled.
func observedPlatform(t *testing.T) *Platform {
	t.Helper()
	p, err := New(WithXPU(xpu.A100), WithMode(Protected), WithObserve())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EstablishTrust(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// timelineNames exports the timeline and returns the set of event
// names, plus the raw JSON for content assertions.
func timelineNames(t *testing.T, p *Platform) (map[string]bool, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	names := make(map[string]bool)
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
	}
	return names, buf.Bytes()
}

func TestTimelineCoversPipeline(t *testing.T) {
	p := observedPlatform(t)
	out, err := p.RunTask(Task{Input: secret, Kernel: KernelXOR, Param: 0x5a})
	if err != nil {
		t.Fatal(err)
	}
	for i := range secret {
		if out[i] != secret[i]^0x5a {
			t.Fatalf("byte %d wrong under observation", i)
		}
	}

	names, export := timelineNames(t, p)
	// The acceptance chain classify → seal → DMA → tag-match → open,
	// plus the stages around it.
	for _, want := range []string{
		"establish_trust", "run_task", // session/task API
		"classify",     // pcie-sc/filter
		"seal", "open", // secmem, both ends
		"dma_read", "dma_write", // xpu DMA
		"tag_match",                // core MAC lookup
		"submit",                   // tvm driver
		"stage_h2d", "collect_d2h", // adaptor staging
		"pump", "exec", // device execution
	} {
		if !names[want] {
			t.Fatalf("timeline missing %q span; have %v", want, names)
		}
	}

	// Spans recorded during the task carry its task ID.
	var classifyInTask bool
	for _, sp := range p.Observability().T().Spans() {
		if sp.Name == "classify" && sp.Task != 0 {
			classifyInTask = true
		}
	}
	if !classifyInTask {
		t.Fatal("no classify span carries a task ID")
	}

	// Confidentiality: the export and the metrics must be publishable.
	if bytes.Contains(export, secret) {
		t.Fatal("timeline export contains the plaintext secret")
	}
	metricsText := p.MetricsSnapshot().RenderText()
	if strings.Contains(metricsText, string(secret)) {
		t.Fatal("metrics text contains the plaintext secret")
	}
	var aggregates int
	for _, sp := range p.Observability().T().Spans() {
		for _, a := range sp.Attrs() {
			if strings.Contains(a.Val(), string(secret)) || strings.Contains(a.Key, string(secret)) {
				t.Fatalf("span %s attr %s leaks the secret", sp.Name, a.Key)
			}
		}
		// The aggregate that stands for the result's chunk writes carries
		// counts, ids and the verdict — a closed list, so nothing derived
		// from what was written can ride along.
		if sp.Name == "encrypt_write" {
			aggregates++
			var keys []string
			for _, a := range sp.Attrs() {
				keys = append(keys, a.Key)
			}
			if got := strings.Join(keys, " "); got != "region chunk chunks bytes action rule" {
				t.Fatalf("encrypt_write attributes are %q", got)
			}
		}
	}
	if aggregates == 0 {
		t.Fatal("no encrypt_write span: the result's write span went unrecorded")
	}
	// Neither does anything the process ever interned.
	for i := 0; i < obsv.SymbolCount(); i++ {
		if strings.Contains(obsv.Sym(i).String(), string(secret)) {
			t.Fatalf("symbol %d holds the secret", i)
		}
	}

	c := p.MetricsSnapshot().Counters
	if c["sc.decrypted_chunks"] == 0 || c["sc.encrypted_chunks"] == 0 {
		t.Fatal("protected task decrypted/encrypted nothing; test vacuous")
	}
	if c[obsv.Name("task.runs", "mode", "ccAI", "status", "ok")] != 1 {
		t.Fatalf("task.runs counter wrong: %v", c)
	}
}

func TestTimelineShowsFaultRecovery(t *testing.T) {
	p := observedPlatform(t)
	inj := fault.NewInjector(fault.Plan{Seed: matrixSeeds[0], Events: []fault.Event{{Class: fault.DoorbellHang, Count: 1}}})
	inj.SetObserver(p.Obs)
	p.Device.SetFaultHook(inj.DeviceFault)

	out, err := p.RunTask(Task{Input: taskInput(), Kernel: KernelXOR, Param: 0x5a})
	if err != nil {
		t.Fatalf("single doorbell hang must be recoverable: %v", err)
	}
	if in := taskInput(); out[0] != in[0]^0x5a {
		t.Fatal("recovered task produced wrong data")
	}

	names, _ := timelineNames(t, p)
	for _, want := range []string{"fault_injected", "doorbell_hang", "recovery.repost_tags", "kick"} {
		if !names[want] {
			t.Fatalf("fault-run timeline missing %q; have %v", want, names)
		}
	}
	c := p.MetricsSnapshot().Counters
	if got := c[obsv.Name("fault.fired", "class", fault.DoorbellHang.String())]; got != 1 {
		t.Fatalf("fault.fired = %d, want 1", got)
	}
	if c["xpu.doorbell_hangs"] != 1 || c["driver.kicks"] != 1 {
		t.Fatalf("hang/kick counters wrong: hangs=%d kicks=%d",
			c["xpu.doorbell_hangs"], c["driver.kicks"])
	}
}

// TestRecoveryRungMetricsExactlyOnce injects one fault per recovery
// rung under a fixed matrix seed and asserts the rung's metric
// increments exactly once.
func TestRecoveryRungMetricsExactlyOnce(t *testing.T) {
	seed := matrixSeeds[0]
	run := func(t *testing.T, p *Platform) {
		t.Helper()
		out, err := p.RunTask(Task{Input: taskInput(), Kernel: KernelXOR, Param: 0x5a})
		if err != nil {
			t.Fatalf("single fault must be recoverable: %v", err)
		}
		if in := taskInput(); out[0] != in[0]^0x5a {
			t.Fatal("recovered task produced wrong data")
		}
	}

	t.Run("crypto_retry", func(t *testing.T) {
		p := observedPlatform(t)
		inj := fault.NewInjector(fault.Plan{Seed: seed, Events: []fault.Event{{Class: fault.CryptoTransient, Count: 1}}})
		inj.SetObserver(p.Obs)
		p.Adaptor.InstallCryptoFault(inj.CryptoFault)
		run(t, p)
		c := p.MetricsSnapshot().Counters
		if c["adaptor.recovery.crypto_retries"] != 1 {
			t.Fatalf("crypto_retries = %d, want exactly 1", c["adaptor.recovery.crypto_retries"])
		}
		if c["adaptor.recovery.recovered"] != 1 {
			t.Fatalf("recovered = %d, want exactly 1", c["adaptor.recovery.recovered"])
		}
		if c["adaptor.recovery.fail_closed"] != 0 || c["adaptor.recovery.exhausted"] != 0 {
			t.Fatal("recoverable fault must not exhaust or fail closed")
		}
	})

	t.Run("tag_repost", func(t *testing.T) {
		p := observedPlatform(t)
		inj := fault.NewInjector(fault.Plan{Seed: seed, Events: []fault.Event{{Class: fault.TagLoss, Count: 1}}})
		inj.SetObserver(p.Obs)
		p.SC.SetTagFaultHook(inj.TagFault)
		run(t, p)
		c := p.MetricsSnapshot().Counters
		if c["adaptor.recovery.reposts"] != 1 {
			t.Fatalf("reposts = %d, want exactly 1", c["adaptor.recovery.reposts"])
		}
		if c["sc.tags.dropped_by_fault"] != 1 {
			t.Fatalf("tags dropped = %d, want exactly 1", c["sc.tags.dropped_by_fault"])
		}
	})

	t.Run("stale_suppressed", func(t *testing.T) {
		// Completion reaping serves Head() from host memory, so the
		// steady-state task issues no MMIO reads at all and the
		// stale-completion rung has nothing to suppress. Pin the rung on
		// the read the Adaptor still issues itself: a device register
		// read through the SC window.
		p := observedPlatform(t)
		// Two firings: the first stashes a completion (a timeout), the
		// second delivers it in place of a newer one — a stale tag the
		// adaptor must suppress exactly once.
		// Aimed at register reads: the SC's submission-ring fetches retry
		// stale completions internally and would swallow both firings
		// before the Adaptor ever reads.
		inj := fault.NewInjector(fault.Plan{Seed: seed, Events: []fault.Event{{Class: fault.StaleCompletion, Role: pcie.RoleRegRead, Count: 2}}})
		inj.SetObserver(p.Obs)
		p.Host.AddTap(inj)
		if _, err := p.Adaptor.DeviceRead(xpu.RegStatus); err != nil {
			t.Fatalf("single fault must be recoverable: %v", err)
		}
		c := p.MetricsSnapshot().Counters
		if c["adaptor.recovery.stale_suppressed"] != 1 {
			t.Fatalf("stale_suppressed = %d, want exactly 1", c["adaptor.recovery.stale_suppressed"])
		}
		if c["adaptor.recovery.retries"] == 0 {
			t.Fatal("stale completions must cost retries")
		}
	})
}

// TestFailClosedTeardownMetrics hangs every doorbell so the recovery
// ladder exhausts and the session must fail closed — exactly once, with
// the teardown visible in both metrics and the timeline.
func TestFailClosedTeardownMetrics(t *testing.T) {
	p := observedPlatform(t)
	inj := fault.NewInjector(fault.Plan{Seed: matrixSeeds[0], Events: []fault.Event{{Class: fault.DoorbellHang, Count: 16}}})
	inj.SetObserver(p.Obs)
	p.Device.SetFaultHook(inj.DeviceFault)

	if _, err := p.RunTask(Task{Input: taskInput(), Kernel: KernelXOR, Param: 0x5a}); err == nil {
		t.Fatal("permanently hung doorbell must fail the task")
	}
	if p.trusted {
		t.Fatal("session still trusted after fail-closed teardown")
	}
	c := p.MetricsSnapshot().Counters
	if c["adaptor.recovery.fail_closed"] != 1 {
		t.Fatalf("fail_closed = %d, want exactly 1", c["adaptor.recovery.fail_closed"])
	}
	if c["sc.teardowns"] == 0 {
		t.Fatal("SC never saw the teardown")
	}
	if c[obsv.Name("task.runs", "mode", "ccAI", "status", "error")] != 1 {
		t.Fatalf("task.runs error counter wrong: %v", c)
	}
	names, _ := timelineNames(t, p)
	for _, want := range []string{"recovery.fail_closed", "teardown"} {
		if !names[want] {
			t.Fatalf("fail-closed timeline missing %q", want)
		}
	}
}

// TestMetricsSumTenantAccessors: a chassis's tenants share one hub, so a
// component count reads as the sum of the tenants' accessors — and
// counts from when the components were built, so traffic before Observe
// is in it too.
func TestMetricsSumTenantAccessors(t *testing.T) {
	mp := servingPlatform(t, 2)
	if _, err := mp.Tenants[0].RunTask(schedTask(1, 4096)); err != nil {
		t.Fatal(err)
	}
	mp.Observe()
	if _, err := mp.Tenants[1].RunTask(schedTask(2, 4096)); err != nil {
		t.Fatal(err)
	}
	var writes, decrypted uint64
	for i, tn := range mp.Tenants {
		w, d := tn.Adaptor.IO().MMIOWrites, tn.SC.Stats().DecryptedChunks
		if w == 0 || d == 0 {
			t.Fatalf("tenant %d: %d MMIO writes, %d decrypted chunks; test vacuous", i, w, d)
		}
		writes += w
		decrypted += d
	}
	c := mp.MetricsSnapshot().Counters
	if c["adaptor.mmio.writes"] != writes || c["sc.decrypted_chunks"] != decrypted {
		t.Fatalf("adaptor.mmio.writes = %d, sc.decrypted_chunks = %d; tenants' accessors sum to %d, %d",
			c["adaptor.mmio.writes"], c["sc.decrypted_chunks"], writes, decrypted)
	}
}

// TestSnapshotDuringServing scrapes the registry in a loop while a
// two-tenant Scheduler runs tasks. A snapshot takes each component's
// lock briefly, so under -race it must neither race nor deadlock, and a
// count it reads never goes backwards.
func TestSnapshotDuringServing(t *testing.T) {
	mp := servingPlatform(t, 2)
	mp.Observe()
	var tasks []TenantTask
	for i := 0; i < 16; i++ {
		tasks = append(tasks, TenantTask{Tenant: i % 2, Task: schedTask(byte(i+1), 1024)})
	}
	// The scraper signals its first snapshot before the batch starts and
	// checks stop only after each snapshot, so at least one completes
	// however the goroutines are scheduled.
	stop, started, scrapes := make(chan struct{}), make(chan struct{}), make(chan int)
	go func() {
		var n int
		var prev uint64
		for {
			got := mp.MetricsSnapshot().Counters["sc.decrypted_chunks"]
			if got < prev {
				t.Errorf("sc.decrypted_chunks went back from %d to %d", prev, got)
			}
			if prev, n = got, n+1; n == 1 {
				close(started)
			}
			select {
			case <-stop:
				scrapes <- n
				return
			default:
			}
		}
	}()
	<-started
	results := runBatch(batchScheduler(t, mp, len(tasks)), tasks)
	close(stop)
	if n := <-scrapes; n == 0 {
		t.Fatal("no scrape completed while serving")
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("task %d: %v", i, res.Err)
		}
		checkXOR(t, tasks[i].Task.Input, res.Output)
	}
}

// TestObservabilityOffIsInert pins the zero-cost contract at the API
// level: without WithObserve the hub is nil, exports refuse, and the
// snapshot is empty — while the task still runs.
func TestObservabilityOffIsInert(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	if p.Observability() != nil {
		t.Fatal("hub exists without WithObserve")
	}
	if _, err := p.RunTask(Task{Input: []byte("plain run"), Kernel: KernelAdd, Param: 1}); err != nil {
		t.Fatal(err)
	}
	if n := len(p.MetricsSnapshot().Counters); n != 0 {
		t.Fatalf("disabled platform recorded %d counters", n)
	}
	var buf bytes.Buffer
	if err := p.WriteTimeline(&buf); err == nil {
		t.Fatal("WriteTimeline must refuse when observability is off")
	}
}
