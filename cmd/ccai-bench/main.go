// Command ccai-bench regenerates every table and figure of the paper's
// evaluation section on the simulated platform:
//
//	ccai-bench                  # everything
//	ccai-bench -only fig8       # one experiment (table1..3, fig8..fig12b)
//	ccai-bench -only micro      # just the end-to-end micro-benchmarks
//	ccai-bench -src /path/repo  # repository root for Table 3 LoC counts
//
// Alongside the human tables it writes BENCH_results.json — wall-clock
// micro-benchmarks of the real simulated pipeline (not the analytical
// timing model) — so the perf trajectory is machine-trackable across
// revisions. Disable with -out "".
//
// The soak harness rides the same results file:
//
//	ccai-bench -only soak -soak smoke   # CI storm, scorecard under "soak"
//	ccai-bench -soak all                # smoke + full presets
//	ccai-bench -only soak -soak smoke -soak-compare BENCH_results.json
//
// Soak scorecards are deterministic (virtual time only), so -soak-compare
// demands byte equality against the committed baseline, unlike the
// tolerance-based -compare used for wall-clock numbers.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"ccai"
	"ccai/internal/bench"
	"ccai/internal/llm"
	"ccai/internal/soak"
	"ccai/internal/telemetry"
	"ccai/internal/xpu"
)

func main() {
	only := flag.String("only", "", "run one experiment: table1,table2,table3,fig8,fig9,fig10,fig11,fig12a,fig12b,ablations,serving,breakdown,h100,decomposition,micro,soak")
	src := flag.String("src", ".", "repository root for Table 3 LoC measurement")
	out := flag.String("out", "BENCH_results.json", "machine-readable micro-benchmark results path (empty disables)")
	compare := flag.String("compare", "", "baseline BENCH_results.json to diff against; exits non-zero on >10% ns/op regression (p50/p99 get 25%/50% bands)")
	checkAllocsFlag := flag.Bool("check-allocs", false, "hard-gate task/ccAI/64KiB allocations (exit 3 when over the ceiling)")
	soakArg := flag.String("soak", "", "run the soak harness: smoke, full, or all; scorecards merge into -out under \"soak\"")
	soakCompare := flag.String("soak-compare", "", "baseline BENCH_results.json whose soak scorecards must match byte-for-byte")
	serveTel := flag.Bool("serve-telemetry", false, "attach the live telemetry plane to benchmark chassis and print scrape URLs to stderr")
	flag.Parse()

	cm := bench.Defaults()
	want := func(name string) bool {
		return *only == "" || strings.EqualFold(*only, name)
	}
	fail := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "ccai-bench: %s: %v\n", name, err)
		os.Exit(1)
	}

	if want("table1") {
		fmt.Println(bench.RenderTable1(bench.Table1Categorization()))
	}
	if want("table2") {
		checks := bench.Table2Checks(true, true, true, true)
		fmt.Println(bench.RenderTable2(bench.Table2Compatibility(), checks))
	}
	if want("table3") {
		rows, err := bench.Table3TCB(*src)
		if err != nil {
			fail("table3", err)
		}
		fmt.Println(bench.RenderTable3(rows))
	}
	if want("fig8") {
		fb, err := bench.Figure8FixBatch(cm)
		if err != nil {
			fail("fig8", err)
		}
		fmt.Println(bench.RenderFig8("Figure 8a/c/e — fix-batch sweep (Llama-2-7B, A100, batch 1)", fb))
		ft, err := bench.Figure8FixToken(cm)
		if err != nil {
			fail("fig8", err)
		}
		fmt.Println(bench.RenderFig8("Figure 8b/d/f — fix-token sweep (Llama-2-7B, A100, 128 tokens)", ft))
	}
	if want("fig9") {
		rows, err := bench.Figure9Models(cm)
		if err != nil {
			fail("fig9", err)
		}
		fmt.Println(bench.RenderFig9(rows))
	}
	if want("fig10") {
		rows, err := bench.Figure10XPUs(cm)
		if err != nil {
			fail("fig10", err)
		}
		fmt.Println(bench.RenderFig10(rows))
	}
	if want("fig11") {
		tok, bat, err := bench.Figure11Optimization(cm)
		if err != nil {
			fail("fig11", err)
		}
		fmt.Println(bench.RenderFig11(tok, bat))
	}
	if want("fig12a") {
		rows, err := bench.Figure12aBandwidth(cm)
		if err != nil {
			fail("fig12a", err)
		}
		fmt.Println(bench.RenderFig12a(rows))
	}
	if want("decomposition") {
		rows, err := bench.Figure11Decomposition(cm)
		if err != nil {
			fail("decomposition", err)
		}
		fmt.Println(bench.RenderDecomposition(rows))
	}
	if want("h100") {
		rows, err := bench.H100Comparison(cm)
		if err != nil {
			fail("h100", err)
		}
		fmt.Println(bench.RenderH100Comparison(rows))
	}
	if want("breakdown") {
		w := bench.Workload{Device: xpu.A100, Session: llm.Session{
			Model: llm.Llama2_7B, PromptTokens: 512, GenTokens: 512, Batch: 1}}
		var rows []bench.Breakdown
		for _, prot := range []bench.Protection{bench.VanillaMode, bench.CCAI, bench.CCAINoOpt} {
			b, err := bench.Explain(w, prot, cm)
			if err != nil {
				fail("breakdown", err)
			}
			rows = append(rows, b)
		}
		fmt.Println(bench.RenderBreakdown(rows))
	}
	if want("serving") {
		rows, err := bench.ServingExperiment(cm, []float64{0.25, 0.5, 1.0, 1.5, 1.8})
		if err != nil {
			fail("serving", err)
		}
		fmt.Println(bench.RenderServing(rows))
	}
	if want("ablations") {
		out, err := bench.RenderAblations(cm)
		if err != nil {
			fail("ablations", err)
		}
		fmt.Println(out)
	}
	if want("fig12b") {
		rows, err := bench.Figure12bKVCache(cm)
		if err != nil {
			fail("fig12b", err)
		}
		fmt.Println(bench.RenderFig12b(rows))
	}
	if want("micro") && *out != "" {
		results, err := microBench(*serveTel)
		if err != nil {
			fail("micro", err)
		}
		// Diff against the baseline before writing: -compare and -out
		// may name the same file, and the comparison must see the old
		// numbers, not the ones we are about to write.
		code, report := 0, ""
		if *compare != "" {
			code, report = compareResults(*compare, results)
		}
		if *checkAllocsFlag {
			acode, areport := checkAllocs(results)
			report += areport
			if acode != 0 {
				code = acode // alloc gate outranks timing regressions
			}
		}
		if err := writeResults(*out, results); err != nil {
			fail("micro", err)
		}
		fmt.Println(renderMicro(*out, results))
		if report != "" {
			fmt.Print(report)
		}
		if code != 0 {
			os.Exit(code)
		}
	}
	if *soakArg != "" {
		var presets []soak.Config
		switch strings.ToLower(*soakArg) {
		case "smoke":
			presets = []soak.Config{soak.Smoke()}
		case "full":
			presets = []soak.Config{soak.Full()}
		case "all":
			presets = []soak.Config{soak.Smoke(), soak.Full()}
		default:
			fail("soak", fmt.Errorf("unknown preset %q (want smoke, full or all)", *soakArg))
		}
		code := 0
		for _, cfg := range presets {
			sc, err := soak.Run(cfg)
			if err != nil {
				fail("soak", err)
			}
			fmt.Printf("soak/%s scorecard:\n%s", cfg.Preset, sc.Marshal())
			if !sc.WithinBudgets {
				fmt.Fprintf(os.Stderr, "ccai-bench: soak/%s breached its SLO budgets or oracles\n", cfg.Preset)
				code = 1
			}
			if *soakCompare != "" {
				if err := diffSoak(*soakCompare, cfg.Preset, sc); err != nil {
					fmt.Fprintf(os.Stderr, "ccai-bench: soak-compare: %v\n", err)
					code = 1
				} else {
					fmt.Printf("soak/%s scorecard matches baseline %s byte-for-byte\n", cfg.Preset, *soakCompare)
				}
			}
			if *out != "" {
				if err := mergeSoak(*out, cfg.Preset, sc); err != nil {
					fail("soak", err)
				}
			}
		}
		if code != 0 {
			os.Exit(code)
		}
	}
}

// benchResult is one BENCH_results.json entry, mirroring testing.B's
// headline numbers so external tooling can diff runs. Task benchmarks
// additionally carry the per-iteration latency distribution's p50/p99
// so tail regressions are visible even when the mean holds steady.
type benchResult struct {
	Name         string  `json:"name"`
	NsPerOp      float64 `json:"ns_per_op"`
	P50Ns        float64 `json:"p50_ns,omitempty"`
	P99Ns        float64 `json:"p99_ns,omitempty"`
	BytesPerOp   uint64  `json:"bytes_per_op"`
	AllocsPerOp  uint64  `json:"allocs_per_op"`
	Iterations   int     `json:"iterations"`
	TokensPerSec float64 `json:"tokens_per_sec,omitempty"`
}

// allocs samples the cumulative heap-allocation count; the delta of two
// samples over a timed loop gives allocs_per_op.
func allocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// microIters bounds each micro-benchmark's sample count. Large enough
// that one scheduler preemption on a shared host does not swing the
// mean by double-digit percent (at 8 iters a single 5 ms stall read as
// +600 µs/op); still a trajectory tracker, not a statistics engine.
const microIters = 64

// microBench times the real end-to-end pipeline (wall clock, not the
// timing model): vanilla vs. protected task execution at two transfer
// sizes, the protected path with observability on — the number the
// overhead acceptance criterion watches — and with the full telemetry
// plane attached (live HTTP scrape endpoint, audit log, SLO monitors),
// the number proving the plane stays within the observability budget.
func microBench(serveTel bool) ([]benchResult, error) {
	type cfg struct {
		name      string
		mode      ccai.Mode
		observe   bool
		telemetry bool
		size      int
	}
	cases := []cfg{
		{"task/vanilla/4KiB", ccai.Vanilla, false, false, 4 << 10},
		{"task/vanilla/64KiB", ccai.Vanilla, false, false, 64 << 10},
		{"task/ccAI/4KiB", ccai.Protected, false, false, 4 << 10},
		{"task/ccAI/64KiB", ccai.Protected, false, false, 64 << 10},
		{"task/ccAI-observed/64KiB", ccai.Protected, true, false, 64 << 10},
		{"task/ccAI-telemetry/64KiB", ccai.Protected, true, true, 64 << 10},
	}
	var results []benchResult
	for _, c := range cases {
		opts := []ccai.Option{ccai.WithMode(c.mode)}
		if c.observe {
			opts = append(opts, ccai.WithObserve())
		}
		if c.telemetry {
			opts = append(opts, ccai.WithTelemetry(telemetry.Options{}))
		}
		plat, err := ccai.New(opts...)
		if err != nil {
			return nil, err
		}
		if serveTel && c.telemetry {
			fmt.Fprintf(os.Stderr, "ccai-bench: %s serving live at %s (admin token %s)\n",
				c.name, plat.Telemetry().URL(), plat.Telemetry().AdminToken())
		}
		if err := plat.EstablishTrust(); err != nil {
			plat.Close()
			return nil, err
		}
		input := make([]byte, c.size)
		for i := range input {
			input[i] = byte(i)
		}
		task := ccai.Task{Input: input, Kernel: ccai.KernelXOR, Param: 0x5a}
		if _, err := plat.RunTask(task); err != nil { // warm-up
			plat.Close()
			return nil, err
		}
		samples := make([]time.Duration, microIters)
		m0 := allocs()
		start := time.Now()
		for i := 0; i < microIters; i++ {
			t0 := time.Now()
			if _, err := plat.RunTask(task); err != nil {
				plat.Close()
				return nil, err
			}
			samples[i] = time.Since(t0)
		}
		elapsed := time.Since(start)
		m1 := allocs()
		plat.Close()
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		results = append(results, benchResult{
			Name:        c.name,
			NsPerOp:     float64(elapsed.Nanoseconds()) / microIters,
			P50Ns:       float64(samples[microIters*50/100].Nanoseconds()),
			P99Ns:       float64(samples[microIters*99/100].Nanoseconds()),
			BytesPerOp:  uint64(c.size),
			AllocsPerOp: (m1 - m0) / microIters,
			Iterations:  microIters,
		})
	}
	serving, err := servingBench()
	if err != nil {
		return nil, err
	}
	results = append(results, serving...)
	scheduled, err := scheduledBench(serveTel)
	if err != nil {
		return nil, err
	}
	results = append(results, scheduled...)
	llmRows, err := llmBench()
	if err != nil {
		return nil, err
	}
	return append(results, llmRows...), nil
}

// servingBench measures aggregate multi-tenant throughput: the same
// task mix executed serialized (one tenant at a time) and concurrently
// through MultiPlatform.RunTasks. The concurrent number divided by the
// serialized one is the serving engine's scaling factor; it only
// exceeds 1 when GOMAXPROCS allows the per-tenant pipelines to overlap.
func servingBench() ([]benchResult, error) {
	const tenants = 4
	const size = 64 << 10
	profiles := make([]xpu.Profile, tenants)
	for i := range profiles {
		profiles[i] = xpu.A100
	}
	mp, err := ccai.NewMultiPlatform(profiles)
	if err != nil {
		return nil, err
	}
	defer mp.Close()
	if err := mp.EstablishTrustAll(); err != nil {
		return nil, err
	}
	input := make([]byte, size)
	for i := range input {
		input[i] = byte(i)
	}
	var tasks []ccai.TenantTask
	for i := 0; i < microIters; i++ {
		for tn := 0; tn < tenants; tn++ {
			tasks = append(tasks, ccai.TenantTask{Tenant: tn, Task: ccai.Task{Input: input, Kernel: ccai.KernelXOR, Param: 0x5a}})
		}
	}
	// Warm-up: one task per tenant.
	for tn := 0; tn < tenants; tn++ {
		if _, err := mp.Tenants[tn].RunTask(tasks[tn].Task); err != nil {
			return nil, err
		}
	}

	m0 := allocs()
	start := time.Now()
	for _, tt := range tasks {
		if _, err := mp.Tenants[tt.Tenant].RunTask(tt.Task); err != nil {
			return nil, err
		}
	}
	serialized := time.Since(start)
	m1 := allocs()

	start = time.Now()
	for _, res := range mp.RunTasks(tasks) {
		if res.Err != nil {
			return nil, res.Err
		}
	}
	concurrent := time.Since(start)
	m2 := allocs()

	n := float64(len(tasks))
	nu := uint64(len(tasks))
	return []benchResult{
		{Name: "serve/4-tenant/serialized/64KiB", NsPerOp: float64(serialized.Nanoseconds()) / n, BytesPerOp: size, AllocsPerOp: (m1 - m0) / nu, Iterations: len(tasks)},
		{Name: "serve/4-tenant/concurrent/64KiB", NsPerOp: float64(concurrent.Nanoseconds()) / n, BytesPerOp: size, AllocsPerOp: (m2 - m1) / nu, Iterations: len(tasks)},
	}, nil
}

// scheduledBench measures sustained offered load through the v2
// Scheduler: four tenants, 64 KiB protected tasks, every request
// admitted up front (queues sized to the run) and dispatched under
// weighted-fair scheduling. It reports end-to-end ns/op for the run
// and the p99 queue wait — the admission-to-dispatch latency tail the
// serving scheduler is supposed to keep bounded.
func scheduledBench(serveTel bool) ([]benchResult, error) {
	const tenants = 4
	const size = 64 << 10
	profiles := make([]xpu.Profile, tenants)
	for i := range profiles {
		profiles[i] = xpu.A100
	}
	var options []ccai.Option
	if serveTel {
		options = append(options, ccai.WithTelemetry(telemetry.Options{}))
	}
	mp, err := ccai.NewMultiPlatform(profiles, options...)
	if err != nil {
		return nil, err
	}
	defer mp.Close()
	if serveTel {
		fmt.Fprintf(os.Stderr, "ccai-bench: serve/4-tenant/scheduled serving live at %s (admin token %s)\n",
			mp.Telemetry().URL(), mp.Telemetry().AdminToken())
	}
	if err := mp.EstablishTrustAll(); err != nil {
		return nil, err
	}
	input := make([]byte, size)
	for i := range input {
		input[i] = byte(i)
	}
	task := ccai.Task{Input: input, Kernel: ccai.KernelXOR, Param: 0x5a}
	for tn := 0; tn < tenants; tn++ { // warm-up
		if _, err := mp.Tenants[tn].RunTask(task); err != nil {
			return nil, err
		}
	}
	s, err := mp.NewScheduler(ccai.SchedulerConfig{QueueDepth: microIters})
	if err != nil {
		return nil, err
	}
	defer s.Shutdown(context.Background())

	total := microIters * tenants
	handles := make([]*ccai.Handle, 0, total)
	m0 := allocs()
	start := time.Now()
	for i := 0; i < microIters; i++ {
		for tn := 0; tn < tenants; tn++ {
			h, err := s.Submit(context.Background(), ccai.TenantTask{Tenant: tn, Task: task})
			if err != nil {
				return nil, err
			}
			handles = append(handles, h)
		}
	}
	waits := make([]time.Duration, 0, total)
	for _, h := range handles {
		if _, err := h.Result(); err != nil {
			return nil, err
		}
		waits = append(waits, h.QueueWait())
	}
	elapsed := time.Since(start)
	m1 := allocs()

	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	p99 := waits[(len(waits)*99)/100]
	n := float64(total)
	return []benchResult{
		{Name: "serve/4-tenant/scheduled/64KiB", NsPerOp: float64(elapsed.Nanoseconds()) / n, BytesPerOp: size, AllocsPerOp: (m1 - m0) / uint64(total), Iterations: total},
		{Name: "serve/scheduled/p99-queue-wait", NsPerOp: float64(p99.Nanoseconds()), BytesPerOp: size, Iterations: total},
	}, nil
}

// llmSessions is the timed session count per llmBench case; with 64 new
// tokens per session that is 512 timed tokens per row, enough to
// amortize the one-off prefill/KV staging into a stable per-token mean.
const llmSessions = 8

// llmBench measures the token-level serving path on two xpu profiles:
// a protected streaming InferenceSession (KV sealed and staged once at
// prefill, every decode chunk through the sealed ring datapath) against
// a vanilla platform moving the same wire payloads — one KV-sized
// transfer plus one chunk-span task per decode step — with no crypto.
// It reports per-token ns, tokens/sec, and (via overheadRatios) the
// ccAI/vanilla per-token ratio the LLM-serving acceptance bar watches.
func llmBench() ([]benchResult, error) {
	cfg := llm.Config{MaxNewTokens: 64, ChunkTokens: 8, MaxPromptTokens: 16}
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	tokens := llmSessions * cfg.MaxNewTokens
	kvBytes := cfg.KVBytes(cfg.MaxPromptTokens)
	spans := make([]int, cfg.Chunks())
	wire := kvBytes // per-session wire bytes: KV once + ids up/tokens down per chunk
	for i := range spans {
		spans[i] = cfg.ChunkSpan(i)
		wire += 2 * int64(spans[i])
	}
	var results []benchResult
	for _, p := range []xpu.Profile{xpu.A100, xpu.T4} {
		ccElapsed, ccAllocs, err := llmProtected(p, cfg)
		if err != nil {
			return nil, fmt.Errorf("llm/ccAI/%s: %w", p.Name, err)
		}
		vanElapsed, vanAllocs, err := llmVanilla(p, kvBytes, spans)
		if err != nil {
			return nil, fmt.Errorf("llm/vanilla/%s: %w", p.Name, err)
		}
		perTokenBytes := uint64(wire) / uint64(cfg.MaxNewTokens)
		results = append(results,
			benchResult{
				Name:         "llm/ccAI/" + p.Name + "/per-token",
				NsPerOp:      float64(ccElapsed.Nanoseconds()) / float64(tokens),
				BytesPerOp:   perTokenBytes,
				AllocsPerOp:  ccAllocs / uint64(tokens),
				Iterations:   tokens,
				TokensPerSec: float64(tokens) / ccElapsed.Seconds(),
			},
			benchResult{
				Name:         "llm/vanilla/" + p.Name + "/per-token",
				NsPerOp:      float64(vanElapsed.Nanoseconds()) / float64(tokens),
				BytesPerOp:   perTokenBytes,
				AllocsPerOp:  vanAllocs / uint64(tokens),
				Iterations:   tokens,
				TokensPerSec: float64(tokens) / vanElapsed.Seconds(),
			})
	}
	return results, nil
}

// llmProtected times llmSessions full streaming sessions (open, decode
// stream, prefill, drain, close) on a single-tenant protected chassis.
func llmProtected(p xpu.Profile, cfg llm.Config) (time.Duration, uint64, error) {
	mp, err := ccai.NewMultiPlatform([]xpu.Profile{p})
	if err != nil {
		return 0, 0, err
	}
	defer mp.Close()
	if err := mp.EstablishTrustAll(); err != nil {
		return 0, 0, err
	}
	prompt := []byte("ccai-bench llm per-token probe")
	run := func(seed uint64) error {
		c := cfg
		c.Seed = seed
		sess, err := mp.Tenants[0].OpenSession(context.Background(), c)
		if err != nil {
			return err
		}
		defer sess.Close()
		ch, err := sess.Decode(context.Background())
		if err != nil {
			return err
		}
		if err := sess.Prefill(context.Background(), prompt); err != nil {
			return err
		}
		for chunk := range ch {
			if chunk.Err != nil {
				return chunk.Err
			}
		}
		return nil
	}
	if err := run(0); err != nil { // warm-up
		return 0, 0, err
	}
	m0 := allocs()
	start := time.Now()
	for i := 0; i < llmSessions; i++ {
		if err := run(uint64(i + 1)); err != nil {
			return 0, 0, err
		}
	}
	return time.Since(start), allocs() - m0, nil
}

// llmVanilla times the unprotected baseline for the same session shape:
// per session one kvBytes task (the KV staging analogue) plus one task
// per decode chunk moving that chunk's span, all plain memcpy DMA.
func llmVanilla(p xpu.Profile, kvBytes int64, spans []int) (time.Duration, uint64, error) {
	plat, err := ccai.New(ccai.WithXPU(p), ccai.WithMode(ccai.Vanilla))
	if err != nil {
		return 0, 0, err
	}
	defer plat.Close()
	if err := plat.EstablishTrust(); err != nil {
		return 0, 0, err
	}
	tasks := make([]ccai.Task, 0, len(spans)+1)
	tasks = append(tasks, ccai.Task{Input: make([]byte, kvBytes), Kernel: ccai.KernelXOR, Param: 0x5a})
	for _, s := range spans {
		tasks = append(tasks, ccai.Task{Input: make([]byte, s), Kernel: ccai.KernelXOR, Param: 0x5a})
	}
	run := func() error {
		for _, tk := range tasks {
			if _, err := plat.RunTask(tk); err != nil {
				return err
			}
		}
		return nil
	}
	if err := run(); err != nil { // warm-up
		return 0, 0, err
	}
	m0 := allocs()
	start := time.Now()
	for i := 0; i < llmSessions; i++ {
		if err := run(); err != nil {
			return 0, 0, err
		}
	}
	return time.Since(start), allocs() - m0, nil
}

// benchDoc is the whole BENCH_results.json document: the wall-clock
// micro-benchmarks plus the deterministic soak scorecards, keyed by
// preset. Writers update only their own section, so regenerating the
// micro numbers keeps the committed scorecards and vice versa.
type benchDoc struct {
	Tool    string        `json:"tool"`
	Results []benchResult `json:"results,omitempty"`
	// Ratios is the per-scenario ccAI/vanilla ns-per-op overhead,
	// recomputed whenever the micro section is rewritten.
	Ratios map[string]float64         `json:"overhead_ratios,omitempty"`
	Soak   map[string]json.RawMessage `json:"soak,omitempty"`
}

// readDoc loads the existing results document; a missing or unreadable
// file yields an empty one.
func readDoc(path string) benchDoc {
	doc := benchDoc{Tool: "ccai-bench"}
	if data, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(data, &doc)
	}
	doc.Tool = "ccai-bench"
	return doc
}

func writeDoc(path string, doc benchDoc) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeResults(path string, results []benchResult) error {
	doc := readDoc(path)
	doc.Results = results
	doc.Ratios = overheadRatios(results)
	return writeDoc(path, doc)
}

// overheadRatios pairs each task/ccAI/<size> result with its vanilla
// twin and reports the protected/vanilla ns-per-op ratio per scenario —
// the paper's Figure 8 overhead metric on the wall-clock pipeline. The
// llm/ccAI/<profile>/per-token rows pair the same way, yielding the
// per-token LLM-serving overhead under llm/<profile>/per-token.
func overheadRatios(results []benchResult) map[string]float64 {
	byName := make(map[string]float64, len(results))
	for _, r := range results {
		byName[r.Name] = r.NsPerOp
	}
	out := make(map[string]float64)
	for name, ns := range byName {
		for _, pfx := range []string{"task/ccAI/", "llm/ccAI/"} {
			rest, ok := strings.CutPrefix(name, pfx)
			if !ok {
				continue
			}
			kind := strings.TrimSuffix(pfx, "ccAI/")
			if v := byName[kind+"vanilla/"+rest]; v > 0 && ns > 0 {
				out[kind+rest] = ns / v
			}
		}
	}
	return out
}

// mergeSoak installs one preset's scorecard into the document's soak
// section, preserving every other section.
func mergeSoak(path, preset string, sc soak.Scorecard) error {
	doc := readDoc(path)
	if doc.Soak == nil {
		doc.Soak = make(map[string]json.RawMessage)
	}
	doc.Soak[preset] = json.RawMessage(bytes.TrimRight(sc.Marshal(), "\n"))
	return writeDoc(path, doc)
}

// diffSoak holds a fresh scorecard to the committed baseline: identical
// seeds must reproduce identical bytes, so any drift — a count, a
// latency digit, a violation — is a failure, not a tolerance question.
func diffSoak(path, preset string, cur soak.Scorecard) error {
	doc := readDoc(path)
	raw, ok := doc.Soak[preset]
	if !ok {
		return fmt.Errorf("%s has no soak/%s baseline", path, preset)
	}
	base, err := soak.UnmarshalScorecard(raw)
	if err != nil {
		return fmt.Errorf("%s soak/%s: %v", path, preset, err)
	}
	want, got := base.Marshal(), cur.Marshal()
	if bytes.Equal(want, got) {
		return nil
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Errorf("soak/%s diverged from baseline at line %d:\n  baseline: %s\n  current:  %s",
				preset, i+1, strings.TrimSpace(wl[i]), strings.TrimSpace(gl[i]))
		}
	}
	return fmt.Errorf("soak/%s diverged from baseline (length %d vs %d lines)", preset, len(wl), len(gl))
}

func renderMicro(path string, results []benchResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "End-to-end micro-benchmarks (wall clock, %d iters, GOMAXPROCS=%d) -> %s\n",
		microIters, runtime.GOMAXPROCS(0), path)
	var serial, conc, plain, observed, telem float64
	for _, r := range results {
		fmt.Fprintf(&b, "  %-32s %14.0f ns/op %10d bytes/op %8d allocs/op", r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		if r.TokensPerSec > 0 {
			fmt.Fprintf(&b, " %9.0f tok/s", r.TokensPerSec)
		}
		b.WriteByte('\n')
		switch r.Name {
		case "serve/4-tenant/serialized/64KiB":
			serial = r.NsPerOp
		case "serve/4-tenant/concurrent/64KiB":
			conc = r.NsPerOp
		case "task/ccAI/64KiB":
			plain = r.NsPerOp
		case "task/ccAI-observed/64KiB":
			observed = r.NsPerOp
		case "task/ccAI-telemetry/64KiB":
			telem = r.NsPerOp
		}
	}
	if serial > 0 && conc > 0 {
		fmt.Fprintf(&b, "  serving speedup (serialized/concurrent): %.2fx\n", serial/conc)
	}
	if plain > 0 && observed > 0 && telem > 0 {
		fmt.Fprintf(&b, "  observability overhead at 64KiB: observe %+.1f%%, full telemetry plane %+.1f%%\n",
			(observed/plain-1)*100, (telem/plain-1)*100)
	}
	ratios := overheadRatios(results)
	names := make([]string, 0, len(ratios))
	for name := range ratios {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		note := ""
		if ratios[name] > ratioOverheadBand {
			note = fmt.Sprintf("  OVER BAND (%.1fx)", ratioOverheadBand)
		}
		fmt.Fprintf(&b, "  overhead ratio %-17s %.2fx ccAI/vanilla%s\n", name, ratios[name], note)
	}
	return b.String()
}

// regressionTolerance is the relative ns/op slowdown -compare treats as
// a regression. The latency tails get wider bands — a single scheduler
// preemption lands squarely in the p99 — so only gross tail blow-ups
// fail the run.
const (
	regressionTolerance = 0.10
	p50Tolerance        = 0.25
	p99Tolerance        = 0.50
)

// ratioOverheadBand is the advisory ceiling for the per-scenario
// ccAI/vanilla overhead ratio. The paper's 2x bar assumes a vanilla
// baseline that pays real PCIe DMA latencies; in this process-local
// simulation vanilla moves bytes by memcpy with zero crypto, while the
// protected path pays the full AES-GCM floor (~105 µs per 64 KiB
// task), so the honest measured ratios land between ~2.5x and ~5.5x
// run to run (the vanilla denominator is tens of microseconds and
// swings with host noise; fixed protocol costs dominate at 4 KiB).
// The band flags structural drift above that reality; it is a soft
// gate — reported loudly, never an exit failure — because the ratio's
// denominator is the noisiest number in the file. Absolute
// protected-path ns/op (the 10% band above) and the alloc ceiling are
// the hard gates.
const ratioOverheadBand = 8.0

// taskAllocCeiling is the -check-allocs hard gate for task/ccAI/64KiB,
// mirrored by TestTaskAllocBudget: 1817 (seed) -> 908 -> 480 after the
// overlapped-data-plane wave (measured ~330/op).
const taskAllocCeiling = 480

// checkAllocs enforces the hard allocation gate; unlike the tolerance
// comparisons this is not timing-sensitive, so it always fails loudly
// (dedicated exit code 3 lets CI treat it as a hard failure while
// keeping wall-clock regressions advisory).
func checkAllocs(results []benchResult) (int, string) {
	for _, r := range results {
		if r.Name != "task/ccAI/64KiB" {
			continue
		}
		if r.AllocsPerOp > taskAllocCeiling {
			return 3, fmt.Sprintf("ccai-bench: check-allocs: task/ccAI/64KiB allocates %d/op; hard ceiling is %d/op\n",
				r.AllocsPerOp, taskAllocCeiling)
		}
		return 0, fmt.Sprintf("check-allocs: task/ccAI/64KiB %d allocs/op within ceiling %d\n", r.AllocsPerOp, taskAllocCeiling)
	}
	return 3, "ccai-bench: check-allocs: no task/ccAI/64KiB result to gate\n"
}

// compareResults diffs the current run against a previously written
// BENCH_results.json. Every matched benchmark's delta is reported;
// exceeding regressionTolerance on ns/op makes the run fail (exit 1).
// allocs/op deltas are informational only: they are noisy at small
// iteration counts and gated by tests instead.
func compareResults(path string, cur []benchResult) (int, string) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 1, fmt.Sprintf("ccai-bench: compare: %v\n", err)
	}
	var doc struct {
		Results []benchResult `json:"results"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 1, fmt.Sprintf("ccai-bench: compare: %s: %v\n", path, err)
	}
	base := make(map[string]benchResult, len(doc.Results))
	for _, r := range doc.Results {
		base[r.Name] = r
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Comparison vs %s (regression = ns/op worse by >%.0f%%):\n", path, regressionTolerance*100)
	regressions := 0
	for _, r := range cur {
		// Soft SLO gate on the scheduled-serve latency tail: over budget
		// is reported loudly but does not fail the run, since absolute
		// wall time on a shared host is advisory (the soak's virtual
		// budgets are the hard ones).
		budgetNote := ""
		if r.Name == "serve/scheduled/p99-queue-wait" && r.NsPerOp > float64(soak.ScheduledP99WaitBudget) {
			budgetNote = fmt.Sprintf("  OVER BUDGET (SLO %d ms)", soak.ScheduledP99WaitBudget/int64(time.Millisecond))
		}
		old, ok := base[r.Name]
		if !ok || old.NsPerOp <= 0 {
			fmt.Fprintf(&b, "  %-32s %14.0f ns/op   (no baseline)%s\n", r.Name, r.NsPerOp, budgetNote)
			continue
		}
		delta := (r.NsPerOp - old.NsPerOp) / old.NsPerOp * 100
		mark := budgetNote
		if delta > regressionTolerance*100 {
			mark += "  REGRESSION"
			regressions++
		}
		// Tail bands: gate p50/p99 only when both runs carry them, with
		// tolerances wide enough that one preempted iteration cannot flake
		// the gate while a structural tail blow-up still fails it.
		tailNote := ""
		if old.P50Ns > 0 && r.P50Ns > 0 {
			d50 := (r.P50Ns - old.P50Ns) / old.P50Ns
			d99 := 0.0
			if old.P99Ns > 0 && r.P99Ns > 0 {
				d99 = (r.P99Ns - old.P99Ns) / old.P99Ns
			}
			tailNote = fmt.Sprintf("   p50 %+.0f%% p99 %+.0f%%", d50*100, d99*100)
			if d50 > p50Tolerance {
				mark += "  P50-REGRESSION"
				regressions++
			}
			if d99 > p99Tolerance {
				mark += "  P99-REGRESSION"
				regressions++
			}
		}
		allocNote := ""
		if old.AllocsPerOp > 0 || r.AllocsPerOp > 0 {
			allocNote = fmt.Sprintf("   allocs %d -> %d", old.AllocsPerOp, r.AllocsPerOp)
		}
		fmt.Fprintf(&b, "  %-32s %14.0f -> %12.0f ns/op  %+7.1f%%%s%s%s\n",
			r.Name, old.NsPerOp, r.NsPerOp, delta, tailNote, allocNote, mark)
	}
	// Soft ratio band: the ccAI/vanilla overhead per scenario, checked
	// against ratioOverheadBand. Advisory by design — the vanilla
	// denominator swings with host noise — so an excursion is shouted
	// but never fails the run.
	ratios := overheadRatios(cur)
	names := make([]string, 0, len(ratios))
	for name := range ratios {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		note := "within band"
		if ratios[name] > ratioOverheadBand {
			note = "OVER SOFT BAND (advisory)"
		}
		fmt.Fprintf(&b, "  overhead ratio %-17s %.2fx ccAI/vanilla (band %.1fx): %s\n",
			name, ratios[name], ratioOverheadBand, note)
	}
	if regressions > 0 {
		fmt.Fprintf(&b, "ccai-bench: %d benchmark(s) regressed beyond %.0f%% ns/op\n", regressions, regressionTolerance*100)
		return 1, b.String()
	}
	return 0, b.String()
}
