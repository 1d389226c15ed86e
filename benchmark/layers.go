package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ccai"
	"ccai/internal/llm"
	"ccai/internal/obsv"
	"ccai/internal/pcie"
	"ccai/internal/sched"
	"ccai/internal/secmem"
	"ccai/internal/sim"
	"ccai/internal/trace"
	"ccai/internal/tvm"
	"ccai/internal/xpu"
)

// layerShare is one obsv track/name's self time as a share of the
// traced run's op time.
type layerShare struct {
	Name  string  `json:"name"`
	Share float64 `json:"share_of_op"`
}

// countMetrics reports the count pass layer by layer. A metric that has
// no meaning on this workload (engine steps on a workload without
// sessions) is reported as 0.
func countMetrics(res *result, g *segment, countOps int, mdl model) {
	cnt := g.counts
	per := func(k counter) float64 { return cnt.per(k, countOps) }
	allocsPerOp, _ := res.get("allocs_per_op")
	res.put(perLayer, "adaptor.mmio_writes_per_op", per(cMMIOWrites), "count", 0)
	res.put(perLayer, "adaptor.mmio_reads_per_op", per(cMMIOReads), "count", 0)
	res.put(perLayer, "adaptor.descriptor_installs_per_op", per(cDescInstalls), "count", 0)
	res.put(perLayer, "adaptor.recoveries_per_kop", per(cRecoveries)*1000, "count", 0)
	res.put(perLayer, "pcie.tlps_per_op", per(cTLPs), "count", 0)
	res.put(perLayer, "pcie.wire_bytes_per_op", per(cPayloadBytes)+per(cTLPs)*pcie.HeaderOverhead, "B", 0)
	res.put(perLayer, "pcie.payload_bytes_per_op", per(cPayloadBytes), "B", 0)
	res.put(perLayer, "core.filter_protected_per_op", per(cFilterProtected), "count", 0)
	res.put(perLayer, "core.filter_verified_per_op", per(cFilterVerified), "count", 0)
	res.put(perLayer, "core.filter_passed_per_op", per(cFilterPassed), "count", 0)
	res.put(perLayer, "core.filter_dropped_per_op", per(cFilterDropped), "count", 0)
	res.put(perLayer, "core.sc_chunks_per_op", per(cSCChunks), "count", 0)
	res.put(perLayer, "core.sc_bytes_per_op", per(cSCBytes), "B", 0)
	hit := 0.0
	if cnt[cSpanReads] > 0 {
		hit = float64(cnt[cPrefetchHits]) / float64(cnt[cSpanReads])
	}
	res.put(perLayer, "core.prefetch_hit_ratio", hit, "ratio", 0)
	res.put(perLayer, "core.auth_failures", float64(cnt[cAuthFailures]), "count", 0)
	res.put(perLayer, "core.config_rejects", float64(cnt[cConfigRejects]), "count", 0)
	res.put(perLayer, "sched.rejected_per_kop", per(cSchedRejected)*1000, "count", 0)
	res.put(perLayer, "llm.steps_per_op", per(cLLMSteps), "count", 0)
	tlpsPerToken, allocsPerToken := 0.0, 0.0
	if g.tokensPerOp > 0 {
		tlpsPerToken = per(cTLPs) / float64(g.tokensPerOp)
		allocsPerToken = allocsPerOp / float64(g.tokensPerOp)
	}
	res.put(perLayer, "llm.tlps_per_token", tlpsPerToken, "count", 0)
	res.put(perLayer, "llm.allocs_per_token", allocsPerToken, "count", 0)
	res.put(perLayer, "llm.kv_stage_bytes_per_op", float64(g.kvBytes), "B", 0)
	res.put(perLayer, "obsv.spans_per_op", per(cSpans), "count", 0)
	res.put(perLayer, "bench.model_wire_us", mdl.wireUs, "vus", 0)
	res.put(perLayer, "bench.model_mmio_us", mdl.mmioUs, "vus", 0)
	res.put(perLayer, "bench.model_setup_us", mdl.setupUs, "vus", 0)
	res.put(perLayer, "bench.model_crypto_us", mdl.cryptoUs, "vus", 0)
	res.put(perLayer, "bench.sim_overhead_pct_llama7b_a100", g.sweep.llama7bA100, "%", 0)
}

// layerPhase is phase 3: the wall-clock per-layer numbers, after the
// window and outside every end-to-end metric, all taken in this one
// process: an untraced window as the base, the same window and the
// streamed sessions at two procs, the traced run and its overhead over the
// base, the decomposed op and the probes.
func layerPhase(cfg *runConfig, res *result, ref *refKernel, spansPerOp int) error {
	in, err := cfg.w.build(cfg.seed, buildOpts{flipOracle: cfg.flipOracle})
	if err != nil {
		return fmt.Errorf("layer chassis: %w", err)
	}
	defer in.close()
	ph := res.newPhase("layer-base")
	for i := 0; i < cfg.scaled(cfg.w.warmOps); i++ {
		_, err := in.op(i, nil)
		ph.record(err)
	}
	window := cfg.segmentWindow()
	base := measure(ref, int(window.Seconds()*float64(cfg.w.maxRate))+16, window,
		func(i int) (time.Duration, error) { return in.op(i, nil) })
	ph.addSample(&base)
	if base.failed == base.attempted {
		return fmt.Errorf("no op succeeded in the layer phase's untraced window: %v", base.firstErr)
	}
	// Plain ratios here, at two procs and in the traced run: the windows
	// are seconds apart, and only their quotients are reported.
	baseXref := base.xref()
	res.put(diagnostic, "run.layer_base_op_p50_xref", baseXref, "xref", len(base.lat))
	if err := twoProcs(cfg, res, ref, baseXref); err != nil {
		return err
	}

	if err := tracedRun(cfg, res, ref, baseXref, spansPerOp); err != nil {
		return err
	}

	// Decomposed op and probes, each on fixed seeded inputs.
	return probes(cfg, res, ref)
}

// twoProcs measures the workload once more at GOMAXPROCS 2, on a chassis
// built there (the Adaptor and the SC size their crypto pools from
// GOMAXPROCS): run.procs2_x is its plain op_p50_xref over that of the
// layer phase's window at the pinned proc count. A diagnostic — see
// README.md for why the gated numbers are taken at one proc.
//
// The streamed sessions run here too: time to first chunk and the gap
// between chunks as a consumer sees them that receives while Prefill is
// still running. It needs a proc of its own for that; on one proc it is
// scheduled when Prefill returns, and sees the first chunk when it sees
// the last.
func twoProcs(cfg *runConfig, res *result, ref *refKernel, baseXref float64) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ph := res.newPhase("two-procs")
	in, err := cfg.w.build(cfg.seed, buildOpts{flipOracle: cfg.flipOracle})
	if err != nil {
		return fmt.Errorf("two-proc chassis: %w", err)
	}
	defer in.close()
	for i := 0; i < cfg.scaled(cfg.w.warmOps); i++ {
		_, err := in.op(i, nil)
		ph.record(err)
	}
	window := cfg.segmentWindow()
	s := measure(ref, int(window.Seconds()*float64(cfg.w.maxRate))+16, window,
		func(i int) (time.Duration, error) { return in.op(i, nil) })
	ph.addSample(&s)
	if s.failed == s.attempted {
		return fmt.Errorf("no op succeeded at two procs: %v", s.firstErr)
	}
	res.put(perLayer, "run.procs2_x", s.xref()/baseXref, "x", len(s.lat))

	streamRef := time.Duration(0)
	if in.streamed != nil {
		st := in.streamed(max(cfg.scaled(probeIters), minProbeIters), ref)
		res.newPhase("streamed").addSample(&st)
		streamRef = quantile(st.ref, 0.5)
	}
	res.put(perLayer, "llm.ttft_p50_xref", ratio(quantile(in.ttft, 0.5), streamRef), "xref", len(in.ttft))
	res.put(perLayer, "llm.chunk_gap_p50_xref", ratio(quantile(in.gap, 0.5), streamRef), "xref", len(in.gap))
	return nil
}

// traceSpanLimit is the traced chassis's tracer buffer; spans are
// harvested and the buffer swapped before it fills, so none are dropped
// and the drop fast path never flatters the overhead.
const traceSpanLimit = 1 << 16

// tracedRun runs the workload again on a WithObserve() chassis whose
// tracer stamps wall-clock time. obsv.overhead_x is its op_p50_xref over
// that of the layer phase's untraced window, one process and one length
// of window for both; self time per obsv track/name comes from the
// first harvest, which is also written out with the benchmark's own
// spans as a Chrome trace.
func tracedRun(cfg *runConfig, res *result, ref *refKernel, baseXref float64, spansPerOp int) error {
	ph := res.newPhase("traced-run")
	in, err := cfg.w.build(cfg.seed, buildOpts{observe: true, flipOracle: cfg.flipOracle})
	if err != nil {
		return fmt.Errorf("traced chassis: %w", err)
	}
	defer in.close()
	tr := in.hub.T()
	base := time.Now()
	tr.SetClock(func() sim.Time { return sim.Time(time.Since(base)) })
	tr.SetLimit(traceSpanLimit)
	for i := 0; i < cfg.scaled(cfg.w.warmOps); i++ {
		_, err := in.op(i, nil)
		ph.record(err)
	}
	tr.Reset()

	harvestEvery := traceSpanLimit / 2 / spansPerOp
	if harvestEvery < 1 {
		harvestEvery = 1
	}
	own := newSpanRec(1<<16, base)
	var (
		first    []obsv.Span
		firstOps int
		dropped  uint64
		sinceOps int
	)
	window := cfg.segmentWindow()
	s := measure(ref, int(window.Seconds()*float64(cfg.w.maxRate))+16, window, func(i int) (time.Duration, error) {
		lat, err := in.op(i, own)
		if sinceOps++; sinceOps == harvestEvery {
			dropped += tr.Dropped()
			if first == nil {
				first, firstOps = tr.Spans(), sinceOps
			}
			tr.Reset()
			sinceOps = 0
		}
		return lat, err
	})
	ph.addSample(&s)
	dropped += tr.Dropped()
	if first == nil {
		first, firstOps = tr.Spans(), sinceOps
	}
	if s.failed == s.attempted {
		return fmt.Errorf("no op succeeded in the traced run: %v", s.firstErr)
	}
	traced := s.xref()
	res.put(perLayer, "obsv.overhead_x", traced/baseXref, "x", len(s.lat))
	res.put(perLayer, "obsv.dropped_spans", float64(dropped), "count", 0)
	res.put(diagnostic, "run.traced_op_p50_xref", traced, "xref", len(s.lat))

	// Self time per track/name over the first harvest, as a share of the
	// op time of the ops it covers.
	if firstOps > 0 {
		opTime := float64(quantile(s.lat, 0.5)) * float64(firstOps)
		self := selfTimes(obsvIntervals(first))
		for k, v := range self {
			res.Layers = append(res.Layers, layerShare{Name: k, Share: float64(v) / opTime})
		}
		sort.Slice(res.Layers, func(i, j int) bool { return res.Layers[i].Share > res.Layers[j].Share })
	}
	path := filepath.Join(cfg.outDir, cfg.w.name+".trace.json")
	if err := writeTraceFile(path, first, own); err != nil {
		res.Notes = append(res.Notes, fmt.Sprintf("trace not written: %v", err))
	} else {
		res.Notes = append(res.Notes, fmt.Sprintf("trace of the first %d traced ops: %s", firstOps, path))
	}
	return nil
}

func writeTraceFile(path string, prog []obsv.Span, own *spanRec) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// Both span sets were stamped on the same wall clock.
	if err := obsv.WriteChromeTrace(f, append(prog, own.asObsv()...)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probe times op for iters iterations with the reference interleaved the
// same way as in the window, and records failures under ph.
func probe(ref *refKernel, ph *phase, iters int, op opFunc) sample {
	s := measure(ref, iters, 0, op)
	ph.addSample(&s)
	return s
}

// probeIters is each probe's fixed batch at scale 1; minProbeIters keeps
// medians meaningful in smoke runs, and minClosureIters keeps the
// decomposed op's closure check (a ratio of medians held to 10 %) out of
// small-sample noise.
const (
	probeIters      = 200
	minProbeIters   = 24
	minClosureIters = 100
)

// Device-memory layout of a blob task, as Platform.runTask lays it out.
const devIn, devOut = 0x0, 0x40000

// probes runs the decomposed 64 KiB op and the per-module probes. Every
// probe uses inputs drawn from a fixed seed, not the run's, so the same
// work is timed on every workload and seed.
func probes(cfg *runConfig, res *result, ref *refKernel) error {
	ph := res.newPhase("probes")
	iters := max(cfg.scaled(probeIters), minProbeIters)
	rng := rand.New(rand.NewSource(0x63634149)) // "ccAI"
	d := newDigest()
	tc := genTask(rng, 1, taskBytes, &d)
	putX := func(name string, s *sample) {
		res.put(perLayer, name, s.xref(), "xref", len(s.lat))
	}

	// Decomposed op: the benchmark drives the Adaptor and the driver
	// itself, call for call as Platform.runTask does, alternating with
	// plain RunTask on the same chassis so both see the same host state.
	p, err := newProtectedPlatform(buildOpts{})
	if err != nil {
		return fmt.Errorf("probe chassis: %w", err)
	}
	defer p.Close()
	decIters := max(iters, minClosureIters)
	rec := newSpanRec(decIters*8, time.Now())
	whole := make([]time.Duration, 0, decIters)
	dec := probe(ref, ph, decIters, func(i int) (time.Duration, error) {
		t0 := time.Now()
		out, err := p.RunTask(tc.task)
		whole = append(whole, time.Since(t0))
		if err := checkTask(&tc, out, err); err != nil {
			return 0, err
		}
		return decomposedTask(p, &tc, rec, i)
	})
	stage, collect := rec.byName("StageH2D"), rec.byName("CollectD2H")
	submit := rec.byName("Submit+Head")
	refP50 := quantile(dec.ref, 0.5)
	res.put(perLayer, "adaptor.stage_h2d_64k_xref", ratio(quantile(stage, 0.5), refP50), "xref", len(stage))
	res.put(perLayer, "adaptor.collect_d2h_64k_xref", ratio(quantile(collect, 0.5), refP50), "xref", len(collect))
	res.put(perLayer, "tvm.submit_wait_64k_xref", ratio(quantile(submit, 0.5), refP50), "xref", len(submit))
	// Closure: per decomposed op, the five phase spans summed; their
	// median against the median of the RunTask calls they alternate with.
	closure := ratio(quantile(rec.childSums("decomposed"), 0.5), quantile(whole, 0.5))
	res.put(perLayer, "run.decomposed_closure", closure, "ratio", len(whole))
	res.put(diagnostic, "run.protected_task_64k_xref", ratio(quantile(whole, 0.5), refP50), "xref", len(whole))
	closurePh := res.newPhase("closure")
	var closureErr error
	if closure < 0.9 || closure > 1.1 {
		closureErr = fmt.Errorf("decomposed phases sum to %.3f of the RunTask p50, outside 10 %%", closure)
	}
	closurePh.record(closureErr)

	// Vanilla RunTask: tvm + pcie + xpu + mem with no SC, the floor under
	// every protected op.
	v, err := ccai.New(ccai.WithXPU(xpu.A100), ccai.WithMode(ccai.Vanilla))
	if err != nil {
		return fmt.Errorf("vanilla chassis: %w", err)
	}
	defer v.Close()
	van := probe(ref, ph, iters, timed(func(int) error {
		out, err := v.RunTask(tc.task)
		return checkTask(&tc, out, err)
	}))
	putX("xpu.vanilla_task_64k_xref", &van)
	res.put(perLayer, "run.cc_overhead_x", ratio(quantile(whole, 0.5), refP50)/van.xref(), "x", len(whole))

	// Wire expansion of the 64 KiB task, protected over vanilla, from a
	// recorder tap on each host bus (after the timing: a tap disables
	// payload recycling).
	wire := func(bus *pcie.Bus, run func() error) (float64, error) {
		tap := trace.NewRecorder()
		bus.AddTap(tap)
		const n = 4
		for i := 0; i < n; i++ {
			if err := run(); err != nil {
				return 0, err
			}
		}
		return (float64(tap.PayloadBytes()) + float64(tap.Packets())*pcie.HeaderOverhead) / n, nil
	}
	pw, err := wire(p.Host, func() error { _, err := p.RunTask(tc.task); return err })
	if err != nil {
		return err
	}
	vw, err := wire(v.Host, func() error { _, err := v.RunTask(tc.task); return err })
	if err != nil {
		return err
	}
	res.put(perLayer, "pcie.wire_expansion_pct", (pw/vw-1)*100, "%", 0)

	// secmem: the Adaptor's batch seal and the matching batch open, 256
	// chunks of 256 B over the default pool width.
	key, nonce := secmem.FreshKey(), secmem.FreshNonce()
	tx, err := secmem.NewStream(key, nonce)
	if err != nil {
		return err
	}
	rx, err := secmem.NewStream(key, nonce)
	if err != nil {
		return err
	}
	pool := secmem.NewPool(runtime.GOMAXPROCS(0))
	const chunk = 256
	nChunks := taskBytes / chunk
	pts, aads := make([][]byte, nChunks), make([][]byte, nChunks)
	aadAll := make([]byte, 8*nChunks)
	for i := range pts {
		pts[i] = tc.task.Input[i*chunk : (i+1)*chunk]
		aads[i] = aadAll[i*8 : i*8+8]
	}
	ct, pt := make([]byte, taskBytes), make([]byte, taskBytes)
	sealed := make([]secmem.Sealed, nChunks)
	sealBatch := func() error {
		return tx.SealBatchStream(pts, aads, pool, func(i int, c *secmem.Sealed) error {
			copy(ct[i*chunk:], c.Ciphertext)
			sealed[i] = secmem.Sealed{Counter: c.Counter, Epoch: c.Epoch, Ciphertext: ct[i*chunk : i*chunk+len(c.Ciphertext)], Tag: c.Tag}
			return nil
		})
	}
	opens := make([]time.Duration, 0, iters)
	seal := probe(ref, ph, iters, func(int) (time.Duration, error) {
		t0 := time.Now()
		err := sealBatch()
		lat := time.Since(t0)
		if err != nil {
			return lat, err
		}
		t1 := time.Now()
		err = rx.OpenBatchInto(pt, sealed, aads, pool)
		opens = append(opens, time.Since(t1))
		if err == nil && !bytes.Equal(pt, tc.task.Input) {
			err = errWrongOutput
		}
		return lat, err
	})
	putX("secmem.seal_64k_xref", &seal)
	res.put(perLayer, "secmem.open_64k_xref", ratio(quantile(opens, 0.5), quantile(seal.ref, 0.5)), "xref", len(opens))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < minProbeIters; i++ {
		if err := sealBatch(); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	res.put(perLayer, "secmem.allocs_per_seal_64k", float64(m1.Mallocs-m0.Mallocs)/minProbeIters, "count", 0)

	// One small record, the llm-decode regime; a batch of 64 per timing so
	// the clock's own cost stays below 1 %.
	const smallBatch = 64
	small, smallAAD := [][]byte{tc.task.Input[:82]}, [][]byte{aadAll[:8]}
	s82 := probe(ref, ph, iters, timed(func(int) error {
		for k := 0; k < smallBatch; k++ {
			if err := tx.SealBatchStream(small, smallAAD, pool, func(int, *secmem.Sealed) error { return nil }); err != nil {
				return err
			}
		}
		return nil
	}))
	res.put(perLayer, "secmem.seal_82b_xref", s82.xref()/smallBatch, "xref", len(s82.lat))

	// pcie: serialize + parse, and route to an endpoint that does nothing.
	const k1 = 1000
	pkt := pcie.NewMemWrite(ccai.XPUID, 0x9000_0000, tc.task.Input[:pcie.MaxPayload])
	wireBuf := make([]byte, 0, pkt.MarshalSize())
	ser := probe(ref, ph, iters, timed(func(int) error {
		for k := 0; k < k1; k++ {
			if _, err := pcie.Unmarshal(pkt.SerializeInto(wireBuf[:0])); err != nil {
				return err
			}
		}
		return nil
	}))
	putX("pcie.serialize_1k_xref", &ser)
	bus := pcie.NewBus("probe")
	bus.Attach(nullEndpoint{})
	if err := bus.Claim(nullEndpoint{}.DeviceID(), pcie.Region{Base: 0x9000_0000, Size: 1 << 20, Name: "null"}); err != nil {
		return err
	}
	route := probe(ref, ph, iters, timed(func(int) error {
		for k := 0; k < k1; k++ {
			bus.Route(pkt)
		}
		return nil
	}))
	putX("pcie.route_1k_xref", &route)

	// core: classify a device DMA write against the assembled platform's
	// rule set (L1 screen, then the L2 address rule).
	buf, err := p.Guest.Space.Alloc(tvm.SharedRegion, "probe-classify", pcie.MaxPayload)
	if err != nil {
		return err
	}
	dma := pcie.NewMemWrite(ccai.XPUID, buf.Base(), tc.task.Input[:pcie.MaxPayload])
	filter := p.SC.Filter()
	classify := probe(ref, ph, iters, timed(func(int) error {
		for k := 0; k < k1; k++ {
			if v := filter.Classify(dma); v.Stage == 0 {
				return fmt.Errorf("benchmark: classify returned no verdict")
			}
		}
		return nil
	}))
	p.Guest.Space.Free(buf)
	putX("core.classify_1k_xref", &classify)

	// sched: the fair queue alone, four flows.
	q, err := sched.New(sched.Config{Flows: burstTenants})
	if err != nil {
		return err
	}
	fair := probe(ref, ph, iters, timed(func(int) error {
		for k := 0; k < k1; k++ {
			if _, err := q.Push(k%burstTenants, 4096, nil); err != nil {
				return err
			}
			e, ok := q.Next(nil)
			if !ok {
				return fmt.Errorf("benchmark: fair queue closed")
			}
			q.Release(e.Flow)
		}
		return nil
	}))
	putX("sched.push_next_1k_xref", &fair)

	// llm: the continuous-batching engine alone, one session of 1000
	// steps, no datapath.
	eng, err := llm.NewEngine(llm.EngineConfig{})
	if err != nil {
		return err
	}
	defer eng.Close()
	stepCfg := llm.Config{MaxNewTokens: k1, MaxPromptTokens: 16, ChunkTokens: 1}
	engine := probe(ref, ph, iters/4+1, timed(func(int) error {
		st, err := eng.Admit(stepCfg, stepCfg.MaxPromptTokens, nil)
		if err != nil {
			return err
		}
		defer eng.Release(st)
		if err := eng.Start(st); err != nil {
			return err
		}
		for steps := 0; ; steps++ {
			step, ok := eng.Next(nil)
			if !ok {
				return fmt.Errorf("benchmark: engine closed")
			}
			if !eng.Complete(step) {
				if steps != k1-1 {
					return fmt.Errorf("benchmark: engine finished after %d steps, want %d", steps+1, k1)
				}
				return nil
			}
		}
	}))
	putX("llm.engine_step_1k_xref", &engine)

	// attest: cold assembly plus EstablishTrust of a one-tenant chassis.
	trust := probe(ref, ph, 15, timed(func(int) error {
		c, err := newProtectedPlatform(buildOpts{})
		if err != nil {
			return err
		}
		c.Close()
		return nil
	}))
	putX("attest.establish_trust_xref", &trust)

	// bench: the analytic sweep set-up runs.
	figs := probe(ref, ph, 15, timed(func(int) error {
		_, err := figuresSweep()
		return err
	}))
	putX("bench.figures_sweep_xref", &figs)

	// obsv: the span recorder alone.
	tr := obsv.NewTracer()
	spans := probe(ref, ph, iters, func(int) (time.Duration, error) {
		tr.Reset()
		t0 := time.Now()
		for k := 0; k < k1; k++ {
			sp := tr.Begin(obsv.TrackTask, "probe", obsv.I64("k", int64(k)))
			sp.End()
		}
		return time.Since(t0), nil
	})
	putX("obsv.span_1k_xref", &spans)
	return nil
}

// decomposedTask is one 64 KiB protected task driven from outside, one
// benchmark span per call into a layer; its latency is the whole op's.
func decomposedTask(p *ccai.Platform, tc *taskCase, rec *spanRec, op int) (time.Duration, error) {
	n := int64(len(tc.task.Input))
	root := rec.begin("decomposed", noParent, op)
	t0 := time.Now()
	sp := rec.begin("StageH2D", root, op)
	in, err := p.Adaptor.StageH2D("task-input", tc.task.Input)
	rec.end(sp)
	if err != nil {
		return 0, err
	}
	sp = rec.begin("PrepareD2H", root, op)
	out, err := p.Adaptor.PrepareD2H("task-output", n)
	rec.end(sp)
	if err != nil {
		p.Adaptor.ReleaseRegion(in)
		return 0, err
	}
	cmds := []xpu.Command{
		{Op: xpu.OpCopyH2D, Src: in.Buf.Base(), Dst: devIn, Len: uint64(n)},
		{Op: xpu.OpKernel, Param: uint32(tc.task.Kernel)<<16 | uint32(tc.task.Param), Src: devIn, Dst: devOut, Len: uint64(n)},
		{Op: xpu.OpCopyD2H, Src: devOut, Dst: out.Buf.Base(), Len: uint64(n)},
	}
	sp = rec.begin("Submit+Head", root, op)
	want := p.Driver.Tail() + uint64(len(cmds))
	err = p.Driver.Submit(cmds...)
	var head uint64
	if err == nil {
		head, err = p.Driver.Head()
	}
	rec.end(sp)
	if err == nil && head != want {
		err = fmt.Errorf("benchmark: device consumed up to %d, want %d", head, want)
	}
	var got []byte
	if err == nil {
		sp = rec.begin("CollectD2H", root, op)
		got, err = p.Adaptor.CollectD2H(out, n)
		rec.end(sp)
	}
	sp = rec.begin("ReleaseRegion", root, op)
	p.Adaptor.ReleaseRegion(in)
	p.Adaptor.ReleaseRegion(out)
	rec.end(sp)
	lat := time.Since(t0)
	rec.end(root)
	return lat, checkTask(tc, got, err)
}

// nullEndpoint terminates routed packets without doing anything.
type nullEndpoint struct{}

func (nullEndpoint) DeviceID() pcie.ID                { return pcie.MakeID(9, 0, 0) }
func (nullEndpoint) Handle(*pcie.Packet) *pcie.Packet { return nil }
