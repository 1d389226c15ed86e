package ccai_test

// One testing.B sub-benchmark per table and figure of the paper's
// evaluation (§8), plus wall-clock runs of the hot functional paths.
// Run them all with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks print the regenerated rows once (first
// iteration) and then measure harness throughput; absolute latency
// values inside the rows are virtual time, not wall-clock. The
// functional runs gate nothing — benchmark/ is the benchmark of record.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"ccai"
	"ccai/internal/bench"
	"ccai/internal/llm"
	"ccai/internal/obsv"
	"ccai/internal/xpu"
)

var printOnce sync.Map

// BenchmarkExperiments regenerates each paper experiment of
// bench.Experiments as a sub-benchmark named after its -only key.
func BenchmarkExperiments(b *testing.B) {
	cm := bench.Defaults()
	for _, e := range bench.Experiments(".") {
		b.Run(e.Name, func(b *testing.B) {
			out, err := e.Run(cm)
			if err != nil {
				b.Fatal(err)
			}
			if _, done := printOnce.LoadOrStore(e.Name, true); !done {
				fmt.Println(out)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(cm); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure6Attestation measures the full trust-establishment
// round: handshake, certificate validation, challenge, quote, verify,
// key delivery (real ECDH/ECDSA/AES-GCM, wall-clock).
func BenchmarkFigure6Attestation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runAttestationRound(b)
	}
}

// --- functional micro-benchmarks ---------------------------------------------

// benchProtectedTask runs b.N confidential tasks of size bytes through
// the packet-level functional path (real AES-GCM per chunk). With
// observe the hub is on and the tracer is harvested often enough that
// the buffer never fills: every span of the timed loop is recorded in
// full — none takes the saturated buffer's drop fast path — and the
// benchmark fails if one was dropped.
func benchProtectedTask(b *testing.B, size int, observe bool) {
	opts := []ccai.Option{ccai.WithXPU(xpu.A100), ccai.WithMode(ccai.Protected)}
	if observe {
		opts = append(opts, ccai.WithObserve())
	}
	plat, err := ccai.New(opts...)
	if err != nil {
		b.Fatal(err)
	}
	if err := plat.EstablishTrust(); err != nil {
		b.Fatal(err)
	}
	defer plat.Close()
	task := ccai.Task{Input: make([]byte, size), Kernel: ccai.KernelAdd, Param: 1}
	tr := plat.Observability().T()
	tr.Reset()
	if _, err := plat.RunTask(task); err != nil { // warm-up, and the span count of one task
		b.Fatal(err)
	}
	harvestEvery := obsv.DefaultSpanLimit / 2 / max(1, len(tr.Spans()))
	tr.Reset()
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plat.RunTask(task); err != nil {
			b.Fatal(err)
		}
		if observe && i%harvestEvery == harvestEvery-1 {
			if d := tr.Dropped(); d != 0 {
				b.Fatalf("%d spans dropped: the loop timed the drop path, not recording", d)
			}
			tr.Reset()
		}
	}
}

// BenchmarkProtectedTask measures one full 4 KiB confidential task.
func BenchmarkProtectedTask(b *testing.B) { benchProtectedTask(b, 4<<10, false) }

// BenchmarkProtectedTask64KiB is the same path at the transfer size the
// perf acceptance gate watches; `make profile` runs CPU and allocation
// profiles over it.
func BenchmarkProtectedTask64KiB(b *testing.B) { benchProtectedTask(b, 64<<10, false) }

// BenchmarkProtectedTaskObserved is BenchmarkProtectedTask with the
// observability layer on: compare the two ns/op figures for the price
// of recording (DESIGN.md §8 has the measured table).
func BenchmarkProtectedTaskObserved(b *testing.B) { benchProtectedTask(b, 4<<10, true) }

// BenchmarkProtectedTask64KiBObserved is the observed 64 KiB task;
// `make profile-observed` profiles it.
func BenchmarkProtectedTask64KiBObserved(b *testing.B) { benchProtectedTask(b, 64<<10, true) }

// benchSession runs b.N streaming sessions of cfg on one tenant with
// one engine worker, each prefilled with prompt and read to its end,
// harvesting the tracer after each when observed, as benchProtectedTask
// does.
func benchSession(b *testing.B, cfg llm.Config, prompt []byte, observe bool) {
	opts := []ccai.Option{ccai.WithLLMEngine(llm.EngineConfig{Workers: 1})}
	if observe {
		opts = append(opts, ccai.WithObserve())
	}
	mp, err := ccai.NewMultiPlatform([]xpu.Profile{xpu.A100}, opts...)
	if err != nil {
		b.Fatal(err)
	}
	defer mp.Close()
	if err := mp.EstablishTrustAll(); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	session := func() {
		s, err := mp.Tenants[0].OpenSession(ctx, cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		ch, err := s.Decode(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Prefill(ctx, prompt); err != nil {
			b.Fatal(err)
		}
		for c := range ch {
			if c.Err != nil {
				b.Fatal(c.Err)
			}
		}
	}
	tr := mp.Observability().T()
	session()
	tr.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		session()
		if observe {
			if d := tr.Dropped(); d != 0 {
				b.Fatalf("%d spans dropped: the loop timed the drop path, not recording", d)
			}
			tr.Reset()
		}
	}
}

// benchDecodeSession runs sessions of the benchmark's llm-decode shape —
// 16-token prompt, 512 new tokens in 8-token chunks: 64 tiny engine
// steps, so fixed per-record cost dominates.
func benchDecodeSession(b *testing.B, observe bool) {
	cfg := llm.Config{MaxNewTokens: 512, ChunkTokens: 8, MaxPromptTokens: 16, Seed: 0xa110c}
	benchSession(b, cfg, []byte("decode session benchmark"), observe)
}

// BenchmarkDecodeSession is one 512-token streaming session.
func BenchmarkDecodeSession(b *testing.B) { benchDecodeSession(b, false) }

// BenchmarkDecodeSessionObserved is the same session with the hub on;
// `make profile-observed` profiles it.
func BenchmarkDecodeSessionObserved(b *testing.B) { benchDecodeSession(b, true) }

// BenchmarkPrefillSession is one session of the benchmark's llm-prefill
// shape: a 128-token prompt, 480 B of KV per token (65,280 B sealed and
// staged once) and 8 new tokens, one engine step; `make profile-prefill`
// profiles it.
func BenchmarkPrefillSession(b *testing.B) {
	cfg := llm.Config{MaxNewTokens: 8, ChunkTokens: 8, MaxPromptTokens: 128, KVBytesPerToken: 480, Seed: 0xa110c}
	prompt := make([]byte, cfg.MaxPromptTokens*llm.DefaultTokenBytes)
	for i := range prompt {
		prompt[i] = byte(i*13 + 1)
	}
	b.SetBytes(cfg.KVBytes(cfg.MaxPromptTokens))
	benchSession(b, cfg, prompt, false)
}

// BenchmarkVanillaTask is the unprotected functional baseline.
func BenchmarkVanillaTask(b *testing.B) {
	plat, err := ccai.New(ccai.WithXPU(xpu.A100), ccai.WithMode(ccai.Vanilla))
	if err != nil {
		b.Fatal(err)
	}
	defer plat.Close()
	input := make([]byte, 4096)
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plat.RunTask(ccai.Task{Input: input, Kernel: ccai.KernelAdd, Param: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiTenantTask measures a confidential task on a two-tenant
// chassis (the §9 extension) through the functional path.
func BenchmarkMultiTenantTask(b *testing.B) {
	mp, err := ccai.NewMultiPlatform([]xpu.Profile{xpu.A100, xpu.N150d})
	if err != nil {
		b.Fatal(err)
	}
	defer mp.Close()
	for _, tenant := range mp.Tenants {
		if err := tenant.EstablishTrust(); err != nil {
			b.Fatal(err)
		}
	}
	input := make([]byte, 2048)
	b.SetBytes(int64(len(input)) * 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tenant := range mp.Tenants {
			if _, err := tenant.RunTask(ccai.Task{Input: input, Kernel: ccai.KernelAdd, Param: 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkServeBurst is one burst of the benchmark's serve-burst shape:
// four A100 tenants behind a two-slot scheduler, one submitter, eight
// tasks — 256 B, 4 KiB, 16 KiB and 64 KiB twice, round-robin over the
// tenants — submitted together and waited for together. Half of a burst
// is small tasks, so what the serving layer adds to a task is what it
// shows; `make profile-serve` profiles it.
func BenchmarkServeBurst(b *testing.B) {
	mp, err := ccai.NewMultiPlatform([]xpu.Profile{xpu.A100, xpu.A100, xpu.A100, xpu.A100})
	if err != nil {
		b.Fatal(err)
	}
	defer mp.Close()
	if err := mp.EstablishTrustAll(); err != nil {
		b.Fatal(err)
	}
	s, err := mp.NewScheduler(ccai.SchedulerConfig{Slots: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	var burst [8]ccai.TenantTask
	total := 0
	for i, size := range [...]int{256, 4 << 10, 16 << 10, 64 << 10, 64 << 10, 256, 4 << 10, 16 << 10} {
		burst[i] = ccai.TenantTask{Tenant: i % 4, Task: ccai.Task{Input: make([]byte, size), Kernel: ccai.KernelAdd, Param: 1}}
		total += size
	}
	ctx := context.Background()
	b.SetBytes(int64(total))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var hs [len(burst)]*ccai.Handle
		for j, tt := range burst {
			if hs[j], err = s.Submit(ctx, tt); err != nil {
				b.Fatal(err)
			}
		}
		for _, h := range hs {
			if _, err := h.Result(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
