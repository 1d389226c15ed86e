package ccai_test

// One testing.B benchmark per table and figure of the paper's
// evaluation (§8), plus micro-benchmarks of the hot functional paths.
// Run them all with:
//
//	go test -bench=. -benchmem
//
// The figure benchmarks print the regenerated rows once (first
// iteration) and then measure harness throughput; absolute latency
// values inside the rows are virtual time, not wall-clock.

import (
	"fmt"
	"sync"
	"testing"

	"ccai"
	"ccai/internal/bench"
	"ccai/internal/xpu"
)

var printOnce sync.Map

func once(b *testing.B, key, out string) {
	b.Helper()
	if _, done := printOnce.LoadOrStore(key, true); !done {
		fmt.Println(out)
	}
}

func BenchmarkTable1Actions(b *testing.B) {
	rows := bench.Table1Categorization()
	once(b, "t1", bench.RenderTable1(rows))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.Table1Categorization()
	}
}

func BenchmarkTable2Compatibility(b *testing.B) {
	rows := bench.Table2Compatibility()
	checks := bench.Table2Checks(true, true, true, true)
	once(b, "t2", bench.RenderTable2(rows, checks))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.RenderTable2(bench.Table2Compatibility(), checks)
	}
}

func BenchmarkTable3TCB(b *testing.B) {
	rows, err := bench.Table3TCB(".")
	if err != nil {
		b.Fatal(err)
	}
	once(b, "t3", bench.RenderTable3(rows))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table3TCB("."); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8FixBatch(b *testing.B) {
	cm := bench.Defaults()
	rows, err := bench.Figure8FixBatch(cm)
	if err != nil {
		b.Fatal(err)
	}
	once(b, "f8a", bench.RenderFig8("Figure 8a/c/e — fix-batch sweep (Llama-2-7B, A100, batch 1)", rows))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure8FixBatch(cm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8FixToken(b *testing.B) {
	cm := bench.Defaults()
	rows, err := bench.Figure8FixToken(cm)
	if err != nil {
		b.Fatal(err)
	}
	once(b, "f8b", bench.RenderFig8("Figure 8b/d/f — fix-token sweep (Llama-2-7B, A100, 128 tokens)", rows))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure8FixToken(cm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9Models(b *testing.B) {
	cm := bench.Defaults()
	rows, err := bench.Figure9Models(cm)
	if err != nil {
		b.Fatal(err)
	}
	once(b, "f9", bench.RenderFig9(rows))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure9Models(cm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10XPUs(b *testing.B) {
	cm := bench.Defaults()
	rows, err := bench.Figure10XPUs(cm)
	if err != nil {
		b.Fatal(err)
	}
	once(b, "f10", bench.RenderFig10(rows))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure10XPUs(cm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure11Optimization(b *testing.B) {
	cm := bench.Defaults()
	tok, bat, err := bench.Figure11Optimization(cm)
	if err != nil {
		b.Fatal(err)
	}
	once(b, "f11", bench.RenderFig11(tok, bat))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.Figure11Optimization(cm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure12aBandwidth(b *testing.B) {
	cm := bench.Defaults()
	rows, err := bench.Figure12aBandwidth(cm)
	if err != nil {
		b.Fatal(err)
	}
	once(b, "f12a", bench.RenderFig12a(rows))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure12aBandwidth(cm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure12bKVCache(b *testing.B) {
	cm := bench.Defaults()
	rows, err := bench.Figure12bKVCache(cm)
	if err != nil {
		b.Fatal(err)
	}
	once(b, "f12b", bench.RenderFig12b(rows))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure12bKVCache(cm); err != nil {
			b.Fatal(err)
		}
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

// BenchmarkProtectedTask measures one full confidential task through
// the packet-level functional path (real AES-GCM per chunk).
func BenchmarkProtectedTask(b *testing.B) {
	plat, err := ccai.New(ccai.WithXPU(xpu.A100), ccai.WithMode(ccai.Protected))
	if err != nil {
		b.Fatal(err)
	}
	if err := plat.EstablishTrust(); err != nil {
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

// BenchmarkProtectedTask64KiB is the same path at the transfer size the
// perf acceptance gate watches; `make profile` runs CPU and allocation
// profiles over it.
func BenchmarkProtectedTask64KiB(b *testing.B) {
	plat, err := ccai.New(ccai.WithXPU(xpu.A100), ccai.WithMode(ccai.Protected))
	if err != nil {
		b.Fatal(err)
	}
	if err := plat.EstablishTrust(); err != nil {
		b.Fatal(err)
	}
	defer plat.Close()
	input := make([]byte, 64<<10)
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plat.RunTask(ccai.Task{Input: input, Kernel: ccai.KernelAdd, Param: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtectedTaskObserved is BenchmarkProtectedTask with the
// observability layer on — the overhead acceptance gate: compare the
// two ns/op figures; instrumentation must stay within a few percent
// (span/counter work is atomic increments and slice appends, no I/O).
func BenchmarkProtectedTaskObserved(b *testing.B) {
	plat, err := ccai.New(ccai.WithXPU(xpu.A100), ccai.WithMode(ccai.Protected), ccai.WithObserve())
	if err != nil {
		b.Fatal(err)
	}
	if err := plat.EstablishTrust(); err != nil {
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
		if i%1024 == 1023 {
			// Keep retained spans bounded so the benchmark measures the
			// hot path, not allocator pressure from an ever-growing log.
			plat.Observability().T().Reset()
		}
	}
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

// BenchmarkAblations runs the design-choice sensitivity sweeps
// (context slots, wire expansion, per-packet I/O, crypto threads).
func BenchmarkAblations(b *testing.B) {
	cm := bench.Defaults()
	out, err := bench.RenderAblations(cm)
	if err != nil {
		b.Fatal(err)
	}
	once(b, "abl", out)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RenderAblations(cm); err != nil {
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
