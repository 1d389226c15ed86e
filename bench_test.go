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
	"fmt"
	"sync"
	"testing"

	"ccai"
	"ccai/internal/bench"
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
