package bench

import (
	"fmt"
	"sort"
	"strings"

	"ccai/internal/llm"
	"ccai/internal/sim"
	"ccai/internal/xpu"
)

// Serving-load extension (beyond the paper's single-request figures):
// a stream of inference requests arrives at one protected xPU and
// queues for the device, served first come, first served. Per-request
// latency distributions show how ccAI's small per-request overhead
// composes under load — in particular, that the overhead does not
// amplify through the queue until the device approaches saturation.

// ServingConfig describes one serving-load run.
type ServingConfig struct {
	Device xpu.Profile
	Model  llm.ModelSpec
	// PromptTokens/GenTokens per request.
	PromptTokens, GenTokens int
	// Requests is the total number of requests to serve.
	Requests int
	// ArrivalRate is the offered load in requests/second (exponential
	// interarrival times drawn from a seeded deterministic generator).
	ArrivalRate float64
	// Seed fixes the arrival process.
	Seed uint64
}

// ServingResult summarizes one run.
type ServingResult struct {
	Protection Protection
	// P50/P95/P99 are request latency percentiles (queueing + service).
	P50, P95, P99 sim.Time
	// Mean is the average request latency.
	Mean sim.Time
	// Utilization is the device's busy fraction over the run.
	Utilization float64
	// Completed is the number of requests served.
	Completed int
}

// RunServing simulates the arrival process against a single device
// whose per-request service time comes from the calibrated cost model.
func RunServing(cfg ServingConfig, prot Protection, cm CostModel) (ServingResult, error) {
	if cfg.Requests <= 0 || cfg.ArrivalRate <= 0 {
		return ServingResult{}, fmt.Errorf("bench: serving needs positive requests and rate")
	}
	w := Workload{Device: cfg.Device, Session: llm.Session{
		Model: cfg.Model, PromptTokens: cfg.PromptTokens, GenTokens: cfg.GenTokens, Batch: 1}}
	r, err := Run(w, prot, cm)
	if err != nil {
		return ServingResult{}, err
	}
	service := r.E2E // per-request service time on the device

	// One FIFO server with a fixed service time: a request starts when
	// it arrives or when the one before it is done, whichever is later.
	rng := sim.NewRand(cfg.Seed)
	latencies := make([]sim.Time, 0, cfg.Requests)
	var at, freeAt sim.Time
	for i := 0; i < cfg.Requests; i++ {
		// Exponential interarrival via inverse transform.
		u := rng.Float64()
		if u <= 0 {
			u = 1e-12
		}
		at += sim.Time(-lnApprox(u) / cfg.ArrivalRate * float64(sim.Second))
		freeAt = max(at, freeAt) + service
		latencies = append(latencies, freeAt-at)
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) sim.Time {
		idx := int(p * float64(len(latencies)-1))
		return latencies[idx]
	}
	var sum sim.Time
	for _, l := range latencies {
		sum += l
	}
	busy := sim.Time(cfg.Requests) * service
	util := 0.0
	if freeAt > 0 {
		util = float64(busy) / float64(freeAt)
	}
	return ServingResult{
		Protection: prot,
		P50:        pct(0.50), P95: pct(0.95), P99: pct(0.99),
		Mean:        sum / sim.Time(len(latencies)),
		Utilization: util,
		Completed:   len(latencies),
	}, nil
}

// lnApprox computes ln(x) for x in (0,1] via the stdlib-free
// Newton/bit-trick-free route: ln(x) = 2·artanh((x-1)/(x+1)) series.
// Accuracy of ~1e-9 over (1e-12, 1] is ample for interarrival draws.
func lnApprox(x float64) float64 {
	// Range-reduce into [0.5, 1) by pulling out powers of two:
	// ln(x) = ln(m) + k·ln(2).
	k := 0
	for x < 0.5 {
		x *= 2
		k--
	}
	for x >= 1 {
		x /= 2
		k++
	}
	z := (x - 1) / (x + 1)
	zz := z * z
	term := z
	var s float64
	for i := 0; i < 30; i++ {
		s += term / float64(2*i+1)
		term *= zz
	}
	const ln2 = 0.6931471805599453
	return 2*s + float64(k)*ln2
}

// ServingSweep runs vanilla and ccAI across a set of arrival rates.
type ServingRow struct {
	Rate    float64
	Vanilla ServingResult
	CCAI    ServingResult
}

// ServingExperiment sweeps offered load on a short-request workload
// (OPT-1.3b, 64/64 tokens on A100: ~0.5 s service time).
func ServingExperiment(cm CostModel, rates []float64) ([]ServingRow, error) {
	var rows []ServingRow
	for _, rate := range rates {
		cfg := ServingConfig{
			Device: xpu.A100, Model: llm.OPT13B,
			PromptTokens: 64, GenTokens: 64,
			Requests: 400, ArrivalRate: rate, Seed: 7,
		}
		van, err := RunServing(cfg, VanillaMode, cm)
		if err != nil {
			return nil, err
		}
		cc, err := RunServing(cfg, CCAI, cm)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ServingRow{Rate: rate, Vanilla: van, CCAI: cc})
	}
	return rows, nil
}

// RenderServing renders the sweep.
func RenderServing(rows []ServingRow) string {
	var b strings.Builder
	b.WriteString(header("Serving load (extension) — request latency under queueing, vanilla vs ccAI"))
	fmt.Fprintf(&b, "%-10s | %10s %10s %10s %6s | %10s %10s %10s %6s | %8s\n",
		"req/s", "van p50", "van p95", "van p99", "util", "ccAI p50", "ccAI p95", "ccAI p99", "util", "p99 ovh")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10.2f | %9.2fs %9.2fs %9.2fs %5.0f%% | %9.2fs %9.2fs %9.2fs %5.0f%% | %+7.2f%%\n",
			r.Rate,
			r.Vanilla.P50.Seconds(), r.Vanilla.P95.Seconds(), r.Vanilla.P99.Seconds(), r.Vanilla.Utilization*100,
			r.CCAI.P50.Seconds(), r.CCAI.P95.Seconds(), r.CCAI.P99.Seconds(), r.CCAI.Utilization*100,
			Overhead(r.Vanilla.P99, r.CCAI.P99))
	}
	return b.String()
}
