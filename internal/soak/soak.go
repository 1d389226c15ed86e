// Package soak is the long-horizon serving soak harness: the scale
// counterpart of the fault×invariant matrix. Where the matrix proves
// each fault class survivable in isolation, the soak proves the §9
// serving story — a thousand-tenant chassis under bursty load with
// faults and attacks firing continuously — holds its security
// invariants *and* its service-level objectives for hundreds of
// virtual-time minutes.
//
// The harness has two planes:
//
//   - The virtual plane drives cfg.Tenants flows through the same
//     internal/sched DRR queue the serving Scheduler uses, on a
//     discrete-event sim clock. Arrivals are per-tenant MMPP (two-state
//     Markov-modulated Poisson: calm↔burst), service times come from a
//     simple transfer model, and every latency the scorecard reports is
//     virtual time — which is what makes a soak of hundreds of virtual
//     minutes run in wall-clock seconds and its scorecard byte-for-byte
//     reproducible from the seed.
//
//   - The carrier plane is a small real chassis (a MultiPlatform with
//     cfg.Carriers protected tenants behind a live ccai.Scheduler).
//     Every ProbeEvery-th virtual dispatch rides a real 4 KiB task
//     through the full protected pipeline while the storm plan's fault
//     injector and attack taps are live on the host bus. The probes are
//     where the invariant oracles bite: no plaintext canary on the bus,
//     no IV reuse across rekeys and re-trusts, fail-closed (never
//     silently wrong) outputs, and no stale/replayed traffic crossing
//     the SC boundary.
//
// Faults and attacks come from a seed-replayable StormPlan (storm.go):
// waves of fault.Plan events plus bounded tamper/drop/redirect/replay/
// rogue/rekey-pressure intensities. Identical seed ⇒ byte-identical
// plan ⇒ byte-identical scorecard; CI diffs the committed scorecard in
// BENCH_results.json exactly like a perf baseline (make soak-smoke).
package soak

import (
	"ccai/internal/fault"
	"ccai/internal/sim"
)

// Virtual service-time model for the virtual plane: a dispatched
// request occupies its slot for svcBase plus svcPerKiB per 1024 input
// bytes. The shape (fixed setup + linear transfer) mirrors the
// protected pipeline's measured profile; the absolute values just need
// to be stable, since every latency in the scorecard is virtual.
const (
	svcBase   = 80 * sim.Millisecond
	svcPerKiB = 8 * sim.Microsecond
)

// Config parameterizes one soak run. Use Smoke or Full for the two
// committed presets; tests may build smaller ones directly.
type Config struct {
	// Preset names the configuration in the scorecard ("smoke", "full",
	// or anything a test chooses).
	Preset string
	// Seed derives everything random in the run: the storm plan, every
	// tenant's arrival process, and request sizes.
	Seed uint64
	// Tenants is the virtual-plane flow count.
	Tenants int
	// Horizon is the virtual arrival window; the run ends when the last
	// admitted request completes.
	Horizon sim.Time
	// Slots bounds concurrently "executing" virtual requests.
	Slots int
	// QueueDepth is the per-tenant ingress bound (admission beyond it is
	// rejected, counted against availability).
	QueueDepth int
	// Quantum is the DRR deficit quantum in bytes.
	Quantum int64
	// CalmRPS/BurstRPS are the MMPP per-tenant arrival rates (req/s) in
	// the two states; CalmDwell/BurstDwell the mean state dwell times.
	CalmRPS, BurstRPS     float64
	CalmDwell, BurstDwell sim.Time
	// WavePeriod spaces the storm plan's waves; FaultsPerWave sizes each
	// wave's fault.Plan (events are dealt round-robin over every fault
	// class, so each wave exercises the full class list — presets track
	// len(fault.Classes()) so a new class is stormed the day it lands).
	WavePeriod    sim.Time
	FaultsPerWave int
	// Carriers is the real-tenant count on the carrier plane (0 disables
	// it — virtual-only, used by determinism unit tests). ProbeEvery
	// sends every N-th virtual dispatch through the real pipeline.
	Carriers   int
	ProbeEvery int

	// SLO budgets asserted by the scorecard (WithinBudgets).
	AvailabilityBudget   float64 // min fraction of offered requests served
	QueueWaitP99BudgetMs float64 // max virtual p99 admission→dispatch wait
	FairnessBudget       float64 // max per-tenant mean-wait spread (max/median)
}

// Smoke is the CI preset: a short virtual horizon that still runs the
// full machinery — waves, all fault classes, every attack instrument,
// real probes — in wall-clock seconds. Its scorecard is committed to
// BENCH_results.json and diffed by `make soak-smoke`.
func Smoke() Config {
	return Config{
		Preset:     "smoke",
		Seed:       0x50a1c0de_0001,
		Tenants:    256,
		Horizon:    6 * 60 * sim.Second,
		Slots:      4,
		QueueDepth: 8,
		Quantum:    8192,
		CalmRPS:    0.02, BurstRPS: 0.5,
		CalmDwell: 120 * sim.Second, BurstDwell: 10 * sim.Second,
		WavePeriod:    2 * 60 * sim.Second,
		FaultsPerWave: len(fault.Classes()),
		Carriers:      2,
		ProbeEvery:    24,

		AvailabilityBudget:   0.99,
		QueueWaitP99BudgetMs: 250,
		FairnessBudget:       12,
	}
}

// Full is the headline preset of ROADMAP item 5: a 1,000-tenant,
// 120-virtual-minute soak with twelve storm waves covering every fault
// class and attack instrument. Its scorecard is the committed
// soak/scorecard entry in BENCH_results.json.
func Full() Config {
	return Config{
		Preset:     "full",
		Seed:       0x50a1c0de_1000,
		Tenants:    1000,
		Horizon:    120 * 60 * sim.Second,
		Slots:      8,
		QueueDepth: 8,
		Quantum:    8192,
		CalmRPS:    0.02, BurstRPS: 0.5,
		CalmDwell: 120 * sim.Second, BurstDwell: 10 * sim.Second,
		WavePeriod:    10 * 60 * sim.Second,
		FaultsPerWave: len(fault.Classes()),
		Carriers:      4,
		ProbeEvery:    96,

		AvailabilityBudget:   0.99,
		QueueWaitP99BudgetMs: 250,
		FairnessBudget:       12,
	}
}
