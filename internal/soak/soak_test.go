package soak

import (
	"bytes"
	"strings"
	"testing"

	"ccai/internal/pcie"
	"ccai/internal/sim"
)

// TestStormPlanRoundTrip proves plan generation is a pure function of
// the seed, down to the bytes the scorecard's plan_sha256 hashes — what
// lets CI prove two runs executed the identical storm.
func TestStormPlanRoundTrip(t *testing.T) {
	cfg := Smoke()
	p1 := GeneratePlan(cfg)
	p2 := GeneratePlan(cfg)
	if !bytes.Equal(p1.Marshal(), p2.Marshal()) {
		t.Fatal("same config generated different storm plans")
	}
	if len(p1.Waves) == 0 {
		t.Fatal("smoke plan has no waves")
	}

	other := cfg
	other.Seed++
	if bytes.Equal(GeneratePlan(other).Marshal(), p1.Marshal()) {
		t.Fatal("different seeds generated identical storm plans")
	}
}

// TestSoakDeterminism is the reproducibility contract: the same seed
// must produce a byte-identical storm plan and a byte-identical
// scorecard across two full runs — carrier plane, fault storm, rekeys,
// re-trusts and all. This is what lets CI diff the committed scorecard
// like a checksum.
func TestSoakDeterminism(t *testing.T) {
	cfg := Smoke()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Marshal(), b.Marshal()) {
		t.Fatalf("same seed produced different scorecards:\n--- run A\n%s\n--- run B\n%s",
			a.Marshal(), b.Marshal())
	}
	if a.PlanSHA256 != b.PlanSHA256 {
		t.Fatalf("same seed produced different storm plans: %s vs %s", a.PlanSHA256, b.PlanSHA256)
	}
}

// TestVirtualPlaneDeterminism covers the carrier-free path (Carriers:
// 0) used by quick experiments: the pure discrete-event plane must be
// deterministic on its own as well.
func TestVirtualPlaneDeterminism(t *testing.T) {
	cfg := Config{
		Preset:  "virtual",
		Seed:    42,
		Tenants: 64, Horizon: 2 * 60 * sim.Second,
		Slots: 2, QueueDepth: 4, Quantum: 4096,
		CalmRPS: 0.05, BurstRPS: 1,
		CalmDwell: 30 * sim.Second, BurstDwell: 5 * sim.Second,
		AvailabilityBudget: 0.5, QueueWaitP99BudgetMs: 10000, FairnessBudget: 100,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Marshal(), b.Marshal()) {
		t.Fatal("virtual-only runs diverged")
	}
	if a.Offered == 0 || a.Completed == 0 {
		t.Fatalf("virtual plane moved no traffic: %+v", a)
	}
}

// TestScanTapCatchesPlantedCanary is the confidentiality oracle's
// self-test: an oracle that cannot see a canary planted directly in a
// bus payload would make every clean soak vacuous.
func TestScanTapCatchesPlantedCanary(t *testing.T) {
	clk := sim.NewEngine()
	orc := newOracle(clk)
	secret := []byte("SELFTEST-CANARY")
	tap := newScanTap(orc, secret)

	clean := &pcie.Packet{Header: pcie.Header{Kind: pcie.MWr}, Payload: []byte("sealed gibberish")}
	if tap.Tap(clean) != clean {
		t.Fatal("scanner modified clean traffic")
	}
	if n := len(orc.violationList()); n != 0 {
		t.Fatalf("clean payload produced %d violations", n)
	}

	leak := &pcie.Packet{Header: pcie.Header{Kind: pcie.MWr}, Payload: append([]byte("prefix "), secret...)}
	tap.Tap(leak)
	vl := orc.violationList()
	if len(vl) != 1 || !strings.Contains(vl[0], "PLAINTEXT") {
		t.Fatalf("planted canary not caught: %v", vl)
	}
	if tap.PayloadBytes() == 0 {
		t.Fatal("scanner did not meter payload bytes")
	}
}

// TestIVOracleCatchesReuse is the IV oracle's self-test: a repeat of
// (epoch, counter) under one stream identity must be flagged, while
// the same pair under a different identity (a re-trusted session's
// fresh generation) must not.
func TestIVOracleCatchesReuse(t *testing.T) {
	orc := newOracle(sim.NewEngine())
	h := orc.ivHook("t0/g0/h2d")
	h(0, 1)
	h(0, 2)
	h(1, 1) // same counter, new epoch: fine
	if n := len(orc.violationList()); n != 0 {
		t.Fatalf("distinct IVs produced %d violations", n)
	}
	orc.ivHook("t0/g1/h2d")(0, 1) // fresh generation: fine
	if n := len(orc.violationList()); n != 0 {
		t.Fatalf("fresh-generation IV produced %d violations", n)
	}
	h(0, 1) // true reuse
	vl := orc.violationList()
	if len(vl) != 1 || !strings.Contains(vl[0], "IV REUSE") {
		t.Fatalf("IV reuse not caught: %v", vl)
	}
	if orc.rekeys() != 1 {
		t.Fatalf("rekeys = %d, want 1 (epoch advanced once on one stream)", orc.rekeys())
	}
}

// TestSmokeSoakCleanAndBusy runs the committed smoke preset and holds
// it to the headline acceptance bar: zero oracle violations, SLOs
// within budget, and none of the oracles vacuous — faults fired from
// every class, keys rolled, sessions re-trusted, replays and rogue
// attempts absorbed.
func TestSmokeSoakCleanAndBusy(t *testing.T) {
	sc, err := Run(Smoke())
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Violations) != 0 {
		t.Fatalf("smoke soak raised %d violations:\n%s",
			len(sc.Violations), strings.Join(sc.Violations, "\n"))
	}
	if !sc.WithinBudgets {
		t.Fatalf("smoke soak out of budget: avail=%v p99=%vms fairness=%v",
			sc.Availability, sc.QueueWaitP99Ms, sc.FairnessSpread)
	}
	if sc.Probes == 0 || sc.IVsAudited == 0 || sc.BusPayloadBytes == 0 {
		t.Fatalf("vacuous soak: %+v", sc)
	}
	if sc.FaultsInjected == 0 || sc.Rekeys == 0 || sc.ReplayedPackets == 0 || sc.RogueAttempts == 0 {
		t.Fatalf("storm did not exercise the pipeline: %+v", sc)
	}
	for _, re := range sc.Recovery {
		if re.Fired == 0 {
			t.Errorf("fault class %s never fired in the smoke storm", re.Class)
		}
	}
	rt, err := UnmarshalScorecard(sc.Marshal())
	if err != nil {
		t.Fatalf("scorecard round trip: %v", err)
	}
	if !bytes.Equal(rt.Marshal(), sc.Marshal()) {
		t.Fatal("scorecard did not survive a marshal round trip")
	}
}
