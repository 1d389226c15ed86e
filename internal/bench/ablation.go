package bench

import (
	"fmt"
	"strings"

	"ccai/internal/llm"
	"ccai/internal/pcie"
	"ccai/internal/sim"
	"ccai/internal/xpu"
)

// Ablation sweeps: each function varies one design parameter of the
// cost model around its calibrated default and reports the resulting
// overhead, quantifying how much each design choice in DESIGN.md §5
// matters. They back the `ccai-bench -only ablations` output.

// AblationRow is one parameter setting's outcome.
type AblationRow struct {
	Param    string
	Value    string
	Overhead float64 // ccAI E2E overhead % on the reference workload
	E2E      sim.Time
}

// referenceWorkload is the Figure 8 anchor configuration: Llama-2-7B,
// 512 tokens, batch 1, A100.
func referenceWorkload(batch int) Workload {
	return Workload{Device: xpu.A100, Session: llm.Session{
		Model: llm.Llama2_7B, PromptTokens: 512, GenTokens: 512, Batch: batch}}
}

func sweepOverhead(w Workload, cm CostModel) (float64, sim.Time, error) {
	van, err := Run(w, VanillaMode, cm)
	if err != nil {
		return 0, 0, err
	}
	cc, err := Run(w, CCAI, cm)
	if err != nil {
		return 0, 0, err
	}
	return Overhead(van.E2E, cc.E2E), cc.E2E, nil
}

// AblationContextSlots sweeps the De/Encryption Parameters Manager
// capacity at batch 24 — the choice that creates Figure 8's overhead
// step. More slots push the thrash point past the workload's batch.
func AblationContextSlots(cm CostModel) ([]AblationRow, error) {
	var rows []AblationRow
	for _, slots := range []int{4, 8, 16, 32, 64} {
		m := cm
		m.ContextSlots = slots
		w := referenceWorkload(24)
		ovh, e2e, err := sweepOverhead(w, m)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{Param: "context-slots", Value: fmt.Sprintf("%d", slots), Overhead: ovh, E2E: e2e})
	}
	return rows, nil
}

// AblationWireExpansion sweeps the protected-traffic expansion factor
// on the bandwidth-saturated Figure 12a configuration, where it is the
// dominant cost.
func AblationWireExpansion(cm CostModel) ([]AblationRow, error) {
	var rows []AblationRow
	link := Fig12aLimitedLink()
	for _, exp := range []float64{0.01, 0.02, 0.045, 0.09, 0.18} {
		m := cm
		m.WireExpansion = exp
		w := referenceWorkload(1)
		w.Link = &link
		w.OffloadPerStep = Fig12aOffload
		ovh, e2e, err := sweepOverhead(w, m)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{Param: "wire-expansion", Value: fmt.Sprintf("%.1f%%", exp*100), Overhead: ovh, E2E: e2e})
	}
	return rows, nil
}

// AblationPerPacketIO sweeps the non-optimized protocol's per-packet
// round-trip cost, showing how the Figure 11 blow-up scales with MMIO
// exit latency.
func AblationPerPacketIO(cm CostModel) ([]AblationRow, error) {
	var rows []AblationRow
	w := referenceWorkload(1)
	van, err := Run(w, VanillaMode, cm)
	if err != nil {
		return nil, err
	}
	for _, rt := range []sim.Time{3 * sim.Microsecond, 6 * sim.Microsecond, 12 * sim.Microsecond, 24 * sim.Microsecond} {
		m := cm
		m.PerPacketIO = rt
		no, err := Run(w, CCAINoOpt, m)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Param: "per-packet-io", Value: rt.String(),
			Overhead: Overhead(van.E2E, no.E2E), E2E: no.E2E,
		})
	}
	return rows, nil
}

// AblationAdaptorThreads sweeps the Adaptor's crypto parallelism (§5's
// "allocate additional CPU threads"), measured on the no-opt-adjacent
// single-lane configuration where staging crypto is visible.
func AblationAdaptorThreads(cm CostModel) ([]AblationRow, error) {
	var rows []AblationRow
	for _, threads := range []int{1, 2, 4, 8, 16} {
		m := cm
		m.AdaptorCryptoBps = 4.6e9 * float64(threads)
		m.AdaptorOverlap = 0 // expose the crypto cost fully
		w := referenceWorkload(48)
		ovh, e2e, err := sweepOverhead(w, m)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{Param: "adaptor-threads", Value: fmt.Sprintf("%d", threads), Overhead: ovh, E2E: e2e})
	}
	return rows, nil
}

// Fig12aLimitedLink returns the most constrained Figure 12a link
// (8 GT/s ×8), where protected-traffic expansion dominates.
func Fig12aLimitedLink() pcie.LinkConfig {
	return pcie.LinkConfig{Gen: pcie.Gen3, Lanes: 8, PropagationDelay: 250 * sim.Nanosecond}
}

// RenderAblations renders all four sweeps.
func RenderAblations(cm CostModel) (string, error) {
	var b strings.Builder
	b.WriteString(header("Ablations — sensitivity of the calibrated design choices"))
	for _, sweep := range []struct {
		name string
		fn   func(CostModel) ([]AblationRow, error)
		note string
	}{
		{"context-slots @ batch 24", AblationContextSlots, "slots ≥ batch remove the Fig. 8 step"},
		{"wire-expansion @ 8GT/s x8", AblationWireExpansion, "sets the saturated ceiling of Figs. 9/12a"},
		{"per-packet-io (no-opt)", AblationPerPacketIO, "drives the Fig. 11 blow-up"},
		{"adaptor-threads (overlap off)", AblationAdaptorThreads, "§5 parallel-crypto optimization"},
	} {
		rows, err := sweep.fn(cm)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "[%s] — %s\n", sweep.name, sweep.note)
		for _, r := range rows {
			marker := ""
			if isDefaultAblation(r, cm) {
				marker = "  <- default"
			}
			fmt.Fprintf(&b, "  %-16s %8s  ->  %+8.2f%%  (E2E %.2fs)%s\n", r.Param, r.Value, r.Overhead, r.E2E.Seconds(), marker)
		}
	}
	return b.String(), nil
}

func isDefaultAblation(r AblationRow, cm CostModel) bool {
	switch r.Param {
	case "context-slots":
		return r.Value == fmt.Sprintf("%d", cm.ContextSlots)
	case "wire-expansion":
		return r.Value == fmt.Sprintf("%.1f%%", cm.WireExpansion*100)
	case "per-packet-io":
		return r.Value == cm.PerPacketIO.String()
	case "adaptor-threads":
		return r.Value == "8"
	}
	return false
}
