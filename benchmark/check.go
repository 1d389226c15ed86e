package main

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// e2eBounds are the end-to-end metrics and the relative worsening that
// counts as a regression — the same table BENCHMARK.json carries (the
// smoke test keeps the two in step).
var e2eBounds = []struct {
	name   string
	bound  float64
	better string
}{
	{"setup_s", 0.15, "lower"},
	{"op_p50_xref", 0.10, "lower"},
	{"allocs_per_op", 0.01, "lower"},
	{"model_op_us", 0.001, "lower"},
	{"sim_paper_err_pp", 0.001, "lower"},
	{"ok_share", 0.001, "higher"},
}

// exact reports whether a metric must repeat byte for byte between two
// runs of one build: the analytic model, the paper error, the failure
// share and every per-op count.
func exact(name string) bool {
	switch name {
	case "model_op_us", "sim_paper_err_pp", "ok_share", "fail_share":
		return true
	case "allocs_per_op", "llm.allocs_per_token":
		return false // the runtime's own allocations move these in the 4th digit
	}
	if strings.HasPrefix(name, "run.") {
		return false // diagnostics of the timed window
	}
	return strings.HasSuffix(name, "_per_op") || strings.HasSuffix(name, "_per_kop") ||
		strings.HasSuffix(name, "_per_token") || strings.HasPrefix(name, "bench.model_")
}

// selfCheck is the determinism self-check: each workload at -scale 0.02
// twice with one seed must give byte-equal exact metrics and
// allocs_per_op within 1 %; a second seed must give the same exact
// metrics from different inputs, which shows the seed reaches the inputs
// and the counts do not depend on payload.
func selfCheck(ws []*workload, base runConfig, stdout, stderr io.Writer) int {
	base.scale, base.trace = 0.02, false
	bad := 0
	fail := func(format string, args ...any) {
		bad++
		fmt.Fprintf(stdout, "FAIL "+format+"\n", args...)
	}
	for _, w := range ws {
		var runs [3]*result
		for i := range runs {
			cfg := base
			cfg.w = w
			if i == 2 {
				cfg.seed++
			}
			res, err := runWorkload(cfg)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			if !res.Correct {
				fail("%s seed %d: %d of %d ops failed", w.name, cfg.seed, res.Failed, res.Attempted)
			}
			runs[i] = res
		}
		a, b, other := runs[0], runs[1], runs[2]
		checked := 0
		for _, m := range a.Metrics {
			if !exact(m.Name) {
				continue
			}
			checked++
			for _, r := range []*result{b, other} {
				if v, _ := r.get(m.Name); v != m.Value {
					fail("%s %s: %v (seed %d) != %v (seed %d)", w.name, m.Name, m.Value, a.Seed, v, r.Seed)
				}
			}
		}
		va, _ := a.get("allocs_per_op")
		vb, _ := b.get("allocs_per_op")
		if math.Abs(vb-va) > 0.01*va {
			fail("%s allocs_per_op: %v vs %v, more than 1 %% apart", w.name, va, vb)
		}
		if a.InputDigest != b.InputDigest {
			fail("%s: seed %d gave input digests %s and %s", w.name, a.Seed, a.InputDigest, b.InputDigest)
		}
		if a.InputDigest == other.InputDigest {
			fail("%s: seeds %d and %d gave the same input digest %s", w.name, a.Seed, other.Seed, a.InputDigest)
		}
		fmt.Fprintf(stdout, "%-12s %d exact metrics equal over 2 runs and 2 seeds; allocs_per_op %.3f vs %.3f; digests %s / %s\n",
			w.name, checked, va, vb, a.InputDigest, other.InputDigest)
	}
	if bad > 0 {
		return 1
	}
	fmt.Fprintln(stdout, "selfcheck ok")
	return 0
}

// agreeCheck runs two complete sets of the same binary back to back and
// prints, per end-to-end metric and workload, both values, the relative
// difference and the bound. Any difference beyond the bound, in either
// direction, is a breach.
func agreeCheck(ws []*workload, base runConfig, stdout, stderr io.Writer) int {
	base.trace = false
	var sets [2][]*result
	for s := range sets {
		for _, w := range ws {
			cfg := base
			cfg.w = w
			res, err := runWorkload(cfg)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			sets[s] = append(sets[s], res)
		}
	}
	breaches := 0
	fmt.Fprintf(stdout, "%-12s %-18s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	for i, w := range ws {
		a, b := sets[0][i], sets[1][i]
		for _, m := range e2eBounds {
			va, _ := a.get(m.name)
			vb, _ := b.get(m.name)
			diff := (vb - va) / va
			verdict := ""
			if math.Abs(diff) > m.bound {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Fprintf(stdout, "%-12s %-18s %14.6f %14.6f %+8.3f%% %6.1f%%%s\n", w.name, m.name, va, vb, diff*100, m.bound*100, verdict)
		}
		if !a.Correct || !b.Correct {
			fmt.Fprintf(stdout, "%-12s failed ops: set 1 %d, set 2 %d  BREACH\n", w.name, a.Failed, b.Failed)
			breaches++
		}
	}
	if breaches > 0 {
		fmt.Fprintf(stdout, "agree: %d breaches\n", breaches)
		return 1
	}
	fmt.Fprintln(stdout, "agree ok")
	return 0
}
