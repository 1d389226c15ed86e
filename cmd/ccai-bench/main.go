// Command ccai-bench regenerates every table and figure of the paper's
// evaluation section on the simulated platform's virtual-time cost
// model (the list is bench.Experiments):
//
//	ccai-bench                  # everything
//	ccai-bench -only fig8       # one experiment (table1..3, fig8..fig12b, ...)
//	ccai-bench -src /path/repo  # repository root for Table 3 LoC counts
//
// Wall-clock cost of the Go simulator is not measured here: that is the
// benchmark of record's job (benchmark/README.md).
//
// The soak harness shares the CLI and writes BENCH_results.json:
//
//	ccai-bench -only soak -soak smoke   # CI storm, scorecard under "soak"
//	ccai-bench -soak all                # smoke + full presets
//	ccai-bench -only soak -soak smoke -soak-compare BENCH_results.json
//
// Soak scorecards are deterministic (virtual time only), so -soak-compare
// demands byte equality against the committed baseline. Disable the
// write with -out "".
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ccai/internal/bench"
	"ccai/internal/soak"
)

func main() {
	only := flag.String("only", "", "run one experiment: "+strings.Join(experimentNames(), ",")+",soak")
	src := flag.String("src", ".", "repository root for Table 3 LoC measurement")
	out := flag.String("out", "BENCH_results.json", "results file the soak scorecards merge into under \"soak\" (empty disables)")
	soakArg := flag.String("soak", "", "run the soak harness: smoke, full, or all")
	soakCompare := flag.String("soak-compare", "", "baseline BENCH_results.json whose soak scorecards must match byte-for-byte")
	flag.Parse()

	if err := runExperiments(os.Stdout, *only, *src); err != nil {
		fmt.Fprintf(os.Stderr, "ccai-bench: %v\n", err)
		os.Exit(1)
	}
	if *soakArg != "" {
		ok, err := runSoak(*soakArg, *soakCompare, *out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccai-bench: soak: %v\n", err)
		}
		if err != nil || !ok {
			os.Exit(1)
		}
	}
}

func experimentNames() []string {
	var names []string
	for _, e := range bench.Experiments("") {
		names = append(names, e.Name)
	}
	return names
}

// runExperiments prints the experiments -only selects: all of them when
// empty, none for "soak" (which leaves just the -soak harness).
func runExperiments(w io.Writer, only, src string) error {
	matched := only == "" || strings.EqualFold(only, "soak")
	for _, e := range bench.Experiments(src) {
		if only != "" && !strings.EqualFold(only, e.Name) {
			continue
		}
		matched = true
		out, err := e.Run(bench.Defaults())
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Fprintln(w, out)
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q (want %s or soak)", only, strings.Join(experimentNames(), ", "))
	}
	return nil
}

// runSoak runs the named presets, diffs each scorecard against the
// compare baseline and merges it into out (either may be empty). It
// reports false when a preset breached its budgets or drifted from the
// baseline.
func runSoak(preset, compare, out string) (bool, error) {
	var presets []soak.Config
	switch strings.ToLower(preset) {
	case "smoke":
		presets = []soak.Config{soak.Smoke()}
	case "full":
		presets = []soak.Config{soak.Full()}
	case "all":
		presets = []soak.Config{soak.Smoke(), soak.Full()}
	default:
		return false, fmt.Errorf("unknown preset %q (want smoke, full or all)", preset)
	}
	ok := true
	for _, cfg := range presets {
		sc, err := soak.Run(cfg)
		if err != nil {
			return false, err
		}
		fmt.Printf("soak/%s scorecard:\n%s", cfg.Preset, sc.Marshal())
		if !sc.WithinBudgets {
			fmt.Fprintf(os.Stderr, "ccai-bench: soak/%s breached its SLO budgets or oracles\n", cfg.Preset)
			ok = false
		}
		if compare != "" {
			if err := diffSoak(compare, cfg.Preset, sc); err != nil {
				fmt.Fprintf(os.Stderr, "ccai-bench: soak-compare: %v\n", err)
				ok = false
			} else {
				fmt.Printf("soak/%s scorecard matches baseline %s byte-for-byte\n", cfg.Preset, compare)
			}
		}
		if out != "" {
			if err := mergeSoak(out, cfg.Preset, sc); err != nil {
				return false, err
			}
		}
	}
	return ok, nil
}

// benchDoc is the BENCH_results.json document: the deterministic soak
// scorecards, keyed by preset. Each run rewrites only the presets it
// ran.
type benchDoc struct {
	Tool string                     `json:"tool"`
	Soak map[string]json.RawMessage `json:"soak,omitempty"`
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

// mergeSoak installs one preset's scorecard into the document's soak
// section, preserving the other presets.
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
