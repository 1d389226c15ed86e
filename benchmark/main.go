// Command benchmark is the ccAI benchmark of record: four closed-loop
// workloads, end-to-end metrics that repeat (medians normalised to an
// in-run reference, exact counts, the analytic model) and per-layer
// metrics taken from outside the program. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// procs is the pinned GOMAXPROCS. Numbers from different proc counts do
// not compare (the Adaptor and the SC size their crypto pools from it), and
// at 1 an op's time is the CPU work it does. At 2 procs on a 2-vCPU guest
// every hand-off between goroutines wakes the other vCPU through the
// hypervisor: the op costs about twice as much, and how much is the host's
// to decide, so identical code does not repeat; see README.md. The layer
// phase reports the two-proc cost as run.procs2_x.
const procs = 1

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "all", "workload name, or all")
		seed      = fs.Uint64("seed", 1, "seed for payloads, kernel params, prompts, session seeds, burst order")
		seconds   = fs.Float64("seconds", defaultSeconds, "length of the timed window")
		traceOn   = fs.Int("trace", 0, "1 adds the layer phase and reports the per-layer metrics")
		scale     = fs.Float64("scale", 1, "shrink the window and every fixed batch (smoke runs)")
		jsonOut   = fs.String("json", "", "also write the full results to this file")
		outDir    = fs.String("out", "benchmark/out", "directory for the traced run's Chrome traces")
		selfcheck = fs.Bool("selfcheck", false, "determinism self-check: every workload at -scale 0.02, twice with one seed and once with another")
		agree     = fs.Bool("agree", false, "run two full sets back to back and compare them against the bounds")
		flip      = fs.Bool("flip-oracle", false, "corrupt one expected byte: the run must fail (tests the oracle)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(procs)

	var ws []*workload
	if *name == "all" {
		for i := range workloads {
			ws = append(ws, &workloads[i])
		}
	} else if w := findWorkload(*name); w != nil {
		ws = []*workload{w}
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	base := runConfig{seed: *seed, seconds: *seconds, scale: *scale, trace: *traceOn != 0, flipOracle: *flip, outDir: *outDir}

	switch {
	case *selfcheck:
		return selfCheck(ws, base, stdout, stderr)
	case *agree:
		return agreeCheck(ws, base, stdout, stderr)
	}

	var all []*result
	code := 0
	for _, w := range ws {
		cfg := base
		cfg.w = w
		res, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		all = append(all, res)
		printResult(stdout, res, cfg.trace)
		if !res.Correct {
			code = 1
		}
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, all); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return code
}

// printResult prints every metric as "name value unit", the phases'
// attempted/failed counts and the machine shape, then — as the last
// line — the one JSON object the driver reads.
func printResult(w io.Writer, r *result, trace bool) {
	m := r.Machine
	fmt.Fprintf(w, "# workload %s seed %d input_digest %s window %.3fs\n", r.Workload, r.Seed, r.InputDigest, r.WindowSeconds)
	fmt.Fprintf(w, "# machine nproc=%d gomaxprocs=%d %s %s/%s cpu=%q\n", m.NProc, m.GOMAXPROCS, m.GoVersion, m.GOOS, m.GOARCH, m.CPUModel)
	for _, p := range r.Phases {
		fmt.Fprintf(w, "# phase %-12s attempted %7d succeeded %7d failed %d\n", p.Name, p.Attempted, p.Attempted-p.Failed, p.Failed)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for i, l := range r.Layers {
		if i == 12 {
			break
		}
		fmt.Fprintf(w, "# traced self time %-34s %5.1f%% of op\n", l.Name, l.Share*100)
	}
	for _, mt := range r.Metrics {
		if mt.Samples > 0 {
			fmt.Fprintf(w, "%-36s %14.6f %-6s n=%d\n", mt.Name, mt.Value, mt.Unit, mt.Samples)
		} else {
			fmt.Fprintf(w, "%-36s %14.6f %s\n", mt.Name, mt.Value, mt.Unit)
		}
	}
	want := endToEnd
	if trace {
		want = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, mt := range r.Metrics {
		if mt.kind == want {
			line.Metrics[mt.Name] = value{mt.Value, mt.Unit}
		}
	}
	b, _ := json.Marshal(line) // plain numbers, strings and bools cannot fail to marshal
	fmt.Fprintf(w, "%s\n", b)
}

func writeJSON(path string, all []*result) error {
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
