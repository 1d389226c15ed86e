package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// spec mirrors the parts of BENCHMARK.json the tests check.
type spec struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []specMetric                 `json:"end_to_end"`
	PerLayer  []specMetric                 `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runBench runs the command in-process and returns its exit code, the
// "name → unit" of every printed metric line, and the final JSON line.
func runBench(t *testing.T, args ...string) (code int, units map[string]string, last resultLine, out string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code = realMain(append(args, "-out", t.TempDir()), &stdout, &stderr)
	out = stdout.String()
	units = map[string]string{}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) >= 3 && !strings.HasPrefix(l, "#") && !strings.HasPrefix(l, "{") {
			units[f[0]] = f[2]
		}
	}
	if len(lines) > 0 && strings.HasPrefix(lines[len(lines)-1], "{") {
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("last line is not the result object: %v", err)
		}
	}
	if stderr.Len() > 0 {
		t.Logf("stderr: %s", stderr.String())
	}
	return code, units, last, out
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs all four workloads at -scale 0.01 and checks the
// command against BENCHMARK.json: every named metric printed with its
// unit, the result line carrying exactly the end-to-end set without
// tracing and exactly the per-layer set with it, and the decomposed op
// closing (a failed closure check makes the run incorrect).
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]specMetric{}, s.EndToEnd...), s.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q outside [A-Za-z0-9_.-]", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %q named twice", m.Name)
		}
		seen[m.Name] = true
	}
	if len(s.EndToEnd) != len(e2eBounds) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, check.go %d", len(s.EndToEnd), len(e2eBounds))
	}
	for i, m := range s.EndToEnd {
		if m.Name != e2eBounds[i].name || m.Bound != e2eBounds[i].bound || m.Better != e2eBounds[i].better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, check.go %+v", i, m, e2eBounds[i])
		}
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(s.Workloads), len(workloads))
	}

	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, the command %q", i, w.Name, workloads[i].name)
		}
		for _, tc := range []struct {
			trace string
			want  []specMetric
		}{{"0", s.EndToEnd}, {"1", s.PerLayer}} {
			code, units, last, out := runBench(t, "-workload", w.Name, "-scale", "0.01", "-trace", tc.trace)
			if code != 0 || !last.Correct || last.Failed != 0 || last.Attempted < 1 {
				t.Fatalf("%s -trace %s: exit %d, result %+v\n%s", w.Name, tc.trace, code, last, out)
			}
			if len(last.Metrics) != len(tc.want) {
				t.Errorf("%s -trace %s: result line has %d metrics, want %d", w.Name, tc.trace, len(last.Metrics), len(tc.want))
			}
			for _, m := range tc.want {
				if units[m.Name] != m.Unit {
					t.Errorf("%s -trace %s: %s printed with unit %q, want %q", w.Name, tc.trace, m.Name, units[m.Name], m.Unit)
				}
				if got, ok := last.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s -trace %s: result line has %s = %+v, want unit %q", w.Name, tc.trace, m.Name, got, m.Unit)
				}
			}
			for _, m := range s.EndToEnd {
				if tc.trace == "0" && last.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.Name, m.Name, last.Metrics[m.Name].Value)
				}
			}
		}
	}
}

// TestOracleHasTeeth flips one byte of what the host oracle expects and
// requires the command to notice: non-zero exit, fail_share above 0.
func TestOracleHasTeeth(t *testing.T) {
	for _, w := range workloads {
		code, _, last, out := runBench(t, "-workload", w.name, "-scale", "0.01", "-flip-oracle")
		if code == 0 || last.Correct || last.Failed == 0 {
			t.Errorf("%s: a corrupted oracle went unnoticed: exit %d, result %+v", w.name, code, last)
		}
		m := regexp.MustCompile(`(?m)^fail_share\s+([0-9.]+)`).FindStringSubmatch(out)
		if m == nil || strings.Trim(m[1], "0.") == "" {
			t.Errorf("%s: fail_share not above 0 in:\n%s", w.name, out)
		}
	}
}

// TestSelfCheck runs the determinism self-check on one workload.
func TestSelfCheck(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-selfcheck", "-workload", "llm-prefill"}, &stdout, &stderr); code != 0 {
		t.Fatalf("selfcheck exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
}

func TestSelfTimes(t *testing.T) {
	// parent [0,100) with children [10,30) and [50,90); grandchild [60,70).
	self := selfTimes([]interval{
		{"parent", 0, 100}, {"child", 10, 30}, {"child", 50, 90}, {"grand", 60, 70},
	})
	want := map[string]int64{"parent": 40, "child": 50, "grand": 10}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, self[k], v)
		}
	}
}

// TestUndisturbed checks which ops the op_p50_xref estimator keeps: those
// whose quietRun reference groups before and after stayed within
// quietSlack of the floor.
func TestUndisturbed(t *testing.T) {
	const q, b = 100 * time.Microsecond, 130 * time.Microsecond // undisturbed, neighbour running
	s := sample{
		// Groups 0..7 around ops 0..6; group 5 has one slow iteration,
		// group 7 is slow throughout.
		ref: []time.Duration{
			q, q, q, q, 105 * time.Microsecond, q, q, q, q, q, q, q,
			q, q, q, q, b, q, q, q, q, b, b, b},
		lat: []time.Duration{1, 2, 3, 4, 5, 6, 7},
	}
	lat, ref := s.undisturbed(q)
	// Op i needs groups i-1..i+2: op 0 has no group before group 0, ops 3..6
	// reach group 5 or 7.
	if len(lat) != 2 || lat[0] != 2 || lat[1] != 3 {
		t.Errorf("undisturbed ops = %v, want ops 1 and 2", lat)
	}
	if len(ref) != 18 {
		t.Errorf("%d undisturbed reference iterations, want the 18 of groups 0-4 and 6", len(ref))
	}
}
