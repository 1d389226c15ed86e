package bench

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden from the current cost model")

// TestExperimentsGolden pins the rendered text of every paper experiment
// under the default cost model, so a refactor that moves a figure fails
// here instead of in a hand diff of `ccai-bench -only <name>`. Table 3 is
// left out: its LoC rows move with the code. Regenerate only when a
// figure is meant to move: go test ./internal/bench -run
// TestExperimentsGolden -update.
func TestExperimentsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden figures are rendered on amd64; Go may fuse multiply-adds on %s, which moves the last printed digit", runtime.GOARCH)
	}
	var b strings.Builder
	for _, e := range Experiments("") {
		if e.Name == "table3" {
			continue
		}
		out, err := e.Run(Defaults())
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		b.WriteString("=== " + e.Name + "\n" + out)
	}
	got := b.String()
	path := filepath.Join("testdata", "experiments.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("experiments differ from %s at line %d:\n got  %q\n want %q", path, i+1, g, w)
		}
	}
}
