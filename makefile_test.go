package ccai

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMakefileRunPatternsNameTests: a `go test -run` pattern that matches
// nothing passes silently, so a renamed or deleted test would drop out
// of its gate unseen. The top-level name (before any '/') of every
// alternative of every -run pattern in the Makefile must match a Test,
// Fuzz or Benchmark function of the module; '^$', which runs no test on
// purpose, is the one pattern that may match none.
func TestMakefileRunPatternsNameTests(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	var src []byte
	for _, glob := range []string{"*_test.go", "*/*_test.go", "*/*/*_test.go", "*/*/*/*_test.go"} {
		files, _ := filepath.Glob(glob)
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			src = append(src, b...)
		}
	}
	var names []string
	for _, m := range regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`).FindAllSubmatch(src, -1) {
		names = append(names, string(m[1]))
	}
	for _, m := range regexp.MustCompile(`-run[ =]'([^']*)'`).FindAllSubmatch(makefile, -1) {
		for _, alt := range strings.Split(strings.ReplaceAll(string(m[1]), "$$", "$"), "|") {
			top, _, _ := strings.Cut(alt, "/")
			if re := regexp.MustCompile(top); !re.MatchString("") && !slices.ContainsFunc(names, re.MatchString) {
				t.Errorf("Makefile -run alternative %q matches no Test, Fuzz or Benchmark function", alt)
			}
		}
	}
}
