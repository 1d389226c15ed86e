package main

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRewriteSwapsMutexTypes(t *testing.T) {
	cases := []struct {
		name, src string
		replaced  int
		want      []string // substrings of the rewritten source
		wantNot   []string
	}{
		{
			name: "keeps sync for other uses",
			src: `package p

import (
	"sync"
)

type T struct {
	mu sync.Mutex
	rw *sync.RWMutex
	wg sync.WaitGroup
}
`,
			replaced: 2,
			want:     []string{`import lockcount "` + lockcountPath + `"`, "mu lockcount.Mutex", "rw *lockcount.RWMutex", "wg sync.WaitGroup", `"sync"`},
		},
		{
			name: "blanks an import left unused",
			src: `// Package p is documented.
package p

import "sync"

var mu sync.RWMutex
`,
			replaced: 1,
			want:     []string{`_ "sync"`, "var mu lockcount.RWMutex", "// Package p is documented."},
		},
		{
			name: "follows an aliased import",
			src: `package p

import s "sync"

type T struct{ mu s.Mutex }

var once s.Once
`,
			replaced: 1,
			want:     []string{"mu lockcount.Mutex", "var once s.Once"},
		},
		{
			name:    "leaves a file without mutexes alone",
			src:     "package p\n\nimport \"sync\"\n\nvar once sync.Once\n",
			wantNot: []string{"lockcount"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, n, err := rewrite("p.go", []byte(tc.src))
			if err != nil {
				t.Fatal(err)
			}
			if n != tc.replaced {
				t.Fatalf("replaced %d, want %d", n, tc.replaced)
			}
			if _, err := parser.ParseFile(token.NewFileSet(), "p.go", out, 0); err != nil {
				t.Fatalf("rewritten source does not parse: %v\n%s", err, out)
			}
			for _, w := range tc.want {
				if !strings.Contains(string(out), w) {
					t.Errorf("rewritten source lacks %q:\n%s", w, out)
				}
			}
			for _, w := range tc.wantNot {
				if strings.Contains(string(out), w) {
					t.Errorf("rewritten source has %q:\n%s", w, out)
				}
			}
		})
	}
}

// TestCopyRewrittenReadsOnly copies a small module: Go files outside
// benchmark/ and testdata arrive (tests left out), mutex types rewritten,
// the stand-ins' own package untouched, and the source tree unchanged.
func TestCopyRewrittenReadsOnly(t *testing.T) {
	root, dst := t.TempDir(), t.TempDir()
	files := map[string]string{
		"go.mod":                       "module ccai\n",
		"a.go":                         "package a\n\nimport \"sync\"\n\nvar mu sync.Mutex\n",
		"a_test.go":                    "package a\n",
		"benchmark/b.go":               "package main\n\nimport \"sync\"\n\nvar mu sync.Mutex\n",
		"internal/x/testdata/t.go":     "package t\n",
		lockcountDir + "/lockcount.go": "package lockcount\n\nimport \"sync\"\n\ntype Mutex struct{ mu sync.Mutex }\n",
	}
	for name, body := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	n, err := copyRewritten(root, dst)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("rewrote %d files, want 1", n)
	}
	for name, want := range map[string]bool{"go.mod": true, "a.go": true, "a_test.go": false, "benchmark/b.go": false,
		"internal/x/testdata/t.go": false, lockcountDir + "/lockcount.go": true} {
		_, err := os.Stat(filepath.Join(dst, filepath.FromSlash(name)))
		if got := err == nil; got != want {
			t.Errorf("%s copied: %v, want %v", name, got, want)
		}
	}
	if b, _ := os.ReadFile(filepath.Join(dst, "a.go")); !strings.Contains(string(b), "lockcount.Mutex") {
		t.Errorf("a.go not rewritten:\n%s", b)
	}
	if b, _ := os.ReadFile(filepath.Join(dst, lockcountDir, "lockcount.go")); string(b) != files[lockcountDir+"/lockcount.go"] {
		t.Errorf("the stand-ins' package was rewritten:\n%s", b)
	}
	for name, body := range files {
		if b, _ := os.ReadFile(filepath.Join(root, filepath.FromSlash(name))); string(b) != body {
			t.Errorf("source %s changed", name)
		}
	}
}
