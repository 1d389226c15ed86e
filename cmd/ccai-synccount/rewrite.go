package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// lockcountPath is the import path of the counting stand-ins, and
// lockcountDir its directory in the module, the one tree the rewrite
// leaves alone.
const (
	lockcountPath = "ccai/cmd/ccai-synccount/lockcount"
	lockcountDir  = "cmd/ccai-synccount/lockcount"
)

// copyRewritten copies the module at root into dst: go.mod, go.sum and
// every Go file that is not a test, outside benchmark/ (a module of its
// own), testdata and hidden directories. Every file but the stand-ins'
// own goes through rewrite. It reports how many files it rewrote.
func copyRewritten(root, dst string) (int, error) {
	rewritten := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			name := d.Name()
			if rel != "." && (strings.HasPrefix(name, ".") || name == "testdata" || rel == "benchmark") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		isGo := strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
		if !isGo && rel != "go.mod" && rel != "go.sum" {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if isGo && filepath.ToSlash(filepath.Dir(rel)) != lockcountDir {
			out, n, err := rewrite(rel, src)
			if err != nil {
				return err
			}
			if n > 0 {
				src = out
				rewritten++
			}
		}
		target := filepath.Join(dst, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(target), 0o755); err != nil {
			return err
		}
		return os.WriteFile(target, src, 0o644)
	})
	return rewritten, err
}

var packageClause = regexp.MustCompile(`(?m)^package [A-Za-z_][A-Za-z0-9_]*[^\n]*\n`)

// rewrite turns every sync.Mutex and sync.RWMutex type in one file into
// the lockcount stand-in of the same name, and returns the new source
// and how many it replaced. A file left with no other use of sync keeps
// the import blank, so it still compiles; the stand-ins' import goes in
// as a declaration of its own after the package clause.
func rewrite(name string, src []byte) ([]byte, int, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
	if err != nil {
		return nil, 0, err
	}
	var syncImp *ast.ImportSpec
	syncName := "sync"
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "sync" {
			syncImp = imp
			if imp.Name != nil {
				syncName = imp.Name.Name
			}
		}
	}
	if syncImp == nil || syncName == "_" || syncName == "." {
		return src, 0, nil
	}
	replaced, kept := 0, 0
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		x, ok := sel.X.(*ast.Ident)
		if !ok || x.Name != syncName {
			return true
		}
		if sel.Sel.Name == "Mutex" || sel.Sel.Name == "RWMutex" {
			x.Name = "lockcount"
			replaced++
		} else {
			kept++
		}
		return false
	})
	if replaced == 0 {
		return src, 0, nil
	}
	if kept == 0 {
		syncImp.Name = ast.NewIdent("_")
	}
	var buf bytes.Buffer
	if err := format.Node(&buf, fset, f); err != nil {
		return nil, 0, err
	}
	out := buf.Bytes()
	loc := packageClause.FindIndex(out)
	if loc == nil {
		return nil, 0, fmt.Errorf("%s: no package clause", name)
	}
	imp := fmt.Sprintf("\nimport lockcount %q\n", lockcountPath)
	out = append(out[:loc[1]:loc[1]], append([]byte(imp), out[loc[1]:]...)...)
	if out, err = format.Source(out); err != nil {
		return nil, 0, fmt.Errorf("%s: rewritten source: %w", name, err)
	}
	return out, replaced, nil
}
