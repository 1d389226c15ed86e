package ccai

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// surfaceSeams are the exported functions under internal/ that no
// program path calls and that stay anyway, each as a test seam for the
// check named beside it. The list is exact: an entry whose function is
// gone, or that a program path now calls, fails the scan too.
var surfaceSeams = map[string]string{
	"(*adaptor.Adaptor).StreamEpoch": "the protocol model holds both ends' key epochs to each other (I3, I8)",
	"(*attack.Snooper).Packets":      "the protocol model judges each op's host-segment packets",
	"(*attack.Snooper).Reset":        "the protocol model clears the capture between ops",
	"(*core.Controller).D2HProgress": "the D2H burst and release cells hold what the SC published to it",
	"(*core.Controller).HeldRuns":    "sliceHygiene and the protocol model count the command runs no device read has taken",
	"(*core.Controller).PendingTags": "sliceHygiene and the protocol model count the records no read has taken",
	"(*core.Controller).Regions":     "sliceHygiene and the protocol model count the SC's region records",
	"(*core.ParamsManager).Active":   "sliceHygiene: a torn-down slice holds no stream context",
	"(*llm.Engine).KVInUse":          "chassisHygiene: a chassis whose sessions are closed holds no KV",
	"(*llm.Engine).Pending":          "chassisHygiene: a chassis whose sessions are closed queues no step",
	"(*llm.Engine).StepLog":          "the protocol model awaits each settled step; the determinism cells",
	"(*mem.Buffer).Name":             "the role audit and the protocol model tell host buffers apart",
	"(*mem.IOMMU).Unmap":             "the churn test races revocation against the lock-free Check",
	"(*mem.Space).Live":              "sliceHygiene and the protocol model count live host buffers",
	"(*pcie.Bus).Owner":              "TestPlatformHostSideIsMux and TestBusDetach check who claims a window",
	"(*pcie.Bus).Detach":             "TestBusDetach and the churn test race it against the lock-free Route",
	"(*secmem.KeyStore).Count":       "sliceHygiene: a torn-down slice holds no key",
	"(*trace.Recorder).Retained":     "the telemetry leak check scans what the host segment carried",
	"(*xpu.Device).ColdBoots":        "the teardown cells check the guard's clean took the right reset",
	"(*xpu.Device).DevMem":           "the data-path cells check what a DMA left in device memory",
	"(*xpu.Device).EnvResets":        "the teardown cells check the guard's clean took the right reset",
	"(*xpu.Device).Executed":         "the command cells check which commands the device ran",
	"(secmem.Fence).Epoch":           "the fence cells check which epoch a fence pinned",
	"fault.UnmarshalPlan":            "the protocol model decodes saved traces' plans; FuzzFaultPlan holds its bounds",
	"leakcheck.Main":                 "TestMain of the root package and internal/adaptor",
	"obsv.SymbolCount":               "TestSymbolTableBounded holds the symbol table to MaxSymbols",
	"pcie.ArenaBlocks":               "TestPacketRecyclingRespectsTaps holds packet blocks flat",
}

// TestExportedSurfaceIsCalled type-checks every package of the module —
// internal/, cmd/, examples/ and the benchmark module, test files left
// out — and fails on an exported function or method under internal/
// that no non-test file references, unless it satisfies an interface
// its package links with (String, heap.Interface, a Tap or Handle
// callback) or surfaceSeams names it. What only tests call is not part
// of the program: delete it and check its fact through the program's
// own path, or keep it as a named seam.
func TestExportedSurfaceIsCalled(t *testing.T) {
	s := &surfaceScan{
		fset: token.NewFileSet(),
		std:  importer.Default(),
		dirs: map[string]string{},
		pkgs: map[string]*types.Package{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
		declared: map[*types.Func]ast.Node{},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		s.dirs[filepath.ToSlash(filepath.Join("ccai", path))] = path
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range slices.Sorted(maps.Keys(s.dirs)) {
		if _, err := s.Import(path); err != nil {
			t.Fatal(err)
		}
	}

	called := map[*types.Func]bool{}
	for id, obj := range s.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if decl := s.declared[fn]; decl != nil && decl.Pos() <= id.Pos() && id.Pos() < decl.End() {
			continue // a function calling itself is not a caller
		}
		called[fn] = true
	}
	ifaces := s.interfaces()
	exported, found := 0, map[string]bool{}
	for fn := range s.declared {
		if !fn.Exported() || !strings.HasPrefix(fn.Pkg().Path(), "ccai/internal/") || satisfiesInterface(fn, ifaces) {
			continue
		}
		exported++
		name := strings.ReplaceAll(fn.FullName(), "ccai/internal/", "")
		_, seam := surfaceSeams[name]
		found[name] = true
		switch {
		case called[fn] && seam:
			t.Errorf("%s is listed as a test seam but a program path calls it: drop it from surfaceSeams", name)
		case !called[fn] && !seam:
			t.Errorf("%s has no non-test caller: delete it and check its fact through the program's path, or list it in surfaceSeams with the check it serves", name)
		}
	}
	for name := range surfaceSeams {
		if !found[name] {
			t.Errorf("surfaceSeams lists %s, which no longer exists or satisfies an interface: drop the entry", name)
		}
	}
	t.Logf("%d exported functions under internal/ outside the interface rule, %d of them seams", exported, len(surfaceSeams))
}

// surfaceScan type-checks the module's packages from source, each once,
// in import order, into one shared Info; the standard library comes from
// export data.
type surfaceScan struct {
	fset     *token.FileSet
	std      types.Importer
	dirs     map[string]string // import path → directory
	pkgs     map[string]*types.Package
	info     *types.Info
	declared map[*types.Func]ast.Node // every function declared in the module
}

func (s *surfaceScan) Import(path string) (*types.Package, error) {
	dir, ok := s.dirs[path]
	if !ok {
		return s.std.Import(path)
	}
	if pkg, ok := s.pkgs[path]; ok {
		return pkg, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if _, none := err.(*build.NoGoError); none {
		s.pkgs[path] = nil
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(path, s.fset, files, s.info)
	if err != nil {
		return nil, err
	}
	s.pkgs[path] = pkg
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fn, ok := s.info.Defs[fd.Name].(*types.Func); ok {
					s.declared[fn] = fd
				}
			}
		}
	}
	return pkg, nil
}

// interfaces gathers every interface a module package declares, uses in
// an expression, or can name in a package it imports, error included.
func (s *surfaceScan) interfaces() []*types.Interface {
	var out []*types.Interface
	add := func(t types.Type) {
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 && named.TypeArgs().Len() == 0 {
			return
		}
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			out = append(out, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	scopes := map[*types.Package]bool{}
	for _, pkg := range s.pkgs {
		if pkg == nil {
			continue
		}
		scopes[pkg] = true
		for _, imp := range pkg.Imports() {
			scopes[imp] = true
		}
	}
	for pkg := range scopes {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	for _, tv := range s.info.Types {
		if tv.IsType() {
			add(tv.Type)
		}
	}
	return out
}

// satisfiesInterface reports whether fn is a method that its receiver
// type, or a pointer to it, has so as to implement one of ifaces.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, it := range ifaces {
		for i := range it.NumMethods() {
			if it.Method(i).Name() == fn.Name() &&
				(types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}
