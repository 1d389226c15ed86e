package ccai

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"ccai/internal/core"
	"ccai/internal/llm"
	"ccai/internal/pcie"
	"ccai/internal/xpu"
)

// roleAudit checks, on one segment, that every packet carries the role
// its target says it has and that every completion carries its
// request's. Routes on one bus nest (a handler routes on the same bus
// before it returns), so the open reads form a stack.
type roleAudit struct {
	t      *testing.T
	seg    string
	tn     *Tenant
	open   []pcie.Role
	counts map[string]int
}

func (a *roleAudit) Tap(p *pcie.Packet) *pcie.Packet {
	want := a.want(p)
	switch p.Kind {
	case pcie.MRd:
		a.open = append(a.open, p.Role)
	case pcie.Cpl, pcie.CplD:
		if n := len(a.open); n > 0 {
			want, a.open = a.open[n-1], a.open[:n-1]
		}
	}
	if p.Role == 0 || p.Role != want {
		a.t.Errorf("%s: %v carries role %v, want %v", a.seg, p, p.Role, want)
	}
	a.counts[p.Role.String()]++
	return p
}

// want is the one place a test ties a role to what a packet targets:
// the SC BAR offset, the xPU window, or the name of the host buffer at
// its address. Completions are judged by their request in Tap.
func (a *roleAudit) want(p *pcie.Packet) pcie.Role {
	tn := a.tn
	read := p.Kind == pcie.MRd
	inBar := func(base, size uint64) bool { return p.Address >= base && p.Address < base+size }
	switch {
	case p.Kind != pcie.MRd && p.Kind != pcie.MWr:
		return pcie.Role(0)
	case inBar(msiBase, msiSize):
		return pcie.RoleMSI
	case inBar(scBARBase, core.SCBarSize):
		switch {
		case read:
			return pcie.RoleRegRead
		case p.Address-scBARBase == core.RegRingDoorbell:
			return pcie.RoleRingDoorbell
		}
		return pcie.RoleControlWrite
	case inBar(tn.Device.BAR0().Base, xpu.BAR0Size):
		switch reg := p.Address - tn.Device.BAR0().Base; {
		case read:
			return pcie.RoleRegRead
		case reg == xpu.RegReset || reg == xpu.RegAttestNonce:
			return pcie.RoleControlWrite
		}
		return pcie.RoleGuardedWrite
	}
	buf, ok := tn.space.Resolve(p.Address)
	if !ok {
		a.t.Errorf("%s: %v targets no host buffer", a.seg, p)
		return pcie.Role(0)
	}
	switch name := buf.Name(); {
	case name == "dma-submitring" && read:
		return pcie.RoleSlotFetch
	case name == "dma-submitring" && p.Address-buf.Base() == core.RingHdrCplOff:
		return pcie.RoleCompletionWord
	case name == "dma-submitring":
		return pcie.RoleRingHead
	case name == "dma-metadata":
		return pcie.RoleMetadata
	case strings.HasPrefix(name, "cmdring"):
		return pcie.RoleCommandRun
	case strings.HasSuffix(name, "-tags"):
		return pcie.RoleTagRecord
	case read:
		return pcie.RoleH2DData
	}
	return pcie.RoleD2HData
}

// TestEveryPacketHasItsRole: across a 256 B task, a 64 KiB task, a
// prefill with 63 decode steps, a rekey, a teardown and a re-trust,
// every packet on both segments of a protected slice carries a non-zero
// role that agrees with the register or host buffer it targets, and
// every completion its request's role.
func TestEveryPacketHasItsRole(t *testing.T) {
	mp := llmChassis(t, []xpu.Profile{xpu.A100}, WithLLMEngine(llm.EngineConfig{Workers: 1}))
	tn := mp.Tenants[0]
	host := &roleAudit{t: t, seg: "host", tn: tn, counts: map[string]int{}}
	internal := &roleAudit{t: t, seg: "internal", tn: tn, counts: map[string]int{}}
	mp.Host.AddTap(host)
	tn.internal.AddTap(internal)

	for _, n := range []int{256, 64 << 10} {
		if _, err := tn.RunTask(Task{Input: make([]byte, n), Kernel: KernelAdd, Param: 1}); err != nil {
			t.Fatal(err)
		}
	}
	cfg := llm.Config{MaxNewTokens: 512, ChunkTokens: 8, MaxPromptTokens: 16, Seed: 0x401e}
	prompt := []byte("sixteen tokens of prompt for the role audit, staged once!")
	s, ch := openStream(t, tn, cfg, prompt)
	collectStream(t, ch)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Past the rekey threshold, the next task's staging rotates h2d.
	if err := tn.Adaptor.ForceStreamCounter(core.StreamH2D, ^uint32(0)-8); err != nil {
		t.Fatal(err)
	}
	if _, err := tn.RunTask(Task{Input: make([]byte, 256), Kernel: KernelAdd, Param: 1}); err != nil {
		t.Fatal(err)
	}
	tn.Close()
	if err := tn.EstablishTrust(); err != nil {
		t.Fatal(err)
	}
	if _, err := tn.RunTaskCtx(context.Background(), Task{Input: make([]byte, 256), Kernel: KernelAdd, Param: 1}); err != nil {
		t.Fatal(err)
	}
	for _, a := range []*roleAudit{host, internal} {
		t.Logf("%s: %v", a.seg, a.counts)
	}
	for _, r := range pcie.Roles() {
		if host.counts[r.String()]+internal.counts[r.String()] == 0 {
			t.Errorf("no packet of role %v crossed either segment", r)
		}
	}
}

// TestRoleNeverDecides: a packet's role is stamped by its sender and
// read by tests and fault plans, never by the components that decide
// what a packet may do. No non-test file of the SC, the Adaptor, the
// xPU or the crypto layer reads a .Role; it may only assign one.
func TestRoleNeverDecides(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"internal/core", "internal/adaptor", "internal/xpu", "internal/secmem"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files (%v)", dir, err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			stamps := map[ast.Expr]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						stamps[lhs] = true
					}
				case *ast.SelectorExpr:
					if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "pcie" {
						return true // the type pcie.Role, not a packet's field
					}
					if n.Sel.Name == "Role" && !stamps[n] {
						t.Errorf("%v: reads a packet's role", fset.Position(n.Pos()))
					}
				}
				return true
			})
		}
	}
}
