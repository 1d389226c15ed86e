package ccai

// The wire ledger: what every fixed op shape puts on each PCIe segment,
// by packet role, in one table — testdata/wire_ledger.golden. The §5 I/O
// optimisations (batched doorbells, one notify per encrypted region,
// completions reaped from host memory) are rows of it, so a moved row
// names the shape, the segment and the role that moved. Regenerate it
// with `go test -run TestWireLedger -update .` only when the wire is
// meant to move, and say which rows moved and why.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ccai/internal/adaptor"
	"ccai/internal/core"
	"ccai/internal/fault"
	"ccai/internal/llm"
	"ccai/internal/obsv"
	"ccai/internal/pcie"
	"ccai/internal/xpu"
)

// ledgerHeader opens the golden file. A row is a shape's count, payload
// bytes and a digest, in order, of the requester, address, length and
// payload length of its packets of one role and kind on one segment; a
// segment's order row digests its (role, kind) sequence.
const ledgerHeader = `# The wire ledger (wire_ledger_test.go). Regenerate with: go test -run TestWireLedger -update .
# shape              segment  role             kind count   bytes digest
`

// shapeWire is what an op shape cost: the rows of both segments (no
// internal one on a Vanilla platform), five counts — Adaptor.IO()'s
// MMIO writes and reads, the SC's config-stream opens (descriptor
// installs), the adaptor.mmio.writes counter and the adaptor.ring.entries
// counter (ring entries pushed: over the slot-fetch bytes, how many
// entries share a slot) — and its AES-GCM calls.
type shapeWire struct {
	host, inner []wireRow
	counts      [5]uint64
	crypto      gcmCalls
}

// gcmCalls is what the secmem.seal and secmem.open counters counted, by
// side and call: "sc open-h2d" → {calls, bytes}.
type gcmCalls map[string][2]uint64

// readGCMCalls collects the seal and open counters of a registry
// snapshot, e.g. secmem.open.ops{stream=h2d,side=crypto/sc}.
func readGCMCalls(counters map[string]uint64) gcmCalls {
	calls := gcmCalls{}
	for name, v := range counters {
		base, labels, ok := strings.Cut(strings.TrimSuffix(name, "}"), "{")
		op, what, _ := strings.Cut(strings.TrimPrefix(base, "secmem."), ".")
		if !ok || (op != "seal" && op != "open") || (what != "ops" && what != "bytes") {
			continue
		}
		var side, stream string
		for _, kv := range strings.Split(labels, ",") {
			switch k, v, _ := strings.Cut(kv, "="); k {
			case "side":
				side = strings.TrimPrefix(v, obsv.TrackCrypto+"/")
			case "stream":
				stream = v
			}
		}
		key, i := side+" "+op+"-"+stream, 0
		if what == "bytes" {
			i = 1
		}
		c := calls[key]
		c[i] += v
		calls[key] = c
	}
	return calls
}

// minus is what c counted past o.
func (c gcmCalls) minus(o gcmCalls) gcmCalls {
	d := gcmCalls{}
	for k, v := range c {
		d[k] = [2]uint64{v[0] - o[k][0], v[1] - o[k][1]}
	}
	return d
}

// digest is a short digest of vs, printed one a line.
func digest[T any](vs []T) string {
	h := sha256.New()
	for _, v := range vs {
		fmt.Fprintln(h, v)
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

func ledgerLine(shape, segment, role, kind string, count, size any, sum string) string {
	return fmt.Sprintf("%-18s %-8s %-16s %-4s %5v %7v %s", shape, segment, role, kind, count, size, sum)
}

// lines is the shape's part of the ledger: per segment one row for each
// role and kind, in that order, then the segment's order row; then the
// first three counts and the ring entries; then, per side, one gcm row
// for each seal or open stream it called, its calls and bytes. w may hold
// steps alike steps, one after another: counts and bytes are then per
// step, digests over them all.
func (w shapeWire) lines(shape string, steps int) []string {
	var out []string
	for i, rows := range [][]wireRow{w.host, w.inner} {
		seg := [...]string{"host", "internal"}[i]
		if rows == nil {
			return out // Vanilla
		}
		by, bytesBy, order, payload := map[[2]int][][4]uint64{}, map[[2]int]int{}, [][2]int(nil), 0
		for _, r := range rows {
			k := [2]int{int(r.role), int(r.kind)}
			by[k], order = append(by[k], [4]uint64{uint64(r.req), r.addr, uint64(r.length), uint64(r.payload)}), append(order, k)
			bytesBy[k], payload = bytesBy[k]+r.payload, payload+r.payload
		}
		for _, k := range slices.SortedFunc(maps.Keys(by), func(a, b [2]int) int { return slices.Compare(a[:], b[:]) }) {
			out = append(out, ledgerLine(shape, seg, pcie.Role(k[0]).String(), pcie.Kind(k[1]).String(), len(by[k])/steps, bytesBy[k]/steps, digest(by[k])))
		}
		out = append(out, ledgerLine(shape, seg, "order", "-", len(rows)/steps, payload/steps, digest(order)))
	}
	for i, c := range []string{0: "adaptor mmio-writes", 1: "adaptor mmio-reads", 2: "sc installs", 4: "adaptor ring-entries"} {
		if c == "" {
			continue
		}
		seg, what, _ := strings.Cut(c, " ")
		out = append(out, ledgerLine(shape, seg, what, "-", w.counts[i]/uint64(steps), "-", "-"))
	}
	for _, k := range slices.Sorted(maps.Keys(w.crypto)) {
		if c := w.crypto[k]; c[0] > 0 {
			side, call, _ := strings.Cut(k, " ")
			out = append(out, ledgerLine(shape, side, call, "gcm", c[0]/uint64(steps), c[1]/uint64(steps), "-"))
		}
	}
	return out
}

// commandRuns is the (address, length) of every command-run read in rows.
func commandRuns(rows []wireRow) [][2]uint64 {
	var runs [][2]uint64
	for _, r := range rows {
		if r.kind == pcie.MRd && r.role == pcie.RoleCommandRun {
			runs = append(runs, [2]uint64{r.addr, uint64(r.length)})
		}
	}
	return runs
}

// check holds a protected shape to what the ledger computes but does not
// pin: the MMIO writes IO() counts are the adaptor.mmio.writes counter's
// and the host segment's ring-doorbell, guarded-write and control-write
// MWrs, the reads it counts are the host's reg-read MRds, and no command
// run crosses the host segment: the SC answers the device's reads of
// its ring from the runs the sealed spans carried.
func (w shapeWire) check(t *testing.T, shape string) {
	t.Helper()
	var writes, reads uint64
	for _, r := range w.host {
		switch {
		case r.kind == pcie.MWr && (r.role == pcie.RoleRingDoorbell || r.role == pcie.RoleGuardedWrite || r.role == pcie.RoleControlWrite):
			writes++
		case r.kind == pcie.MRd && r.role == pcie.RoleRegRead:
			reads++
		}
	}
	if w.counts[0] != w.counts[3] || w.counts[0] != writes || w.counts[1] != reads {
		t.Errorf("%s: IO() moved %d MMIO writes and %d reads, adaptor.mmio.writes %d; the host segment carries %d ring-doorbell + guarded-write + control-write MWrs and %d reg-read MRds",
			shape, w.counts[0], w.counts[1], w.counts[3], writes, reads)
	}
	if host := commandRuns(w.host); len(host) != 0 {
		t.Errorf("%s: the SC fetched command runs from the host: %v", shape, host)
	}
}

// ledgerPrompt is the prompt of the ledger's llm-decode session.
var ledgerPrompt = []byte("sixteen tokens of prompt, staged once")

// between is what a slice carried and counted from mark a to mark b.
func between(a, b shapeWire) shapeWire {
	w := shapeWire{host: slices.Clone(b.host[len(a.host):]), inner: slices.Clone(b.inner[len(a.inner):]), crypto: b.crypto.minus(a.crypto)}
	for i := range w.counts {
		w.counts[i] = b.counts[i] - a.counts[i]
	}
	return w
}

// ledgerChassis is the ledger's slice, trust not yet established:
// tenant 0 of a one-tenant observed chassis with one inference worker,
// and a mark of where it stands — every row so far, and the counts.
func ledgerChassis(t *testing.T) (*MultiPlatform, *Tenant, func() shapeWire) {
	t.Helper()
	mp, err := NewMultiPlatform([]xpu.Profile{xpu.A100}, WithObserve(), WithLLMEngine(llm.EngineConfig{Workers: 1}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mp.Close)
	tn := mp.Tenants[0]
	host, inner := recordWire(mp.Host), recordWire(tn.internal)
	return mp, tn, func() shapeWire {
		io, c := tn.Adaptor.IO(), mp.Obs.Reg().Snapshot().Counters
		m := shapeWire{host: *host, inner: *inner, counts: [5]uint64{io.MMIOWrites, io.MMIOReads, 0, c["adaptor.mmio.writes"], c["adaptor.ring.entries"]}, crypto: readGCMCalls(c)}
		for name, v := range c {
			if strings.HasPrefix(name, "secmem.open.ops{") && strings.Contains(name, "side=crypto/sc") &&
				strings.Contains(name, "stream="+core.StreamConfig) {
				m.counts[2] += v
			}
		}
		return m
	}
}

// measureSession runs an llm-decode session (decodeCfg) of prompt on tn
// and returns a mark taken at every dispatch, by the one worker just
// before the step runs — marks[i] is before step i (0 = prefill) — and
// what the session cost whole.
func measureSession(t *testing.T, mp *MultiPlatform, tn *Tenant, mark func() shapeWire, prompt []byte) ([]shapeWire, shapeWire) {
	t.Helper()
	var marks []shapeWire
	mp.SetLLMFaultHook(func(point string) bool {
		if point == fault.SchedPointDequeue {
			marks = append(marks, mark())
		}
		return false
	})
	before := mark()
	runSession(t, tn, decodeCfg, prompt)
	session := between(before, mark())
	mp.SetLLMFaultHook(nil)
	if len(marks) != decodeCfg.Chunks() {
		t.Fatalf("%d dispatches marked, want %d", len(marks), decodeCfg.Chunks())
	}
	return marks, session
}

// profile is ledger lines without their shape and digest columns: what
// a shape costs, wherever on the rings it ran.
func profile(lines []string) string {
	var b strings.Builder
	for _, l := range lines {
		b.WriteString(l[19:strings.LastIndexByte(l, ' ')] + "\n")
	}
	return b.String()
}

// goldenShape is shape's rows of testdata/wire_ledger.golden on the
// given segments.
func goldenShape(t *testing.T, shape string, segments ...string) []string {
	t.Helper()
	golden, err := os.ReadFile(filepath.Join("testdata", "wire_ledger.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, l := range strings.Split(string(golden), "\n") {
		if f := strings.Fields(l); len(f) == 7 && f[0] == shape && slices.Contains(segments, f[1]) {
			rows = append(rows, l)
		}
	}
	if len(rows) == 0 {
		t.Fatalf("the wire ledger has no %s row on %v", shape, segments)
	}
	return rows
}

// goldenCount is the count column of the ledger's one row of shape,
// segment, role and kind.
func goldenCount(t *testing.T, shape, segment, role, kind string) uint64 {
	t.Helper()
	for _, l := range goldenShape(t, shape, segment) {
		if f := strings.Fields(l); f[2] == role && f[3] == kind {
			n, err := strconv.ParseUint(f[4], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("the wire ledger has no %s %s %s %s row", shape, segment, role, kind)
	return 0
}

// TestWireLedger drives the fixed op shapes and diffs their ledger
// against testdata/wire_ledger.golden. On tenant 0 of a one-tenant
// observed chassis with one inference worker: cold bring-up; the
// llm-decode session (16-token prompt, 512 tokens in 8-token chunks) —
// its 4-command prefill, every steady decode step grouped by identical
// ledger, and the session whole; a 256 B, 4 KiB, 8 KiB and 64 KiB task,
// each after a warm-up task of its size; Close plus re-trust, and the
// 64 KiB task that is the first of the new trust generation. On a
// Vanilla platform, a 64 KiB task after its warm-up.
func TestWireLedger(t *testing.T) {
	var ledger []string
	add := func(shape string, w shapeWire) {
		if w.inner != nil {
			w.check(t, shape)
		}
		ledger = append(ledger, w.lines(shape, 1)...)
	}
	task := func(n int) Task { return Task{Input: bytes.Repeat([]byte{7}, n), Kernel: KernelXOR, Param: 0x5a} }

	mp, tn, mark := ledgerChassis(t)
	measure := func(op func() error) shapeWire {
		a := mark()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		return between(a, mark())
	}
	add("bring-up", measure(tn.EstablishTrust))
	chassisHygiene(t, mp)

	marks, session := measureSession(t, mp, tn, mark, ledgerPrompt)
	add("prefill", between(marks[0], marks[1]))
	// Decode step 1 opens the step channel and the last one is followed
	// by its release: the steps between are the steady state, grouped by
	// their ledger but for its digests, and named by whether a step's
	// commands are one command run or, straddling the ring's end, two. A
	// group's llm steps row digests the steps it holds.
	groups, steps := map[string]*shapeWire{}, map[string][]int{}
	var profiles []string
	for i := 2; i < len(marks)-1; i++ {
		w := between(marks[i], marks[i+1])
		w.check(t, fmt.Sprintf("decode step %d", i))
		key := profile(w.lines("", 1))
		g := groups[key]
		if g == nil {
			g, profiles = &shapeWire{crypto: gcmCalls{}}, append(profiles, key)
			groups[key] = g
		}
		g.host, g.inner, steps[key] = append(g.host, w.host...), append(g.inner, w.inner...), append(steps[key], i)
		for k := range w.counts {
			g.counts[k] += w.counts[k]
		}
		for k, c := range w.crypto {
			g.crypto[k] = [2]uint64{g.crypto[k][0] + c[0], g.crypto[k][1] + c[1]}
		}
	}
	named := map[string]int{}
	for _, p := range profiles {
		g, n, name := groups[p], len(steps[p]), "decode-step"
		if len(commandRuns(g.inner)) > n {
			name = "decode-step-wrap"
		}
		if named[name]++; named[name] > 1 {
			name = fmt.Sprintf("%s.%d", name, named[name])
		}
		ledger = append(append(ledger, g.lines(name, n)...), ledgerLine(name, "llm", "steps", "-", n, "-", digest(steps[p])))
	}
	if named["decode-step-wrap"] == 0 {
		t.Error("no steady decode step straddled the command ring's end: the two-run step went unmeasured")
	}
	add("decode-session", session)

	for _, size := range []struct {
		name string
		n    int
	}{{"256B", 256}, {"4KiB", 4 << 10}, {"8KiB", 8 << 10}, {"64KiB", 64 << 10}} {
		run := func() error { _, err := tn.RunTask(task(size.n)); return err }
		if err := run(); err != nil { // warm-up
			t.Fatal(err)
		}
		add("task-"+size.name, measure(run))
	}
	add("close-retrust", measure(func() error { tn.Close(); return tn.EstablishTrust() }))
	// The first task of a trust generation: the SC has posted no
	// completion word yet.
	add("task-64KiB-first", measure(func() error { _, err := tn.RunTask(task(64 << 10)); return err }))

	p := vanillaPlatform(t, xpu.A100)
	vanilla, n := recordWire(p.Host), 0
	for range 2 { // a warm-up, then the task measured
		n = len(*vanilla)
		if _, err := p.RunTask(task(64 << 10)); err != nil {
			t.Fatal(err)
		}
	}
	add("vanilla-task-64KiB", shapeWire{host: (*vanilla)[n:]})

	got, golden := ledgerHeader+strings.Join(ledger, "\n")+"\n", filepath.Join("testdata", "wire_ledger.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	// A row that moved shows as the golden row not produced and the row
	// produced instead, each naming its shape, segment, role and kind.
	rows := func(s string) []string {
		return slices.DeleteFunc(strings.Split(s, "\n"), func(l string) bool { return l == "" || l[0] == '#' })
	}
	gotRows, wantRows := rows(got), rows(string(want))
	for _, d := range []struct {
		what     string
		from, in []string
	}{{"golden row not produced", wantRows, gotRows}, {"row produced, not in the golden", gotRows, wantRows}} {
		for _, l := range d.from {
			if !slices.Contains(d.in, l) {
				t.Errorf("%s: %s", d.what, l)
			}
		}
	}
}

// The tests below hold the paper's §5 claims to the ledger: each drives
// its own platform and reads the figure it expects from the golden rows,
// so a claim and the table cannot drift apart.

// TestOptimizationReducesIOWrites: what the §5 batching leaves of the
// control path's I/O on a protected Platform is the ledger's — trust
// bring-up costs the bring-up rows' MMIO writes (metadata and ring
// placement, and the ring doorbells that deliver the command ring's
// descriptor and the driver's guarded bring-up writes as ring entries),
// an 8 KiB task — 32 tag records — the task-8KiB rows' (two ring
// doorbells: the submission's, which carries input, output, the command
// run and the guarded writes, and the releases'), and neither an MMIO
// read. The unoptimized figure these stand against is Figure
// 11's, held by TestDecompositionEndpointsMatchFigure11 in internal/bench.
func TestOptimizationReducesIOWrites(t *testing.T) {
	ledger := func(shape string) adaptor.IOStats {
		return adaptor.IOStats{MMIOWrites: goldenCount(t, shape, "adaptor", "mmio-writes", "-"), MMIOReads: goldenCount(t, shape, "adaptor", "mmio-reads", "-")}
	}
	p, err := New(WithMode(Protected))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.EstablishTrust(); err != nil {
		t.Fatal(err)
	}
	up := ledger("bring-up")
	if got := p.Adaptor.IO(); got != up {
		t.Fatalf("trust bring-up I/O = %+v, the ledger's bring-up rows %+v", got, up)
	}
	input := make([]byte, 8192) // 32 chunks => 32 tag records
	if _, err := p.RunTask(Task{Input: input, Kernel: KernelAdd, Param: 1}); err != nil {
		t.Fatal(err)
	}
	task := ledger("task-8KiB")
	if got, want := p.Adaptor.IO(), (adaptor.IOStats{MMIOWrites: up.MMIOWrites + task.MMIOWrites}); got != want || task.MMIOReads != 0 {
		t.Fatalf("I/O after one 8 KiB task = %+v, want %+v (the ledger's task-8KiB rows: %+v)", got, want, task)
	}
}

// TestRingCutsMMIOWritesAtLeast4x: a 64 KiB staged task costs the
// task-64KiB row's MMIO writes, measured through the obsv counter — the
// five ring doorbells of input, output, submission and two releases;
// the device doorbell rides the submission's burst as a guarded entry —
// and the counter is the one IO reports. However many tag
// records a task stages, its MMIO writes do not grow: every task shape
// of the ledger has the same. One write per operation would be 39 for
// this task; that ratio is Figure 11's, held in internal/bench.
func TestRingCutsMMIOWritesAtLeast4x(t *testing.T) {
	want := goldenCount(t, "task-64KiB", "adaptor", "mmio-writes", "-")
	for _, shape := range []string{"task-256B", "task-4KiB", "task-8KiB", "task-64KiB-first"} {
		if n := goldenCount(t, shape, "adaptor", "mmio-writes", "-"); n != want {
			t.Errorf("the ledger's %s costs %d MMIO writes, task-64KiB %d: a task's writes grow with its size", shape, n, want)
		}
	}
	p := observedPlatform(t)
	in := bytes.Repeat([]byte{0x42}, 64<<10)
	before, io := p.MetricsSnapshot().Counters["adaptor.mmio.writes"], p.Adaptor.IO().MMIOWrites
	if _, err := p.RunTask(Task{Input: in, Kernel: KernelAdd, Param: 1}); err != nil {
		t.Fatal(err)
	}
	got := p.MetricsSnapshot().Counters["adaptor.mmio.writes"] - before
	if got != want {
		t.Fatalf("64 KiB task cost %d MMIO writes, the ledger's task-64KiB row %d", got, want)
	}
	if ioGot := p.Adaptor.IO().MMIOWrites - io; ioGot != got {
		t.Fatalf("adaptor.mmio.writes moved %d, IO().MMIOWrites %d", got, ioGot)
	}
}

// steadyReads is what a steady-state 64 KiB task costs in MMIO reads by
// the ledger: none, for the SC posts a completion word to host memory
// and the adaptor reaps completions from it (the guarded read it
// replaces is one per task — the ratio is Figure 11's, in internal/bench).
func steadyReads(t *testing.T) uint64 {
	t.Helper()
	reads := goldenCount(t, "task-64KiB", "adaptor", "mmio-reads", "-")
	if words := goldenCount(t, "task-64KiB", "host", "completion-word", "MWr"); reads != 0 || words == 0 {
		t.Fatalf("the ledger's task-64KiB costs %d MMIO reads and carries %d completion-word MWrs: completions are not reaped from host memory", reads, words)
	}
	return reads
}

// TestCompletionReapHalvesMMIOReads: a protected Platform's steady-state
// 64 KiB task reads its completions from the completion word, costing
// the ledger's task-64KiB MMIO reads: none.
func TestCompletionReapHalvesMMIOReads(t *testing.T) {
	want := steadyReads(t)
	p := protectedPlatform(t, xpu.A100)
	task := Task{Input: make([]byte, 64<<10), Kernel: KernelXOR, Param: 1}
	if _, err := p.RunTask(task); err != nil { // warm-up
		t.Fatal(err)
	}
	before := p.Adaptor.IO().MMIOReads
	if _, err := p.RunTask(task); err != nil {
		t.Fatal(err)
	}
	if reads := p.Adaptor.IO().MMIOReads - before; reads != want {
		t.Fatalf("steady-state 64 KiB task issued %d completion MMIO reads, want %d", reads, want)
	}
}

// TestCompletionReapCoversTenants: the multi-tenant assembly arms
// reaping on every tenant, not only on the tenant the ledger measures —
// each tenant's steady-state task serves its completion polls from host
// memory. (The wiring lives in addTenant; before it existed, every
// tenant silently rode the MMIO fallback while the single-tenant
// platform reaped.)
func TestCompletionReapCoversTenants(t *testing.T) {
	want := steadyReads(t)
	mp := servingPlatform(t, 2)
	task := Task{Input: make([]byte, 64<<10), Kernel: KernelXOR, Param: 1}
	for _, tn := range mp.Tenants {
		if _, err := tn.RunTask(task); err != nil { // warm-up
			t.Fatal(err)
		}
		before := tn.Adaptor.IO().MMIOReads
		if _, err := tn.RunTask(task); err != nil {
			t.Fatal(err)
		}
		if reads := tn.Adaptor.IO().MMIOReads - before; reads != want {
			t.Fatalf("tenant %d: steady-state 64 KiB task issued %d completion MMIO reads, want %d (reaping not armed)",
				tn.Index, reads, want)
		}
	}
}

// TestDecodeStepWireBudget: the price of a decode step on both segments
// does not depend on the prompt. A session of another prompt than the
// ledger's is marked at every dispatch, and every steady decode step
// must cost exactly the ledger's decode-step rows or, straddling the end
// of the command ring, its decode-step-wrap rows — as many of each as
// the ledger counts — and the session as many descriptor installs as
// the ledger's decode-session.
func TestDecodeStepWireBudget(t *testing.T) {
	mp, tn, mark := ledgerChassis(t)
	if err := tn.EstablishTrust(); err != nil {
		t.Fatal(err)
	}
	chassisHygiene(t, mp)
	marks, session := measureSession(t, mp, tn, mark, []byte("sixteen tokens of prompt, sealed and staged once, never again!!!"))

	segments := []string{"host", "internal", "adaptor", "sc"}
	shapes := map[string]string{}
	want, got := map[string]uint64{}, map[string]uint64{}
	for _, shape := range []string{"decode-step", "decode-step-wrap"} {
		shapes[profile(goldenShape(t, shape, segments...))] = shape
		want[shape] = goldenCount(t, shape, "llm", "steps", "-")
	}
	for i := 2; i < len(marks)-1; i++ {
		w := between(marks[i], marks[i+1])
		w.check(t, fmt.Sprintf("decode step %d", i))
		shape, ok := shapes[profile(w.lines("", 1))]
		if !ok {
			t.Fatalf("decode step %d costs neither the ledger's decode-step nor its decode-step-wrap rows:\n%s", i, strings.Join(w.lines("step", 1), "\n"))
		}
		got[shape]++
	}
	if !maps.Equal(got, want) {
		t.Fatalf("steady decode steps by ledger shape %v, the ledger's %v", got, want)
	}
	if installs, want := session.counts[2], goldenCount(t, "decode-session", "sc", "installs", "-"); installs != want {
		t.Fatalf("session installed %d descriptors, the ledger's decode-session %d", installs, want)
	}
}
