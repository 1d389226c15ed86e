package obsv

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccai/internal/sim"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x.ops")
	b := r.Counter("x.ops")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	a.Inc()
	b.Add(2)
	if got := r.Counter("x.ops").Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	g := r.Gauge("x.depth")
	g.Set(3)
	if got := r.Gauge("x.depth").Value(); got != 3 {
		t.Fatalf("gauge = %d, want 3", got)
	}
}

// TestCounterFuncSums: a snapshot reports a name's registered reads
// summed — the tenants of one hub add up as they would on one *Counter
// — at their current values, and a registered name is present at zero.
func TestCounterFuncSums(t *testing.T) {
	r := NewRegistry()
	var a, b atomic.Uint64
	r.CounterFunc("x.ops", a.Load)
	r.CounterFunc("x.ops", b.Load)
	if got, ok := r.Snapshot().Counters["x.ops"]; !ok || got != 0 {
		t.Fatalf("x.ops = %d (present %v), want 0", got, ok)
	}
	a.Add(2)
	b.Add(5)
	if got := r.Snapshot().Counters["x.ops"]; got != 7 {
		t.Fatalf("x.ops = %d, want 7", got)
	}
}

// TestCounterFuncReadsOutsideLock: Snapshot calls the reads after it
// releases the registry's lock. A component registers while holding its
// own lock (Adaptor.SetObserver holds a.mu) and its read takes that
// lock, so a read under the registry's lock would invert the order. The
// read here calls back into the registry; it deadlocks if Snapshot holds
// the lock.
func TestCounterFuncReadsOutsideLock(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("x.reads", func() uint64 { return r.Counter("x.ops").Value() + 1 })
	done := make(chan uint64)
	go func() { done <- r.Snapshot().Counters["x.reads"] }()
	select {
	case got := <-done:
		if got != 1 {
			t.Fatalf("x.reads = %d, want 1", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Snapshot deadlocked: it calls reads under the registry's lock")
	}
}

func TestName(t *testing.T) {
	if got := Name("x.y"); got != "x.y" {
		t.Fatalf("Name no-labels = %q", got)
	}
	if got := Name("x.y", "stream", "h2d", "side", "sc"); got != "x.y{stream=h2d,side=sc}" {
		t.Fatalf("Name = %q", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x.bytes", []int64{10, 100})
	for _, v := range []int64{5, 10, 11, 1000} {
		h.ObserveExemplar(v, 0)
	}
	snap := r.Snapshot()
	if len(snap.Hists) != 1 {
		t.Fatalf("snapshot has %d histograms", len(snap.Hists))
	}
	hv := snap.Hists[0]
	if hv.Count != 4 || hv.Sum != 1026 {
		t.Fatalf("count=%d sum=%d", hv.Count, hv.Sum)
	}
	// 5 and 10 land in le-10; 11 in le-100; 1000 in overflow.
	want := []uint64{2, 1, 1}
	for i, n := range want {
		if hv.Buckets[i] != n {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, hv.Buckets[i], n, hv.Buckets)
		}
	}
}

func TestSnapshotRender(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.ops").Inc()
	r.Gauge("a.depth").Set(7)
	r.Histogram("a.bytes", []int64{64, 256}).ObserveExemplar(128, 0)
	text := r.Snapshot().RenderText()
	for _, want := range []string{"a.ops", "a.depth", "a.bytes", "(gauge)"} {
		if !strings.Contains(text, want) {
			t.Fatalf("RenderText missing %q:\n%s", want, text)
		}
	}
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("JSON output does not parse: %v", err)
	}
	if snap.Counters["a.ops"] != 1 || snap.Gauges["a.depth"] != 7 {
		t.Fatalf("round-tripped snapshot wrong: %+v", snap)
	}
}

// TestNilSafety covers the "observability off" contract: every handle
// type must ignore calls on nil receivers.
func TestNilSafety(t *testing.T) {
	var h *Hub
	h.Reg().Counter("x").Inc()
	h.Reg().Counter("x").Add(3)
	h.Reg().Gauge("y").Set(1)
	h.Reg().Histogram("z", []int64{64}).ObserveExemplar(1, 0)
	h.Reg().CounterFunc("w", func() uint64 { return 1 })
	if h.Reg().Counter("x").Value() != 0 {
		t.Fatal("nil counter reported a value")
	}
	snap := h.Reg().Snapshot()
	if len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	tr := h.T()
	tr.SetClock(nil)
	tr.SetLimit(1)
	if id := tr.StartTask(); id != 0 {
		t.Fatalf("nil tracer task id = %d", id)
	}
	sp := tr.Begin(TrackTask, "noop")
	sp.Attr(Str("k", "v"))
	sp.End()
	tr.Instant(TrackTask, "noop")
	tr.EndTask()
	tr.Reset()
	if tr.Spans() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer recorded something")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil tracer export: %v", err)
	}
}

func TestTracerTaskScopes(t *testing.T) {
	tr := NewTracer()
	id1 := tr.StartTask()
	sp := tr.Begin(TrackSC, "inside")
	sp.End()
	tr.EndTask()
	out := tr.Begin(TrackSC, "outside")
	out.End()
	id2 := tr.StartTask()
	tr.Instant(TrackFault, "inside2")
	tr.EndTask()
	if id1 != 1 || id2 != 2 {
		t.Fatalf("task ids = %d, %d", id1, id2)
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans", len(spans))
	}
	if spans[0].Task != id1 || spans[1].Task != 0 || spans[2].Task != id2 {
		t.Fatalf("task tags wrong: %d %d %d", spans[0].Task, spans[1].Task, spans[2].Task)
	}
	if spans[1].End < spans[1].Start {
		t.Fatal("synthetic clock not monotonic")
	}
}

func TestTracerVirtualClock(t *testing.T) {
	tr := NewTracer()
	var now sim.Time
	tr.SetClock(func() sim.Time { return now })
	sp := tr.Begin(TrackXPU, "dma")
	now = 500 * sim.Nanosecond
	sp.End()
	spans := tr.Spans()
	if spans[0].Start != 0 || spans[0].End != 500*sim.Nanosecond {
		t.Fatalf("span times %v..%v", spans[0].Start, spans[0].End)
	}
}

func TestTracerSpanCap(t *testing.T) {
	tr := NewTracer()
	tr.SetLimit(3)
	for i := 0; i < 5; i++ {
		tr.Instant(TrackSC, "e")
	}
	if len(tr.Spans()) != 3 {
		t.Fatalf("retained %d spans, want 3", len(tr.Spans()))
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
	tr.Reset()
	if len(tr.Spans()) != 0 || tr.Dropped() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestChromeTraceExport(t *testing.T) {
	tr := NewTracer()
	tr.StartTask()
	sp := tr.Begin(TrackFilter, "classify", Str("kind", "MWr"))
	sp.Attr(Str("action", "A3_write_protect"))
	sp.End()
	tr.Instant(TrackFault, "fault_injected", Str("class", "CorruptTLP"))
	tr.EndTask()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Pid  int               `json:"pid"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var haveX, haveI, haveMeta bool
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			haveX = true
			if ev.Name != "classify" || ev.Args["action"] != "A3_write_protect" {
				t.Fatalf("complete event wrong: %+v", ev)
			}
		case "i":
			haveI = true
		case "M":
			haveMeta = true
		}
	}
	if !haveX || !haveI || !haveMeta {
		t.Fatalf("export missing event kinds: X=%v i=%v M=%v", haveX, haveI, haveMeta)
	}
}

// TestResetRecyclesBuffers pins the harvest's allocation contract: with
// no span open, Reset alternates between two buffers and allocates
// nothing; a span held open keeps its buffer out of reuse until it ends.
func TestResetRecyclesBuffers(t *testing.T) {
	tr := NewTracer()
	site := NewSite(TrackSC, "recycle")
	tr.Reset() // the second buffer comes into being
	cycle := func() {
		sp := tr.Start(site)
		tr.Mark(site)
		sp.End()
		tr.Reset()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a record-and-Reset cycle allocates %v objects, want 0", allocs)
	}

	held := tr.Start(site)
	pinned := tr.cur.Load()
	for i := 0; i < 4; i++ {
		tr.Reset()
		if tr.cur.Load() == pinned {
			t.Fatalf("Reset %d reused a buffer with a span still open in it", i)
		}
	}
	held.End()
	tr.Reset() // pinned's successor is the spare now; pinned itself was let go
	if n := len(tr.Spans()); n != 0 {
		t.Fatalf("%d spans after Reset", n)
	}
}

// TestResetWithOpenSpans holds spans open across a thousand Resets from
// another goroutine. Every span carries its own serial number, and
// before ending one its holder checks that the slot is still its own: a
// slot handed to a later span would be caught there, and the unordered
// writes to it by the race detector.
func TestResetWithOpenSpans(t *testing.T) {
	tr := NewTracer()
	tr.SetLimit(64) // small: slots come round again quickly
	site, key := NewSite(TrackSC, "held"), NewKey("serial")
	const recorders, resets = 3, 1000
	stop := make(chan struct{})
	errs := make(chan error, recorders)
	var wg sync.WaitGroup
	for g := 0; g < recorders; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			type held struct {
				sp     ActiveSpan
				serial uint64
			}
			var ring [5]held // each span stays open for five more begins
			for n := uint64(1); ; n++ {
				select {
				case <-stop:
					for i := range ring {
						ring[i].sp.End()
					}
					return
				default:
				}
				if n%50 < 10 {
					// Let go of everything for a stretch, so some Resets find
					// the spare free and reuse it.
					for i := range ring {
						ring[i].sp.End()
					}
					runtime.Gosched()
					continue
				}
				h := &ring[n%uint64(len(ring))]
				if r := h.sp.r; r != nil && (r.site != site || r.nattrs != 1 || r.attrs[0].num != h.serial || r.end != 0) {
					errs <- fmt.Errorf("recorder %d: slot of span %#x now holds %+v", g, h.serial, *r)
					return
				}
				h.sp.End()
				h.serial = g<<32 | n
				h.sp = tr.Start(site, key.U64(h.serial))
				if n%3 == 0 {
					tr.Mark(site, key.U64(h.serial))
				}
				runtime.Gosched() // interleave with the Resets span by span
			}
		}(uint64(g))
	}
	reused, fresh := 0, 0
	for i := 0; i < resets; i++ {
		spare := tr.spare
		tr.Reset()
		if tr.cur.Load() == spare {
			reused++
		} else {
			fresh++
		}
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	t.Logf("%d Resets reused the spare, %d allocated", reused, fresh)
	if reused == 0 || fresh == 0 {
		t.Fatalf("%d Resets reused the spare and %d allocated: the test needs both", reused, fresh)
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	// Quiescent now: whatever the last epoch holds is whole.
	for _, sp := range tr.Spans() {
		if sp.Name != "held" || sp.nattrs != 1 || (!sp.Instant && sp.End == 0) {
			t.Fatalf("last epoch holds a torn span: %+v", sp)
		}
	}
}

// TestSymbolTableBounded floods the table with distinct Str values —
// the misuse Str's contract forbids — and checks it stops at MaxSymbols:
// later strangers share the overflow symbol, everything interned before
// still resolves. It runs against a copy of the process-wide table so
// the flood does not outlive the test.
func TestSymbolTableBounded(t *testing.T) {
	saved := symbols
	symbols = newSymtab()
	for _, s := range saved.snapshot()[symOverflow+1:] {
		symbols.intern(s)
	}
	defer func() { symbols = saved }()

	tr := NewTracer()
	tr.SetLimit(10000)
	before := Intern("known-before")
	for i := 0; i < 10000; i++ {
		tr.Instant(TrackSC, "flood", Str("v", fmt.Sprintf("value-%d", i)))
	}
	if n := SymbolCount(); n > MaxSymbols {
		t.Fatalf("symbol table holds %d strings, cap is %d", n, MaxSymbols)
	}
	if got := Intern("one more stranger"); got != symOverflow || got.String() != "(overflow)" {
		t.Fatalf("a stranger past the cap interned to %d %q", got, got)
	}
	if Intern("known-before") != before || before.String() != "known-before" {
		t.Fatal("a symbol interned before the flood no longer resolves")
	}
	spans := tr.Spans()
	if first := spans[0].Attrs()[0].Val(); first != "value-0" {
		t.Fatalf("first flood value renders as %q", first)
	}
	if last := spans[len(spans)-1].Attrs()[0].Val(); last != "(overflow)" {
		t.Fatalf("a value past the cap renders as %q, want (overflow)", last)
	}
}
