// Package obsv is the dependency-free observability layer of the ccAI
// reproduction: an atomic metrics registry (counters, gauges,
// fixed-bucket histograms), per-task span tracing on the virtual clock,
// and a Chrome trace-event exporter so a protected task's timeline can
// be inspected in chrome://tracing or Perfetto.
//
// Two rules govern everything here:
//
//  1. Confidentiality: metric names, labels and span attributes carry
//     only metadata — stream names, packet kinds, sizes, actions,
//     counters — never payload bytes. A timeline export of a protected
//     task must be publishable without leaking the task.
//  2. Zero cost when off: every handle type (*Counter, *Gauge,
//     *Histogram, *Tracer, *ActiveSpan) is nil-safe, so instrumented
//     components hold possibly-nil handles and the disabled hot path
//     pays only a nil check.
//  3. A stated price when on: names are resolved once, at wiring time
//     — counters through the Registry, span sites and attribute keys
//     into Site/Key/Sym handles (symbols.go) — so recording a span
//     stores handles into a preallocated, recycled buffer and a harvest
//     allocates only what it returns. DESIGN.md §8 has the measured
//     cost and the tests that gate it.
package obsv

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is
// usable; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reports the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can move both ways (queue depths, live
// regions). A nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value reports the current level (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution. Bounds are inclusive upper
// edges in ascending order; one implicit overflow bucket catches the
// rest. A nil *Histogram is a no-op.
//
// Each bucket carries one exemplar slot: the span/task reference and
// value of the latest sample recorded into it via ObserveExemplar, so
// a tail bucket on a scrape page links directly to the timeline span
// that produced it. The ref and value are separate atomics — a reader
// racing a writer may pair a ref with the previous value, which is
// acceptable skew for monitoring output and keeps the hot path
// allocation-free.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Uint64 // len(bounds)+1
	count   atomic.Uint64
	sum     atomic.Int64
	exRefs  []atomic.Uint64 // len(bounds)+1; 0 = no exemplar yet
	exVals  []atomic.Int64
}

// WaitBuckets is the queue-wait bucket layout (1 ms .. 10 s, virtual
// nanoseconds). Scheduler waits under load sit in the ms–100 ms range;
// with bounds sized for pipeline stages (10 ms and below) every wait
// would land in the overflow bucket and quantile estimates degenerate.
func WaitBuckets() []int64 {
	return []int64{
		1_000_000, 5_000_000, 10_000_000, 50_000_000, 100_000_000,
		250_000_000, 500_000_000, 1_000_000_000, 5_000_000_000, 10_000_000_000,
	}
}

// ObserveExemplar records one sample and stamps the sample's bucket
// with ref (a span/task ID) as the bucket's current exemplar. ref 0
// means "no reference": the sample is only counted.
func (h *Histogram) ObserveExemplar(v int64, ref uint64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	if ref != 0 {
		h.exVals[i].Store(v)
		h.exRefs[i].Store(ref)
	}
}

// Registry is a named-metric table. Lookups are get-or-create and safe
// for concurrent use; handles are cached by the instrumented component
// so the hot path never touches the map. A nil *Registry hands out nil
// handles, which is how "observability off" costs nothing.
//
// A count a component already keeps for its own accessor is not
// mirrored into a *Counter: the component registers a read of it with
// CounterFunc, so each count has one cell and the two views cannot
// drift apart.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	funcs    map[string][]func() uint64
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		funcs:    make(map[string][]func() uint64),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Name composes a metric name with label pairs in a stable, rendered
// form: Name("x.y", "stream", "h2d") == `x.y{stream=h2d}`.
func Name(base string, kv ...string) string {
	if len(kv) == 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteByte('=')
		b.WriteString(kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// CounterFunc registers read as a source of the named counter: a
// snapshot reports under name the sum of every read registered for it,
// so the tenants of a shared hub add up exactly as they would on one
// *Counter. Register a component once per registry; there is no
// unregister (a component's SetObserver(nil) stops its tracing, not
// its reads).
//
// The value runs from when the component was built, not from when it
// was registered. Snapshot calls read after releasing the registry's
// lock: a component may hold its own lock while it registers, and read
// takes that lock. A snapshot therefore waits, briefly, for whatever
// call holds the lock a read takes.
func (r *Registry) CounterFunc(name string, read func() uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = append(r.funcs[name], read)
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram. Bounds
// are fixed at creation; a later call with different bounds returns the
// original histogram unchanged.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		b := append([]int64(nil), bounds...)
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		h = &Histogram{
			bounds:  b,
			buckets: make([]atomic.Uint64, len(b)+1),
			exRefs:  make([]atomic.Uint64, len(b)+1),
			exVals:  make([]atomic.Int64, len(b)+1),
		}
		r.hists[name] = h
	}
	return h
}

// Exemplar links one histogram bucket to the span/task that most
// recently landed in it.
type Exemplar struct {
	Bucket int    `json:"bucket"` // index into Buckets
	Ref    uint64 `json:"ref"`    // span/task ID
	Value  int64  `json:"value"`  // the sample that set it
}

// HistValue is one histogram in a snapshot.
type HistValue struct {
	Name      string     `json:"name"`
	Count     uint64     `json:"count"`
	Sum       int64      `json:"sum"`
	Bounds    []int64    `json:"bounds"`
	Buckets   []uint64   `json:"buckets"`
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket
// counts using Prometheus-style linear interpolation within the
// bucket that holds the target rank. Samples in the overflow bucket
// are reported as the last finite bound (the estimate saturates
// there, it cannot extrapolate). An empty histogram reports 0.
func (h HistValue) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, n := range h.Buckets {
		prev := cum
		cum += float64(n)
		if cum < rank || n == 0 {
			continue
		}
		if i >= len(h.Bounds) { // overflow bucket: saturate
			return float64(h.Bounds[len(h.Bounds)-1])
		}
		lo := float64(0)
		if i > 0 {
			lo = float64(h.Bounds[i-1])
		}
		hi := float64(h.Bounds[i])
		return lo + (hi-lo)*(rank-prev)/float64(n)
	}
	return float64(h.Bounds[len(h.Bounds)-1])
}

// Snapshot is a consistent-enough copy of the registry for rendering:
// each value is read atomically (cross-metric skew is acceptable for
// monitoring output).
type Snapshot struct {
	Counters map[string]uint64 `json:"counters"`
	Gauges   map[string]int64  `json:"gauges"`
	Hists    []HistValue       `json:"histograms"`
}

// Snapshot captures every metric's current value. Read functions
// (CounterFunc) run after the registry's lock is released.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{Counters: make(map[string]uint64), Gauges: make(map[string]int64)}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	// CounterFunc only appends, so the copied slice headers stay valid.
	reads := maps.Clone(r.funcs)
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	names := make([]string, 0, len(r.hists))
	for name := range r.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := r.hists[name]
		hv := HistValue{Name: name, Count: h.count.Load(), Sum: h.sum.Load(),
			Bounds: append([]int64(nil), h.bounds...)}
		for i := range h.buckets {
			hv.Buckets = append(hv.Buckets, h.buckets[i].Load())
		}
		for i := range h.exRefs {
			if ref := h.exRefs[i].Load(); ref != 0 {
				hv.Exemplars = append(hv.Exemplars,
					Exemplar{Bucket: i, Ref: ref, Value: h.exVals[i].Load()})
			}
		}
		snap.Hists = append(snap.Hists, hv)
	}
	r.mu.Unlock()
	for name, fns := range reads {
		for _, read := range fns {
			snap.Counters[name] += read()
		}
	}
	return snap
}

// RenderText renders the snapshot as sorted, aligned text for CLIs.
func (s Snapshot) RenderText() string {
	var b strings.Builder
	keys := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%-56s %12d\n", k, s.Counters[k])
	}
	keys = keys[:0]
	for k := range s.Gauges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%-56s %12d (gauge)\n", k, s.Gauges[k])
	}
	for _, h := range s.Hists {
		fmt.Fprintf(&b, "%-56s count=%d sum=%d", h.Name, h.Count, h.Sum)
		if h.Count > 0 {
			fmt.Fprintf(&b, " p50=%.0f p99=%.0f", h.Quantile(0.50), h.Quantile(0.99))
		}
		b.WriteByte('\n')
		ex := make(map[int]Exemplar, len(h.Exemplars))
		for _, e := range h.Exemplars {
			ex[e.Bucket] = e
		}
		for i, n := range h.Buckets {
			if n == 0 {
				continue
			}
			if i < len(h.Bounds) {
				fmt.Fprintf(&b, "  le %-10d %12d", h.Bounds[i], n)
			} else {
				fmt.Fprintf(&b, "  le +inf       %12d", n)
			}
			if e, ok := ex[i]; ok {
				fmt.Fprintf(&b, "  # {task=%d} %d", e.Ref, e.Value)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
