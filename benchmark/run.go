package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// metric is one reported number. e2e metrics are the gated end-to-end
// set; layer metrics are the per-layer set BENCHMARK.json names; the
// rest are run.* diagnostics printed beside them.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"` // timings behind a wall-clock number
	kind    metricKind
}

type metricKind int

const (
	diagnostic metricKind = iota
	endToEnd
	perLayer
)

// phase counts ops attempted and failed in one phase of a run.
type phase struct {
	Name      string `json:"name"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	FirstErr  string `json:"first_error,omitempty"`
}

func (p *phase) record(err error) {
	p.Attempted++
	if err != nil {
		p.Failed++
		if p.FirstErr == "" {
			p.FirstErr = err.Error()
		}
	}
}

func (p *phase) add(attempted, failed int, firstErr string) {
	p.Attempted += attempted
	p.Failed += failed
	if p.FirstErr == "" {
		p.FirstErr = firstErr
	}
}

func (p *phase) addSample(s *sample) {
	first := ""
	if s.firstErr != nil {
		first = s.firstErr.Error()
	}
	p.add(s.attempted, s.failed, first)
}

// result is everything one run of one workload reports.
type result struct {
	Workload      string       `json:"workload"`
	Seed          uint64       `json:"seed"`
	InputDigest   string       `json:"input_digest"`
	Correct       bool         `json:"correct"`
	Attempted     int          `json:"attempted"`
	Failed        int          `json:"failed"`
	WindowSeconds float64      `json:"window_seconds"`
	Phases        []*phase     `json:"phases"`
	Metrics       []metric     `json:"metrics"`
	Segments      []segSummary `json:"segments"`
	Layers        []layerShare `json:"traced_self_time,omitempty"`
	Machine       machine      `json:"machine"`
	Notes         []string     `json:"notes,omitempty"`
}

// segSummary is what the -json output keeps of one segment, so that the
// spread inside a run can be told from the spread between runs.
type segSummary struct {
	SetupWallS float64 `json:"setup_wall_s"`
	SetupRefUs float64 `json:"setup_ref_mean_us"`
	RefP50Us   float64 `json:"ref_p50_us"`
	OpP50Us    float64 `json:"op_p50_us"`
	QuietOps   int     `json:"quiet_ops"`
	Ops        int     `json:"ops"`
}

func (r *result) put(kind metricKind, name string, v float64, unit string, samples int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit, Samples: samples, kind: kind})
}

func (r *result) get(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

func (r *result) newPhase(name string) *phase {
	p := &phase{Name: name}
	r.Phases = append(r.Phases, p)
	return p
}

type runConfig struct {
	w          *workload
	seed       uint64
	seconds    float64 // timed window, all segments together
	scale      float64 // shrinks the window and every fixed batch (smoke, selfcheck)
	trace      bool    // add the layer phase
	flipOracle bool
	outDir     string // where the traced run's Chrome trace goes
}

func (c *runConfig) scaled(n int) int {
	if n = int(float64(n) * c.scale); n < 2 {
		n = 2
	}
	return n
}

// segments is how many times a run sets up and measures: ten set-ups
// for setup_s to be the median of, and ten windows a few seconds apart, so
// that a neighbour's burst spoils some of them and not the run.
const segments = 10

// segmentWindow is the timed window of one segment.
func (c *runConfig) segmentWindow() time.Duration {
	return time.Duration(c.seconds * c.scale * float64(time.Second) / float64(c.scaled(segments)))
}

// sweepReps repeats the analytic figure sweep inside each set-up so it
// is a measurable share of fixed work rather than a sub-millisecond
// blip.
const sweepReps = 40

// refNominal converts set-up time counted in reference iterations back
// to seconds: setup_s reads as wall seconds on a machine whose reference
// iteration takes 20 µs.
const refNominal = 20 * time.Microsecond

// segment is one set-up and the timed window that follows it, on one
// chassis.
type segment struct {
	setupWall time.Duration   // wall time of phase 1
	setupRefs []time.Duration // reference iterations during phase 1
	counts    counts
	sweep     sweep
	win       sample

	inputDigest          uint64
	tokensPerOp          int
	kvBytes              int64
	queueWait, firstDone []time.Duration // per-op timings of the window (serve-burst)
}

// runSegment runs phases 1 and 2 once.
//
// Phase 1, set-up, timed: the analytic sweep, the count pass on its own
// observed and tapped chassis, then the cold assembly, trust
// establishment and fixed warm-up of the untapped, unobserved chassis the
// window will time. One reference group runs before every op of the
// set-up, as in the window, so that set-up time can be counted in
// reference iterations too: wall time over the mean iteration, a total
// over a mean, which follows a host that was busy for part of the set-up
// where the median iteration would not.
//
// Phase 2, the timed window, tracing off.
func runSegment(cfg *runConfig, ref *refKernel, countPh, warmPh, windowPh *phase) (*segment, error) {
	g := new(segment)
	refs := make([]time.Duration, 0, 1<<13)
	tick := func() { refs = ref.group(refs) }

	t0 := time.Now()
	var err error
	for i := 0; i < cfg.scaled(sweepReps); i++ {
		tick()
		if g.sweep, err = figuresSweep(); err != nil {
			return nil, fmt.Errorf("figures sweep: %w", err)
		}
	}
	if g.counts, err = countPass(cfg.w, cfg.seed, cfg.scaled(cfg.w.countOps), cfg.flipOracle, tick, countPh); err != nil {
		return nil, err
	}
	in, err := cfg.w.build(cfg.seed, buildOpts{flipOracle: cfg.flipOracle})
	if err != nil {
		return nil, fmt.Errorf("timed chassis: %w", err)
	}
	defer in.close()
	for i := 0; i < cfg.scaled(cfg.w.warmOps); i++ {
		tick()
		_, err := in.op(i, nil)
		warmPh.record(err)
	}
	g.setupWall, g.setupRefs = time.Since(t0), refs

	in.resetAux()
	runtime.GC()
	window := cfg.segmentWindow()
	g.win = measure(ref, int(window.Seconds()*float64(cfg.w.maxRate))+16, window,
		func(i int) (time.Duration, error) { return in.op(i, nil) })
	windowPh.addSample(&g.win)
	g.inputDigest, g.tokensPerOp, g.kvBytes = in.inputDigest, in.tokensPerOp, in.kvBytes
	g.queueWait, g.firstDone = in.queueWait, in.firstDone
	return g, nil
}

// minQuietOps is how many ops of a run must have run undisturbed for
// op_p50_xref to be taken over them.
const minQuietOps = 100

// quietFloor is the undisturbed reference iteration of a run: the lowest
// 5th percentile any of its windows saw. Taken over the run and not per
// window because a window the neighbour sat through has no undisturbed
// iterations of its own to show.
func quietFloor(segs []*segment) time.Duration {
	floor := time.Duration(math.MaxInt64)
	for _, g := range segs {
		floor = min(floor, quantile(g.win.ref, 0.05))
	}
	return floor
}

// opXref is the op_p50_xref estimator: the median latency of the run's
// undisturbed ops over the median of its undisturbed reference
// iterations, all windows pooled. A neighbour on the core's other
// hyperthread slows the reference by an eighth to a half and each
// workload by a factor of its own, so a ratio taken while it runs depends
// on the neighbour; the undisturbed ops do not. quiet is how many ops the
// median is over, perWindow how many of them each window gave. If the
// host was busy through the whole run quiet is 0 and x falls back to
// plain, the median latency of all ops over the median of all reference
// iterations.
func opXref(segs []*segment, plain float64) (x float64, quiet int, perWindow []int) {
	floor := quietFloor(segs)
	var lat, ref []time.Duration
	for _, g := range segs {
		l, r := g.win.undisturbed(floor)
		lat, ref = append(lat, l...), append(ref, r...)
		perWindow = append(perWindow, len(l))
	}
	if len(lat) < minQuietOps {
		return plain, 0, perWindow
	}
	return ratio(quantile(lat, 0.5), quantile(ref, 0.5)), len(lat), perWindow
}

// runWorkload runs every phase of one workload and returns its metrics.
// An error means the benchmark itself could not run; wrong or failed ops
// are reported through result.Failed.
func runWorkload(cfg runConfig) (*result, error) {
	res := &result{Workload: cfg.w.name, Seed: cfg.seed, Machine: machineShape()}
	countPh, warmPh := res.newPhase("count-pass"), res.newPhase("warm-up")
	windowPh := res.newPhase("window")
	ref := newRefKernel()

	var (
		segs                 []*segment
		setupWall            []time.Duration
		setupNorm            []time.Duration // set-up time in reference iterations of refNominal each
		win                  sample          // all windows, concatenated
		queueWait, firstDone []time.Duration
	)
	for i := 0; i < cfg.scaled(segments); i++ {
		g, err := runSegment(&cfg, ref, countPh, warmPh, windowPh)
		if err != nil {
			return nil, err
		}
		if i > 0 && (g.counts != segs[0].counts || g.sweep != segs[0].sweep || g.inputDigest != segs[0].inputDigest) {
			return nil, fmt.Errorf("segment %d disagrees with segment 0 on counts, sweep or inputs", i)
		}
		segs = append(segs, g)
		setupWall = append(setupWall, g.setupWall)
		setupNorm = append(setupNorm, time.Duration(float64(g.setupWall)/float64(mean(g.setupRefs))*float64(refNominal)))
		win.merge(&g.win)
		queueWait, firstDone = append(queueWait, g.queueWait...), append(firstDone, g.firstDone...)
	}
	first := segs[0]
	res.InputDigest = fmt.Sprintf("%016x", first.inputDigest)
	res.WindowSeconds = win.wall.Seconds()
	if win.failed == win.attempted {
		return nil, fmt.Errorf("no op succeeded in the window: %s", windowPh.FirstErr)
	}
	countOps := cfg.scaled(cfg.w.countOps)
	mdl := modelOp(first.counts, countOps)

	n := len(win.lat)
	refP50 := quantile(win.ref, 0.5)
	opX, quiet, quietPerWindow := opXref(segs, win.xref())
	if quiet == 0 {
		res.Notes = append(res.Notes, "the host was busy through the whole run: op_p50_xref is the plain ratio of medians")
	}
	res.put(endToEnd, "setup_s", quantile(setupNorm, 0.5).Seconds(), "s", len(setupNorm))
	res.put(endToEnd, "op_p50_xref", opX, "xref", quiet)
	res.put(endToEnd, "allocs_per_op", float64(win.mallocs)/float64(win.attempted), "count", 0)
	res.put(endToEnd, "model_op_us", mdl.totalUs(), "vus", 0)
	res.put(endToEnd, "sim_paper_err_pp", first.sweep.errPP, "pp", 0)

	res.put(perLayer, "run.op_p50_us", us(quantile(win.lat, 0.5)), "us", n)
	res.put(perLayer, "run.ref_p50_us", us(refP50), "us", len(win.ref))
	res.put(diagnostic, "run.quiet_share", float64(quiet)/float64(n), "share", n)
	res.put(diagnostic, "run.op_p50_whole_xref", win.xref(), "xref", n)
	res.put(diagnostic, "run.op_mean_xref", ratio(mean(win.lat), refP50), "xref", n)
	res.put(perLayer, "run.op_p90_xref", ratio(quantile(win.lat, 0.9), refP50), "xref", n)
	if q, ok := topQuantile(n); ok {
		res.put(diagnostic, "run.op_ptop_xref", ratio(quantile(win.lat, q), refP50), "xref", n)
		res.put(diagnostic, "run.ptop_percentile", q*100, "%", n)
	}
	res.put(perLayer, "run.ops_per_s", float64(win.attempted)/win.wall.Seconds(), "1/s", 0)
	res.put(perLayer, "run.cpu_us_per_op", us(win.cpu)/float64(win.attempted), "us", 0)
	res.put(perLayer, "run.alloc_kb_per_op", float64(win.allocB)/1024/float64(win.attempted), "KiB", 0)
	res.put(perLayer, "run.gc_cycles_per_kop", float64(win.gcs)*1000/float64(win.attempted), "count", 0)
	res.put(diagnostic, "run.setup_wall_s", quantile(setupWall, 0.5).Seconds(), "s", len(setupWall))
	res.put(diagnostic, "run.window_s", win.wall.Seconds(), "s", 0)
	res.put(diagnostic, "run.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count", 0)

	for i, g := range segs {
		res.Segments = append(res.Segments, segSummary{
			SetupWallS: g.setupWall.Seconds(), SetupRefUs: us(mean(g.setupRefs)),
			RefP50Us: us(quantile(g.win.ref, 0.5)), OpP50Us: us(quantile(g.win.lat, 0.5)),
			QuietOps: quietPerWindow[i], Ops: len(g.win.lat)})
	}

	countMetrics(res, first, countOps, mdl)

	// Phase 3: layers, after the window and outside every end-to-end metric.
	if cfg.trace {
		res.put(perLayer, "sched.queue_wait_p50_xref", ratio(quantile(queueWait, 0.5), refP50), "xref", len(queueWait))
		res.put(perLayer, "sched.first_done_p50_xref", ratio(quantile(firstDone, 0.5), refP50), "xref", len(firstDone))
		if err := layerPhase(&cfg, res, ref, int(first.counts.per(cSpans, countOps))+1); err != nil {
			return nil, err
		}
	}

	for _, p := range res.Phases {
		res.Attempted += p.Attempted
		res.Failed += p.Failed
		if p.FirstErr != "" {
			res.Notes = append(res.Notes, fmt.Sprintf("%s: first failure: %s", p.Name, p.FirstErr))
		}
	}
	res.Correct = res.Failed == 0
	failShare := float64(res.Failed) / float64(res.Attempted)
	res.put(endToEnd, "ok_share", 1-failShare, "share", 0)
	res.put(perLayer, "fail_share", failShare, "share", 0)
	return res, nil
}
