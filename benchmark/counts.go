package main

import (
	"fmt"
	"math"
	"strings"

	"ccai/internal/bench"
	"ccai/internal/core"
	"ccai/internal/pcie"
	"ccai/internal/trace"
	"ccai/internal/xpu"
)

// counter indexes the deterministic per-op counts the count pass takes.
// Every one is read from something the program already exports: the
// Adaptor's IO/Recovery stats, the SC's Stats, a trace.Recorder tap on
// the host bus and the obsv registry. Two are tallied from obsv span
// names, and only as a ratio's denominator (span_reads) or a cross-check
// (staging_spans); no span name feeds model_op_us.
type counter int

const (
	cMMIOWrites counter = iota
	cMMIOReads
	cRecoveries
	cFilterProtected
	cFilterVerified
	cFilterPassed
	cFilterDropped
	cSCChunks
	cSCBytes
	cAuthFailures
	cConfigRejects
	cPrefetchHits
	cSpanReads
	cTLPs
	cPayloadBytes
	cDescInstalls
	cStagingSpans
	cSpans
	cDroppedSpans
	cLLMSteps
	cSchedRejected
	nCounters
)

var counterNames = [nCounters]string{
	"mmio_writes", "mmio_reads", "recoveries",
	"filter_protected", "filter_verified", "filter_passed", "filter_dropped",
	"sc_chunks", "sc_bytes", "auth_failures", "config_rejects",
	"prefetch_hits", "span_reads", "tlps", "payload_bytes",
	"descriptor_installs", "staging_spans", "spans", "dropped_spans", "llm_steps", "sched_rejected",
}

type counts [nCounters]uint64

func (c counts) sub(o counts) counts {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

// per returns counter k per op.
func (c counts) per(k counter, ops int) float64 { return float64(c[k]) / float64(ops) }

// countSpanLimit is the tracer buffer of the count chassis. Spans are
// harvested, and the buffer swapped, often enough that it never fills
// past half; swapping allocates the whole buffer, so it is done no more
// often than that.
const countSpanLimit = 1 << 15

// counterReader accumulates the cumulative counts of one count chassis.
type counterReader struct {
	in    *instance
	tap   *trace.Recorder
	spans counts // tallied from harvested spans
}

func newCounterReader(in *instance) *counterReader {
	r := &counterReader{in: in, tap: trace.NewRecorder()}
	in.host.AddTap(r.tap)
	in.hub.T().SetLimit(countSpanLimit)
	return r
}

// harvest tallies and clears the spans recorded since the last call, and
// returns how many there were.
func (r *counterReader) harvest() int {
	tr := r.in.hub.T()
	spans := tr.Spans()
	r.spans[cSpans] += uint64(len(spans))
	r.spans[cDroppedSpans] += tr.Dropped()
	for i := range spans {
		switch spans[i].Name {
		case "stage_h2d", "prepare_d2h", "stage_verified":
			// Each of these registers exactly one region descriptor with
			// the SC: the cross-check on descriptor_installs.
			r.spans[cStagingSpans]++
		case "decrypt_read_span":
			r.spans[cSpanReads]++
		}
	}
	tr.Reset()
	return len(spans)
}

func (r *counterReader) read() counts {
	c := r.spans
	for _, a := range r.in.adaptors {
		io, rec := a.IO(), a.Recovery()
		c[cMMIOWrites] += io.MMIOWrites
		c[cMMIOReads] += io.MMIOReads
		c[cRecoveries] += rec.Timeouts + rec.Retries + rec.CryptoRetries + rec.Reposts + rec.Resyncs + rec.Exhausted + rec.FailClosed
	}
	for _, sc := range r.in.scs {
		st := sc.Stats()
		c[cFilterProtected] += st.Filter.Protected
		c[cFilterVerified] += st.Filter.Verified
		c[cFilterPassed] += st.Filter.Passed
		c[cFilterDropped] += st.Filter.Dropped
		c[cSCChunks] += st.DecryptedChunks + st.EncryptedChunks + st.VerifiedChunks
		c[cAuthFailures] += st.AuthFailures
		c[cConfigRejects] += st.ConfigRejects
		c[cPrefetchHits] += st.PrefetchHits
	}
	c[cTLPs] = r.tap.Packets()
	c[cPayloadBytes] = r.tap.PayloadBytes()
	for name, v := range r.in.hub.Reg().Snapshot().Counters {
		switch {
		case strings.Contains(name, "side=crypto/sc") &&
			(strings.HasPrefix(name, "secmem.seal.bytes{") || strings.HasPrefix(name, "secmem.open.bytes{")):
			c[cSCBytes] += v
		case strings.HasPrefix(name, "secmem.open.ops{") && strings.Contains(name, "side=crypto/sc") &&
			strings.Contains(name, "stream="+core.StreamConfig):
			// Blobs the SC opened on the config stream. Rules and rekeys use
			// it too, but not between the ops of a count pass, where every
			// one is a region descriptor.
			c[cDescInstalls] += v
		case strings.HasPrefix(name, "llm.steps{"):
			c[cLLMSteps] += v
		case strings.HasPrefix(name, "sched.rejected{"):
			c[cSchedRejected] += v
		}
	}
	return c
}

// countPreroll ops run on a count chassis before counting starts, so
// the vector excludes the cold first op (allocator and ring at their
// initial positions).
const countPreroll = 4

// countOnce cold-assembles a chassis with WithObserve() and a recorder
// tap on the host bus, runs the pre-roll and then ops ops serially, and
// returns the counts of those ops. A tap disables payload recycling and
// observation costs time, so this chassis is never timed; it is closed
// before the timed one is built.
func countOnce(w *workload, seed uint64, ops int, flip bool, tick func(), ph *phase) (counts, error) {
	in, err := w.build(seed, buildOpts{observe: true, flipOracle: flip})
	if err != nil {
		return counts{}, fmt.Errorf("count chassis: %w", err)
	}
	defer in.close()
	r := newCounterReader(in)
	var before counts
	every, since := 1, 0 // harvest every op until one op's span count is known
	for i := -countPreroll; i < ops; i++ {
		if i == 0 {
			r.harvest()
			before, since = r.read(), 0
		}
		tick()
		_, err := in.op(i+countPreroll, nil)
		ph.record(err)
		if since++; since >= every {
			if n := r.harvest(); n > 0 {
				every = max(1, countSpanLimit/2*since/n)
			}
			since = 0
		}
	}
	r.harvest()
	return r.read().sub(before), nil
}

// countPass takes the count vector twice, each time on a fresh chassis
// with the same history (some counts have a period: how many reads fetch
// a burst of submission-ring slots depends on where the ring wraps), and
// requires the two vectors to be identical.
func countPass(w *workload, seed uint64, ops int, flip bool, tick func(), ph *phase) (counts, error) {
	a, err := countOnce(w, seed, ops, flip, tick, ph)
	if err != nil {
		return a, err
	}
	b, err := countOnce(w, seed, ops, flip, tick, ph)
	if err != nil {
		return a, err
	}
	if a != b {
		var diff []string
		for k := range a {
			if a[k] != b[k] {
				diff = append(diff, fmt.Sprintf("%s %d != %d", counterNames[k], a[k], b[k]))
			}
		}
		return a, fmt.Errorf("count pass not repeatable over %d ops: %s", ops, strings.Join(diff, ", "))
	}
	if a[cDroppedSpans] != 0 {
		return a, fmt.Errorf("count pass dropped %d spans; raise countSpanLimit", a[cDroppedSpans])
	}
	// Every workload stages regions, and each staging call installs one
	// descriptor. A renamed span or counter, or a path that installs
	// descriptors without staging, must fail here instead of lowering
	// model_op_us.
	if a[cDescInstalls] == 0 || a[cDescInstalls] != a[cStagingSpans] {
		return a, fmt.Errorf("count pass: SC opened %d config-stream blobs but the Adaptor recorded %d staging spans",
			a[cDescInstalls], a[cStagingSpans])
	}
	return a, nil
}

// model is the modelled-hardware time of one op on the virtual clock,
// addend by addend, so each modelled microsecond has one cause.
type model struct {
	wireUs, mmioUs, setupUs, cryptoUs float64
}

func (m model) totalUs() float64 { return m.wireUs + m.mmioUs + m.setupUs + m.cryptoUs }

// modelOp drives the functional path's exact per-op counts through the
// analytic cost model (bench.Defaults) and the A100 profile's link. The
// wire term divides host wire bytes (payload + 24 B per TLP, as the tap
// saw them) by the link's raw rate; Link.TransferTime would add the
// per-TLP framing a second time.
func modelOp(c counts, ops int) model {
	cm := bench.Defaults()
	link := pcie.NewLink("model", xpu.A100.Link)
	wireBytes := c.per(cPayloadBytes, ops) + c.per(cTLPs, ops)*pcie.HeaderOverhead
	return model{
		wireUs: wireBytes / xpu.A100.Link.RawBandwidth() * 1e6,
		mmioUs: (c.per(cMMIOReads, ops)*float64(link.RoundTrip()) +
			c.per(cMMIOWrites, ops)*float64(cm.GuardedMMIO)) / 1e3,
		setupUs: c.per(cDescInstalls, ops) * float64(cm.TransferSetup) / 1e3,
		cryptoUs: c.per(cSCChunks, ops)*float64(cm.CryptoSetupPerChunk)/float64(cm.CryptoBatchDepth)/1e3 +
			c.per(cSCBytes, ops)/cm.SCEngineBps*1e6,
	}
}

// sweep is the outcome of the full analytic Figure 8–12b sweep.
type sweep struct {
	errPP       float64 // mean |model overhead − paper overhead| over rows carrying a paper value
	rows        int
	llama7bA100 float64 // Figure 10's A100 row, model overhead in %
}

func figuresSweep() (sweep, error) {
	cm := bench.Defaults()
	var s sweep
	var sum float64
	add := func(model, paper float64) {
		sum += math.Abs(model - paper)
		s.rows++
	}
	if _, err := bench.Figure8FixBatch(cm); err != nil {
		return s, err
	}
	if _, err := bench.Figure8FixToken(cm); err != nil {
		return s, err
	}
	f9, err := bench.Figure9Models(cm)
	if err != nil {
		return s, err
	}
	for _, r := range f9 {
		add(r.Overhead, r.PaperOvh)
	}
	f10, err := bench.Figure10XPUs(cm)
	if err != nil {
		return s, err
	}
	for _, r := range f10 {
		add(r.Overhead, r.PaperOvh)
		if r.Device.Name == xpu.A100.Name {
			s.llama7bA100 = r.Overhead
		}
	}
	if _, _, err := bench.Figure11Optimization(cm); err != nil {
		return s, err
	}
	f12a, err := bench.Figure12aBandwidth(cm)
	if err != nil {
		return s, err
	}
	for _, r := range f12a {
		add(r.Overhead, r.PaperOvh)
	}
	f12b, err := bench.Figure12bKVCache(cm)
	if err != nil {
		return s, err
	}
	for _, r := range f12b {
		add(r.CCAIAdds, r.PaperAdds)
	}
	s.errPP = sum / float64(s.rows)
	return s, nil
}
