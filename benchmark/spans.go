package main

import (
	"sort"
	"time"

	"ccai/internal/obsv"
	"ccai/internal/sim"
)

// spanRec is the benchmark's own in-memory span recorder: one span per
// call into a layer, taken from outside the program. Spans of one op
// share the op id and name the span that caused them. A nil *spanRec
// records nothing, which is how the timed window runs.
type spanRec struct {
	base  time.Time
	spans []bspan
}

type bspan struct {
	name       string
	start, end time.Duration // since base
	parent     int           // index into spans, -1 for an op's root
	op         int
}

const noParent = -1

// newSpanRec returns a recorder stamping spans relative to base.
func newSpanRec(capacity int, base time.Time) *spanRec {
	return &spanRec{base: base, spans: make([]bspan, 0, capacity)}
}

// begin opens a span and returns its index; -1 when recording is off
// or the buffer is full (the buffer never grows inside a measured op).
func (r *spanRec) begin(name string, parent, op int) int {
	if r == nil || len(r.spans) == cap(r.spans) {
		return -1
	}
	r.spans = append(r.spans, bspan{name: name, start: time.Since(r.base), parent: parent, op: op})
	return len(r.spans) - 1
}

func (r *spanRec) end(i int) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].end = time.Since(r.base)
}

// byName returns the durations of every finished span called name.
func (r *spanRec) byName(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.name == name && s.end > 0 {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// childSums returns, for every finished root span called root, the summed
// duration of its direct children: what the phases of one op add up to.
func (r *spanRec) childSums(root string) []time.Duration {
	sums := map[int]time.Duration{}
	for _, s := range r.spans {
		if s.parent >= 0 && s.end > 0 && r.spans[s.parent].name == root {
			sums[s.parent] += s.end - s.start
		}
	}
	out := make([]time.Duration, 0, len(sums))
	for i, d := range sums {
		if r.spans[i].end > 0 {
			out = append(out, d)
		}
	}
	return out
}

// interval is a span reduced to what self-time accounting needs.
type interval struct {
	key        string
	start, end int64
}

// selfTimes attributes each instant covered by the intervals to the
// innermost interval covering it: a span's self time is its duration
// minus the part its children cover. Nesting is recovered from
// containment, which is exact for one pipeline and approximate when two
// pipelines interleave on one tracer (serve-burst).
func selfTimes(iv []interval) map[string]int64 {
	sort.Slice(iv, func(i, j int) bool {
		if iv[i].start != iv[j].start {
			return iv[i].start < iv[j].start
		}
		return iv[i].end > iv[j].end
	})
	self := make(map[string]int64)
	var stack []int
	for i := range iv {
		for len(stack) > 0 && iv[stack[len(stack)-1]].end <= iv[i].start {
			stack = stack[:len(stack)-1]
		}
		d := iv[i].end - iv[i].start
		self[iv[i].key] += d
		if len(stack) > 0 {
			p := iv[stack[len(stack)-1]]
			// Charge the parent only for the part of the child it covers.
			covered := d
			if iv[i].end > p.end {
				covered = p.end - iv[i].start
			}
			self[p.key] -= covered
		}
		stack = append(stack, i)
	}
	return self
}

func obsvIntervals(spans []obsv.Span) []interval {
	iv := make([]interval, 0, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.Instant || s.End <= s.Start {
			continue
		}
		iv = append(iv, interval{key: s.Track + "/" + s.Name, start: int64(s.Start), end: int64(s.End)})
	}
	return iv
}

// asObsv converts the benchmark's own finished spans to obsv spans on a
// track of their own, so one exporter writes both. Task 0 means "outside
// any task" to the exporter, hence op+1.
func (r *spanRec) asObsv() []obsv.Span {
	out := make([]obsv.Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.end == 0 {
			continue
		}
		out = append(out, obsv.Span{Track: "benchmark", Name: s.name, Task: uint64(s.op) + 1,
			Start: sim.Time(s.start), End: sim.Time(s.end)})
	}
	return out
}
