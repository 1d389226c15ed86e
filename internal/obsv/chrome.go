package obsv

import (
	"encoding/json"
	"io"
	"sort"
)

// Chrome trace-event export: the JSON format chrome://tracing and
// Perfetto load directly. Each tracer track becomes a named thread
// under one process; spans are complete ("X") events, instants are "i"
// events, and every event carries its task ID plus the span attributes
// in args. Timestamps are virtual microseconds.
//
// Reference: the Trace Event Format document (Google, catapult
// project). Only the subset needed by the viewers is emitted.

type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat,omitempty"`
	Phase string            `json:"ph"`
	TS    float64           `json:"ts"`
	Dur   *float64          `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports every recorded span as a Chrome trace-event
// JSON document. Attributes are emitted verbatim into args — they are
// metadata by construction (the layer never records payload bytes).
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, t.Spans())
}

// WriteChromeTrace exports an explicit span list.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	// Stable track → tid assignment, sorted by name so exports of the
	// same run are byte-identical.
	trackSet := make(map[string]bool)
	for _, s := range spans {
		trackSet[s.Track] = true
	}
	tracks := make([]string, 0, len(trackSet))
	for tr := range trackSet {
		tracks = append(tracks, tr)
	}
	sort.Strings(tracks)
	tid := make(map[string]int, len(tracks))
	for i, tr := range tracks {
		tid[tr] = i + 1
	}

	out := chromeTrace{DisplayTimeUnit: "ns", TraceEvents: []chromeEvent{}}
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "process_name", Phase: "M", PID: 1, TID: 0,
		Args: map[string]string{"name": "ccai"},
	})
	for _, tr := range tracks {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Phase: "M", PID: 1, TID: tid[tr],
			Args: map[string]string{"name": tr},
		})
	}
	for _, s := range spans {
		attrs := s.Attrs()
		ev := chromeEvent{
			Name: s.Name,
			Cat:  s.Track,
			TS:   float64(s.Start) / 1e3, // virtual ns → µs
			PID:  1,
			TID:  tid[s.Track],
			Args: make(map[string]string, len(attrs)+1),
		}
		if s.Task != 0 {
			ev.Args["task"] = U64("task", s.Task).Val()
		}
		for _, a := range attrs {
			ev.Args[a.Key] = a.Val()
		}
		if s.Instant {
			ev.Phase = "i"
			ev.Scope = "t"
		} else {
			ev.Phase = "X"
			dur := float64(s.End-s.Start) / 1e3
			ev.Dur = &dur
		}
		out.TraceEvents = append(out.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
