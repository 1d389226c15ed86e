package obsv

import (
	"bytes"
	"fmt"
	"testing"

	"ccai/internal/sim"
)

// refTracer is the executable reference the tracer is checked against:
// the same contract — begin order, task scopes, the attribute cap, the
// retention cap with its drop count, Reset and SetLimit epochs — with
// strings in a slice and nothing else. No symbols, no buffers, no
// recycling.
type refTracer struct {
	now     func() sim.Time
	limit   int
	epoch   int
	task    uint64
	taskSeq uint64
	dropped uint64
	spans   []refSpan
}

type refSpan struct {
	Track, Name string
	Task        uint64
	Start, End  sim.Time
	Instant     bool
	Attrs       []Attr
}

// refActive is an open reference span: epoch guards it against ending
// into a later epoch, idx < 0 is the inert span of a full buffer.
type refActive struct{ epoch, idx int }

func newRefTracer(now func() sim.Time) *refTracer {
	return &refTracer{now: now, limit: DefaultSpanLimit}
}

func (t *refTracer) begin(track, name string, attrs []Attr) refActive {
	if len(t.spans) >= t.limit {
		t.dropped++
		return refActive{idx: -1}
	}
	t.spans = append(t.spans, refSpan{Track: track, Name: name, Task: t.task, Start: t.now()})
	a := refActive{epoch: t.epoch, idx: len(t.spans) - 1}
	t.attr(a, attrs)
	return a
}

func (t *refTracer) live(a refActive) *refSpan {
	if a.idx < 0 || a.epoch != t.epoch {
		return nil
	}
	return &t.spans[a.idx]
}

func (t *refTracer) attr(a refActive, attrs []Attr) {
	if s := t.live(a); s != nil {
		s.Attrs = append(s.Attrs, attrs[:min(len(attrs), maxSpanAttrs-len(s.Attrs))]...)
	}
}

func (t *refTracer) end(a refActive) {
	if s := t.live(a); s != nil {
		s.End = t.now()
	}
}

func (t *refTracer) instant(track, name string, attrs []Attr) {
	if s := t.live(t.begin(track, name, attrs)); s != nil {
		s.End, s.Instant = s.Start, true
	}
}

func (t *refTracer) reset() { t.epoch, t.spans, t.dropped = t.epoch+1, nil, 0 }

func (t *refTracer) setLimit(n int) {
	if n <= 0 {
		n = DefaultSpanLimit
	}
	t.limit = n
	t.reset()
}

// asSpans converts the reference's spans for the explicit-list exporter.
func (t *refTracer) asSpans() []Span {
	out := make([]Span, len(t.spans))
	for i, r := range t.spans {
		s := Span{Track: r.Track, Name: r.Name, Task: r.Task, Start: r.Start, End: r.End, Instant: r.Instant}
		for _, a := range r.Attrs {
			s.attrs[s.nattrs] = a.field()
			s.nattrs++
		}
		out[i] = s
	}
	return out
}

// Vocabularies of the scripts: small, so a fuzz campaign exercises the
// recorder and not the symbol-table cap.
var (
	scriptTracks = []string{TrackSC, TrackFilter, TrackXPU}
	scriptNames  = []string{"classify", "seal", "open", "dma_write"}
	scriptKeys   = []string{"kind", "bytes", "addr", "ok"}
	scriptVals   = []string{"MWr", "MRd", "A2_write_read_protect"}
)

// scriptAttr builds the same attribute in both forms from two script
// bytes.
func scriptAttr(k, v byte) (Attr, Field) {
	key := scriptKeys[int(k)%len(scriptKeys)]
	hk := NewKey(key)
	switch k / 8 % 5 {
	case 0:
		val := scriptVals[int(v)%len(scriptVals)]
		return Str(key, val), hk.Str(Intern(val))
	case 1:
		return U64(key, uint64(v)<<40), hk.U64(uint64(v) << 40)
	case 2:
		return I64(key, -int64(v)), hk.I64(-int64(v))
	case 3:
		return Hex(key, uint64(v)<<12), hk.Hex(uint64(v) << 12)
	}
	return Attr{Key: key, num: uint64(v & 1), kind: attrBool}, hk.Bool(v&1 == 1)
}

// playScript drives a tracer and the reference with one op script and
// compares them after every harvest point and at the end: every field of
// every span, the drop count, and the Chrome export byte for byte. An
// op is three bytes: opcode, two operands. Spans are held open in a
// small table the script ends from, so ends arrive out of order, after
// a Reset, or never.
func playScript(t *testing.T, script []byte) {
	t.Helper()
	// The tracer's clock advances on every sample. The reference is
	// played first at each op and peeks at the value the tracer's sample
	// is about to return, so it never has to agree on how often the
	// clock is read — only on what a recorded time is.
	var clock sim.Time
	tr := NewTracer()
	tr.SetClock(func() sim.Time { clock += 3; return clock })
	ref := newRefTracer(func() sim.Time { return clock + 3 })

	type held struct {
		sp  ActiveSpan
		ref refActive
	}
	var open [8]held
	for i := range open {
		open[i].ref.idx = -1
	}
	compare := func(at int) {
		t.Helper()
		got := tr.Spans()
		if len(got) != len(ref.spans) {
			t.Fatalf("op %d: %d spans, reference has %d", at, len(got), len(ref.spans))
		}
		for i := range got {
			g, w := &got[i], &ref.spans[i]
			if g.Track != w.Track || g.Name != w.Name || g.Task != w.Task ||
				g.Start != w.Start || g.End != w.End || g.Instant != w.Instant {
				t.Fatalf("op %d span %d: got %+v, reference %+v", at, i, *g, *w)
			}
			ga := g.Attrs()
			if len(ga) != len(w.Attrs) {
				t.Fatalf("op %d span %d: %d attrs, reference has %d", at, i, len(ga), len(w.Attrs))
			}
			for j := range ga {
				if ga[j].Key != w.Attrs[j].Key || ga[j].Val() != w.Attrs[j].Val() {
					t.Fatalf("op %d span %d attr %d: %s=%s, reference %s=%s", at, i, j,
						ga[j].Key, ga[j].Val(), w.Attrs[j].Key, w.Attrs[j].Val())
				}
			}
		}
		if tr.Dropped() != ref.dropped {
			t.Fatalf("op %d: dropped %d, reference %d", at, tr.Dropped(), ref.dropped)
		}
		var a, b bytes.Buffer
		if err := tr.WriteChromeTrace(&a); err != nil {
			t.Fatal(err)
		}
		if err := WriteChromeTrace(&b, ref.asSpans()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("op %d: Chrome exports differ:\n%s\n%s", at, a.Bytes(), b.Bytes())
		}
	}

	for pc := 0; pc+2 < len(script); pc += 3 {
		op, x, y := script[pc], script[pc+1], script[pc+2]
		track := scriptTracks[int(x)%len(scriptTracks)]
		name := scriptNames[int(y)%len(scriptNames)]
		attr, field := scriptAttr(x, y)
		slot := &open[int(x)%len(open)]
		switch op % 12 {
		case 0: // string-form begin into a slot (whatever it held is never ended)
			slot.ref = ref.begin(track, name, []Attr{attr})
			slot.sp = tr.Begin(track, name, attr)
		case 1: // handle-form begin
			slot.ref = ref.begin(track, name, []Attr{attr, attr})
			slot.sp = tr.Start(NewSite(track, name), field, field)
		case 2:
			ref.attr(slot.ref, []Attr{attr})
			slot.sp.Attr(attr)
		case 3: // two at once: crosses the cap mid-call
			ref.attr(slot.ref, []Attr{attr, attr})
			slot.sp.Set(field, field)
		case 4, 5:
			ref.end(slot.ref)
			slot.sp.End()
			*slot = held{ref: refActive{idx: -1}}
		case 6:
			ref.instant(track, name, []Attr{attr})
			tr.Instant(track, name, attr)
		case 7:
			ref.instant(track, name, nil)
			tr.Mark(NewSite(track, name))
		case 8:
			ref.taskSeq++
			ref.task = ref.taskSeq
			if id := tr.StartTask(); id != ref.task {
				t.Fatalf("op %d: task id %d, reference %d", pc/3, id, ref.task)
			}
		case 9:
			ref.task = 0
			tr.EndTask()
		case 10:
			compare(pc / 3)
			ref.reset()
			tr.Reset()
		case 11: // small limits, so scripts fill and overflow the buffer
			compare(pc / 3)
			ref.setLimit(int(x) % 24)
			tr.SetLimit(int(x) % 24)
		}
	}
	compare(len(script) / 3)
}

// seededScript is a deterministic pseudo-random script.
func seededScript(seed uint64, ops int) []byte {
	r := sim.NewRand(seed)
	script := make([]byte, 3*ops)
	for i := range script {
		script[i] = byte(r.Uint64())
	}
	return script
}

// TestSpansMatchesReference plays seeded scripts — begins in both call
// forms, attributes, out-of-order and missing ends, instants, task
// scopes, resets and limit changes over full and overflowing buffers —
// against the reference.
func TestSpansMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { playScript(t, seededScript(seed, 400)) })
	}
}

// FuzzTracerScript lets the fuzzer write the scripts.
func FuzzTracerScript(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(seededScript(seed, 120))
	}
	f.Fuzz(func(t *testing.T, script []byte) { playScript(t, script) })
}
