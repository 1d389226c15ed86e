package obsv

import "testing"

// BenchmarkHarvest is one harvest — Spans then Reset — of a buffer
// holding 2,600 five-attribute spans: one op of the benchmark's
// llm-decode count pass.
func BenchmarkHarvest(b *testing.B) {
	const spans = 2600
	tr := NewTracer()
	tr.SetLimit(1 << 15)
	site := NewSite(TrackSC, "harvest")
	k := [5]Key{NewKey("a"), NewKey("b"), NewKey("c"), NewKey("d"), NewKey("e")}
	fill := func() {
		for i := uint64(0); i < spans; i++ {
			sp := tr.Start(site, k[0].U64(i), k[1].I64(int64(i)), k[2].Hex(i), k[3].Bool(true), k[4].Str(symOverflow))
			sp.End()
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fill()
		b.StartTimer()
		if got := len(tr.Spans()); got != spans {
			b.Fatalf("harvested %d spans", got)
		}
		tr.Reset()
	}
}

// BenchmarkRecord is one span with three attributes, begun and ended,
// in the handle form and in the string form of the same recorder.
func BenchmarkRecord(b *testing.B) {
	b.Run("handles", func(b *testing.B) {
		tr := NewTracer()
		site, k := NewSite(TrackSC, "record"), NewKey("k")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%DefaultSpanLimit == 0 {
				tr.Reset()
			}
			sp := tr.Start(site, k.U64(uint64(i)), k.Hex(1), k.Str(symOverflow))
			sp.End()
		}
	})
	b.Run("strings", func(b *testing.B) {
		tr := NewTracer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%DefaultSpanLimit == 0 {
				tr.Reset()
			}
			sp := tr.Begin(TrackSC, "record", U64("k", uint64(i)), Hex("k", 1), Str("k", "(overflow)"))
			sp.End()
		}
	})
}
