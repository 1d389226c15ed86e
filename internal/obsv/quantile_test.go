package obsv

import (
	"math"
	"strings"
	"testing"
)

// TestQuantileKnownDistribution feeds a uniform 1..40 distribution
// into bounds {10,20,30,40} (10 samples per bucket) where the
// interpolated quantiles have closed forms.
func TestQuantileKnownDistribution(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q.uniform", []int64{10, 20, 30, 40})
	for v := int64(1); v <= 40; v++ {
		h.ObserveExemplar(v, 0)
	}
	hv := r.Snapshot().Hists[0]
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0, 0},       // rank 0 interpolates to the bucket floor
		{0.25, 10},   // rank 10 = exactly the le-10 boundary
		{0.5, 20},    // rank 20 = exactly the le-20 boundary
		{0.75, 30},   // rank 30 = exactly the le-30 boundary
		{0.99, 39.6}, // rank 39.6, 9.6/10 into the (30,40] bucket
		{1, 40},
	} {
		if got := hv.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestQuantileSkewedDistribution(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q.skew", []int64{100, 1000, 10000})
	// 90 fast samples, 9 medium, 1 slow: a classic latency tail.
	for i := 0; i < 90; i++ {
		h.ObserveExemplar(50, 0)
	}
	for i := 0; i < 9; i++ {
		h.ObserveExemplar(500, 0)
	}
	h.ObserveExemplar(5000, 0)
	hv := r.Snapshot().Hists[0]
	// p50: rank 50 inside the first bucket (0,100] → 100*50/90 ≈ 55.6.
	if got, want := hv.Quantile(0.5), 100.0*50/90; math.Abs(got-want) > 1e-9 {
		t.Errorf("p50 = %v, want %v", got, want)
	}
	// p99: rank 99, first bucket holds 90, second holds 9 (cum 99) →
	// exactly the le-1000 boundary.
	if got := hv.Quantile(0.99); got != 1000 {
		t.Errorf("p99 = %v, want 1000", got)
	}
	// p100 lands in the overflow-adjacent last bucket's sample.
	if got := hv.Quantile(1); got != 10000 {
		t.Errorf("p100 = %v, want 10000", got)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var empty HistValue
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}

	r := NewRegistry()
	h := r.Histogram("q.overflow", []int64{10, 20})
	h.ObserveExemplar(1000, 0) // overflow bucket only
	hv := r.Snapshot().Hists[0]
	// Overflow saturates at the last finite bound.
	if got := hv.Quantile(0.5); got != 20 {
		t.Errorf("overflow Quantile = %v, want 20 (saturated)", got)
	}
	// Out-of-range q clamps.
	if got := hv.Quantile(-1); got != 20 {
		t.Errorf("Quantile(-1) = %v", got)
	}
	if got := hv.Quantile(2); got != 20 {
		t.Errorf("Quantile(2) = %v", got)
	}
}

func TestObserveExemplar(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q.ex", []int64{10, 100})
	h.ObserveExemplar(5, 0) // ref 0: counts, but stamps no exemplar
	h.ObserveExemplar(7, 41)
	h.ObserveExemplar(9, 42)  // same bucket: latest wins
	h.ObserveExemplar(50, 77) // second bucket
	h.ObserveExemplar(200, 0) // overflow, no exemplar

	hv := r.Snapshot().Hists[0]
	if hv.Count != 5 {
		t.Fatalf("count = %d, want 5", hv.Count)
	}
	if len(hv.Exemplars) != 2 {
		t.Fatalf("exemplars = %+v, want 2", hv.Exemplars)
	}
	if e := hv.Exemplars[0]; e.Bucket != 0 || e.Ref != 42 || e.Value != 9 {
		t.Errorf("bucket-0 exemplar = %+v, want {0 42 9}", e)
	}
	if e := hv.Exemplars[1]; e.Bucket != 1 || e.Ref != 77 || e.Value != 50 {
		t.Errorf("bucket-1 exemplar = %+v, want {1 77 50}", e)
	}

	text := r.Snapshot().RenderText()
	if !strings.Contains(text, "# {task=42} 9") {
		t.Errorf("RenderText missing exemplar annotation:\n%s", text)
	}
	if !strings.Contains(text, "p50=") || !strings.Contains(text, "p99=") {
		t.Errorf("RenderText missing quantile summary:\n%s", text)
	}

	// Nil safety: the observability-off contract extends to exemplars.
	var nilH *Histogram
	nilH.ObserveExemplar(1, 1)
}
