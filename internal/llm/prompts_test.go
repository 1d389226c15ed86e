package llm

import (
	"slices"
	"testing"
)

func TestPromptSamplerRange(t *testing.T) {
	s := NewPromptSampler(11)
	lengths := s.Sample(2000)
	min, max, sum := slices.Min(lengths), slices.Max(lengths), 0
	for _, n := range lengths {
		sum += n
	}
	mean := float64(sum) / float64(len(lengths))
	if min < 4 || max > 924 {
		t.Fatalf("range [%d,%d] outside [4,924]", min, max)
	}
	// Right-skewed: mean well above median of the short mode but far
	// below the max.
	if mean < 50 || mean > 400 {
		t.Fatalf("mean %.1f implausible for a chat-length mixture", mean)
	}
	// The tail must actually be exercised.
	long := 0
	for _, n := range lengths {
		if n > 500 {
			long++
		}
	}
	if long == 0 {
		t.Fatal("no long-context prompts drawn")
	}
	if long > len(lengths)/2 {
		t.Fatal("long mode dominates; skew inverted")
	}
}

func TestPromptSamplerDeterministic(t *testing.T) {
	a := NewPromptSampler(7).Sample(100)
	b := NewPromptSampler(7).Sample(100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed samplers diverged")
		}
	}
	c := NewPromptSampler(8).Sample(100)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical draws")
	}
}
