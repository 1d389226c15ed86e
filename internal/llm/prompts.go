package llm

import "ccai/internal/sim"

// PromptSampler draws synthetic chat-prompt lengths shaped like the
// public chat datasets the paper samples from (§8.3: "prompts adapted
// from the ShareGPT and Hellaswag datasets"; §8.6: "input tokens
// ranging from 4 to 924"). Real chat prompts are heavily right-skewed:
// many short questions, a long tail of pasted context. We model that
// as a two-component mixture — a short conversational mode and a
// long-context mode — truncated to the paper's observed [4, 924]
// range. Determinism comes from the seeded generator, so experiments
// using sampled prompts are exactly reproducible.
type PromptSampler struct {
	rng *sim.Rand
	// Min/Max clamp the distribution to the observed range.
	Min, Max int
	// LongFraction is the probability of drawing from the long-context
	// mode.
	LongFraction float64
}

// NewPromptSampler returns a sampler over the paper's observed range.
func NewPromptSampler(seed uint64) *PromptSampler {
	return &PromptSampler{
		rng: sim.NewRand(seed),
		Min: 4, Max: 924,
		LongFraction: 0.25,
	}
}

// Next draws one prompt length.
func (s *PromptSampler) Next() int {
	var n int
	if s.rng.Float64() < s.LongFraction {
		// Long-context mode: roughly uniform across the upper range —
		// pasted documents/transcripts don't cluster.
		n = 200 + s.rng.Intn(s.Max-200+1)
	} else {
		// Conversational mode: geometric-ish decay with mean ~60
		// tokens, built from the product of two uniform draws to skew
		// short.
		a := s.rng.Intn(180) + 1
		b := s.rng.Float64()
		n = int(float64(a)*b*b) + s.Min
	}
	if n < s.Min {
		n = s.Min
	}
	if n > s.Max {
		n = s.Max
	}
	return n
}

// Sample draws k prompt lengths.
func (s *PromptSampler) Sample(k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}
