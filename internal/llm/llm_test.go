package llm

import (
	"testing"
	"testing/quick"
)

func TestCatalogueComplete(t *testing.T) {
	cat := Catalogue()
	if len(cat) != 9 {
		t.Fatalf("catalogue size = %d, want 9 (Figure 9)", len(cat))
	}
	seen := map[string]bool{}
	for _, m := range cat {
		if seen[m.Name] {
			t.Fatalf("duplicate model %q", m.Name)
		}
		seen[m.Name] = true
		if m.Params <= 0 || m.Layers <= 0 || m.Hidden <= 0 || m.Vocab <= 0 {
			t.Fatalf("%s: incomplete spec", m.Name)
		}
	}
}

// TestByName: the catalogue names each model once — Figure 9 keys the
// paper's overheads by name — and Llama2-7b by its own.
func TestByName(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range Catalogue() {
		if seen[m.Name] {
			t.Fatalf("%s catalogued twice", m.Name)
		}
		seen[m.Name] = true
		if m.Name == "Llama2-7b" && m.Layers != 32 {
			t.Fatalf("Llama2-7b: %+v", m)
		}
	}
	if !seen["Llama2-7b"] || seen["GPT-5"] {
		t.Fatal("catalogue names the wrong models")
	}
}

func TestQuantBits(t *testing.T) {
	cases := map[Quant]int{FP16: 16, INT8: 8, INT4: 4, INT2: 2}
	for q, want := range cases {
		if q.Bits() != want {
			t.Errorf("%v.Bits() = %d, want %d", q, q.Bits(), want)
		}
	}
}

func TestWeightBytesRespectsQuantization(t *testing.T) {
	// Llama2-7b FP16: ~13.5 GB.
	w := Llama2_7B.WeightBytes()
	if w < 13_000_000_000 || w > 14_000_000_000 {
		t.Fatalf("Llama2-7b weights = %d", w)
	}
	// Babel-83b INT2: ~20.8 GB despite 83B params.
	b := Babel83B.WeightBytes()
	if b < 20_000_000_000 || b > 22_000_000_000 {
		t.Fatalf("Babel-83b INT2 weights = %d", b)
	}
	// Deepseek-r1-32b INT8 must exceed the 70b INT4 by less than 2x
	// params would suggest (quantization matters).
	if DeepseekR1_32B.WeightBytes() <= Babel83B.WeightBytes() {
		t.Fatal("INT8 32b should outweigh INT2 83b")
	}
}

func TestSessionValidate(t *testing.T) {
	good := Session{Model: Llama2_7B, PromptTokens: 128, GenTokens: 128, Batch: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Session{
		{PromptTokens: 1, GenTokens: 1, Batch: 1},                   // no model
		{Model: Llama2_7B, PromptTokens: 0, GenTokens: 1, Batch: 1}, // no prompt
		{Model: Llama2_7B, PromptTokens: 1, GenTokens: 0, Batch: 1}, // no output
		{Model: Llama2_7B, PromptTokens: 1, GenTokens: 1, Batch: 0}, // no batch
		{Model: Llama2_7B, PromptTokens: 1, GenTokens: 1, Batch: 1, MemUtilCap: 1.5},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
}

func devMem40GB() int64 { return 40 << 30 }

func TestPlanLoadPhaseCoversWeights(t *testing.T) {
	s := Session{Model: Llama2_7B, PromptTokens: 128, GenTokens: 128, Batch: 1}
	tr, err := Plan(s, devMem40GB())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Load.H2DBytes != Llama2_7B.WeightBytes() {
		t.Fatalf("load H2D = %d, want %d", tr.Load.H2DBytes, Llama2_7B.WeightBytes())
	}
	if tr.Load.SensitiveH2D != tr.Load.H2DBytes {
		t.Fatal("weights not fully classified sensitive")
	}
	if tr.Load.DMATransfers < 2 {
		t.Fatal("bulk load must span multiple staging regions")
	}
}

func TestPlanStepTrafficScalesWithBatch(t *testing.T) {
	s1 := Session{Model: Llama2_7B, PromptTokens: 128, GenTokens: 128, Batch: 1}
	s8 := s1
	s8.Batch = 8
	t1, _ := Plan(s1, devMem40GB())
	t8, _ := Plan(s8, devMem40GB())
	if t8.Step.D2HBytes <= t1.Step.D2HBytes {
		t.Fatal("per-step D2H does not scale with batch")
	}
	if t8.Step.FLOPs != 8*t1.Step.FLOPs {
		t.Fatalf("step FLOPs: %g vs %g", t8.Step.FLOPs, t1.Step.FLOPs)
	}
	// Weight streaming per step is batch-independent.
	if t8.Step.DevMemBytes <= t1.Step.DevMemBytes {
		t.Fatal("KV traffic should grow with batch")
	}
}

func TestPlanPrefillScalesWithPromptTokens(t *testing.T) {
	short := Session{Model: Llama2_7B, PromptTokens: 64, GenTokens: 64, Batch: 1}
	long := short
	long.PromptTokens = 2048
	ts, _ := Plan(short, devMem40GB())
	tl, _ := Plan(long, devMem40GB())
	if tl.Prefill.FLOPs <= ts.Prefill.FLOPs*10 {
		t.Fatalf("prefill FLOPs: %g vs %g", tl.Prefill.FLOPs, ts.Prefill.FLOPs)
	}
	if tl.Prefill.H2DBytes <= ts.Prefill.H2DBytes {
		t.Fatal("prompt upload should grow with tokens")
	}
}

func TestPlanNoSwapWhenModelFits(t *testing.T) {
	s := Session{Model: Llama2_7B, PromptTokens: 512, GenTokens: 512, Batch: 1}
	tr, _ := Plan(s, devMem40GB())
	if tr.StepSwapBytes != 0 {
		t.Fatalf("7b model on 40GB device swapped %d bytes/step", tr.StepSwapBytes)
	}
}

func TestPlanSwapUnderMemoryCap(t *testing.T) {
	// Figure 12b: pinned 3GB KV + utilization cap forces swapping.
	s := Session{
		Model: Llama2_7B, PromptTokens: 512, GenTokens: 512, Batch: 1,
		MemUtilCap: 0.80, PinnedKVBytes: 3 << 30,
	}
	tr, _ := Plan(s, devMem40GB())
	if tr.StepSwapSerial == 0 {
		t.Fatal("capped pinned-KV session did not swap")
	}
	if tr.StepSwapBytes != 0 {
		t.Fatal("pinned-KV swap must be serial, not prefetchable")
	}
	// A tighter cap pushes more KV host-side and swaps more.
	s2 := s
	s2.MemUtilCap = 0.60
	tr2, _ := Plan(s2, devMem40GB())
	if tr2.StepSwapSerial <= tr.StepSwapSerial {
		t.Fatalf("tighter cap swapped less: %d vs %d", tr2.StepSwapSerial, tr.StepSwapSerial)
	}
}

func TestPlanHeavyModelSpillsOnA100(t *testing.T) {
	// Deepseek-r1-32b INT8 ≈ 32.8 GB weights + reserve > 40 GB × default.
	s := Session{Model: DeepseekR1_32B, PromptTokens: 512, GenTokens: 512, Batch: 1, MemUtilCap: 0.82}
	tr, err := Plan(s, devMem40GB())
	if err != nil {
		t.Fatal(err)
	}
	if tr.StepSwapBytes == 0 {
		t.Fatal("32b INT8 model should spill on a 40GB device")
	}
	// Light model under the same cap must not spill.
	s.Model = OPT13B
	tr2, _ := Plan(s, devMem40GB())
	if tr2.StepSwapBytes != 0 {
		t.Fatal("OPT-1.3b spilled")
	}
}

// Property: for any valid session, demands are non-negative and
// sensitive ⊆ total.
func TestPlanInvariantsProperty(t *testing.T) {
	f := func(prompt, gen, batch uint8, capPct uint8) bool {
		s := Session{
			Model:        Llama2_7B,
			PromptTokens: int(prompt%200) + 1,
			GenTokens:    int(gen%200) + 1,
			Batch:        int(batch%96) + 1,
			MemUtilCap:   float64(capPct%100) / 100,
		}
		tr, err := Plan(s, devMem40GB())
		if err != nil {
			return false
		}
		for _, d := range []Demand{tr.Load, tr.Prefill, tr.Step, tr.Teardown} {
			if d.H2DBytes < 0 || d.D2HBytes < 0 || d.FLOPs < 0 || d.DevMemBytes < 0 {
				return false
			}
			if d.SensitiveH2D > d.H2DBytes || d.SensitiveD2H > d.D2HBytes {
				return false
			}
		}
		return tr.StepSwapBytes >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestKVBytesPerToken(t *testing.T) {
	// Llama2-7b: 2 * 32 layers * 4096 hidden * 2 bytes = 512 KiB/token.
	if got := Llama2_7B.KVBytesPerToken(); got != 512<<10 {
		t.Fatalf("KV/token = %d, want %d", got, 512<<10)
	}
}

func TestModelAndQuantStrings(t *testing.T) {
	if Llama2_7B.String() == "" || FP16.String() != "FP16" || INT2.String() != "INT2" {
		t.Fatal("strings broken")
	}
	if Quant(9).String() == "" {
		t.Fatal("unknown quant string empty")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown quant Bits did not panic")
		}
	}()
	Quant(9).Bits()
}
