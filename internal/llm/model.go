// Package llm models the paper's evaluation workloads: large-language-
// model inference sessions whose DMA/MMIO traffic and compute demands
// drive the simulated platform. A ModelSpec captures the published
// architecture parameters of each benchmark model; Session expands a
// (model, tokens, batch) configuration into the phase-by-phase resource
// demands — bytes moved over PCIe, FLOPs executed, device-memory bytes
// streamed — that the virtual-time runner charges against a device
// profile and, when ccAI is enabled, against the protection cost model.
package llm

import "fmt"

// Quant is the weight quantization used by a benchmark entry (Figure 9
// mixes FP16/INT8/INT4/INT2 models).
type Quant int

const (
	// FP16 is 16-bit floating point weights.
	FP16 Quant = iota
	// INT8 is 8-bit integer quantization.
	INT8
	// INT4 is 4-bit integer quantization.
	INT4
	// INT2 is 2-bit integer quantization.
	INT2
)

// Bits reports the weight width in bits.
func (q Quant) Bits() int {
	switch q {
	case FP16:
		return 16
	case INT8:
		return 8
	case INT4:
		return 4
	case INT2:
		return 2
	}
	panic(fmt.Sprintf("llm: unknown quantization %d", int(q)))
}

func (q Quant) String() string {
	switch q {
	case FP16:
		return "FP16"
	case INT8:
		return "INT8"
	case INT4:
		return "INT4"
	case INT2:
		return "INT2"
	}
	return fmt.Sprintf("Quant(%d)", int(q))
}

// ModelSpec describes one benchmark LLM.
type ModelSpec struct {
	Name string
	// Params is the parameter count.
	Params int64
	// Layers, Hidden, Vocab are the architecture dimensions that size
	// KV-cache and per-step host traffic.
	Layers, Hidden, Vocab int
	// Quant fixes the bytes-per-weight for uploads and decode streaming.
	Quant Quant
}

// WeightBytes reports the total weight footprint.
func (m ModelSpec) WeightBytes() int64 {
	return m.Params * int64(m.Quant.Bits()) / 8
}

// KVBytesPerToken reports the KV-cache growth per token per sequence
// (keys + values, FP16, across all layers).
func (m ModelSpec) KVBytesPerToken() int64 {
	return 2 * int64(m.Layers) * int64(m.Hidden) * 2
}

// FLOPsPerToken reports dense forward FLOPs per generated token per
// sequence (the standard 2·params estimate).
func (m ModelSpec) FLOPsPerToken() float64 { return 2 * float64(m.Params) }

func (m ModelSpec) String() string { return fmt.Sprintf("%s (%s)", m.Name, m.Quant) }

// The benchmark catalogue mirrors §8.4's model list with published
// architecture numbers; Figure 9 annotates the quantization choices
// (INT8 for Deepseek-r1-32b, INT4 for the 70b models, INT2 for Babel).
var (
	OPT13B = ModelSpec{Name: "OPT-1.3b", Params: 1_300_000_000, Layers: 24, Hidden: 2048, Vocab: 50272, Quant: FP16}

	BLOOM3B = ModelSpec{Name: "BLOOM-3b", Params: 3_000_000_000, Layers: 30, Hidden: 2560, Vocab: 250880, Quant: FP16}

	DeepseekLLM7B = ModelSpec{Name: "Deepseek-llm-7b", Params: 7_000_000_000, Layers: 30, Hidden: 4096, Vocab: 102400, Quant: FP16}

	Llama2_7B = ModelSpec{Name: "Llama2-7b", Params: 6_740_000_000, Layers: 32, Hidden: 4096, Vocab: 32000, Quant: FP16}

	Llama3_8B = ModelSpec{Name: "Llama3-8b", Params: 8_030_000_000, Layers: 32, Hidden: 4096, Vocab: 128256, Quant: FP16}

	DeepseekR1_32B = ModelSpec{Name: "Deepseek-r1-32b", Params: 32_800_000_000, Layers: 64, Hidden: 5120, Vocab: 152064, Quant: INT8}

	DeepseekR1_70B = ModelSpec{Name: "Deepseek-r1-70b", Params: 70_600_000_000, Layers: 80, Hidden: 8192, Vocab: 128256, Quant: INT4}

	Llama3_70B = ModelSpec{Name: "Llama3-70b", Params: 70_600_000_000, Layers: 80, Hidden: 8192, Vocab: 128256, Quant: INT4}

	Babel83B = ModelSpec{Name: "Babel-83b", Params: 83_000_000_000, Layers: 80, Hidden: 8192, Vocab: 150000, Quant: INT2}
)

// Catalogue returns the Figure 9 model list in the paper's order.
func Catalogue() []ModelSpec {
	return []ModelSpec{
		OPT13B, BLOOM3B, DeepseekLLM7B, Llama2_7B, Llama3_8B,
		DeepseekR1_32B, DeepseekR1_70B, Llama3_70B, Babel83B,
	}
}
