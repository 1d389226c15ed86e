package llm

import "fmt"

// Session describes one inference run: which model, how many prompt and
// generated tokens, how many sequences in the batch, and any memory cap
// applied to the device (Figure 12b's KV-swap stress test).
type Session struct {
	Model ModelSpec
	// PromptTokens is the input length per sequence; the fix-batch
	// sweeps in Figure 8 vary this.
	PromptTokens int
	// GenTokens is the number of output tokens per sequence.
	GenTokens int
	// Batch is the number of concurrent sequences.
	Batch int
	// MemUtilCap limits usable device memory to this fraction of
	// capacity (0 = no cap). §8.6 sweeps 0.8/0.7/0.6 to force KV
	// swapping.
	MemUtilCap float64
	// PinnedKVBytes reserves a fixed KV region regardless of token
	// count, matching §8.6's "3 GB KV-cache" configuration.
	PinnedKVBytes int64
}

// Validate reports configuration errors.
func (s Session) Validate() error {
	if s.Model.Params <= 0 {
		return fmt.Errorf("llm: session has no model")
	}
	if s.PromptTokens <= 0 || s.GenTokens <= 0 || s.Batch <= 0 {
		return fmt.Errorf("llm: tokens/batch must be positive (prompt=%d gen=%d batch=%d)",
			s.PromptTokens, s.GenTokens, s.Batch)
	}
	if s.MemUtilCap < 0 || s.MemUtilCap > 1 {
		return fmt.Errorf("llm: memory cap %v outside [0,1]", s.MemUtilCap)
	}
	return nil
}

// Framework staging constants: the per-step host traffic a standard
// inference stack generates besides the model itself. Each decode step
// copies the logits row per sequence to the host for sampling (FP16)
// plus a small control/sync tensor, and sends sampled token ids back.
const (
	perStepSyncBytes = 4096 // scheduler/stopping-criteria sync per step
	tokenIDBytes     = 8    // sampled token id + metadata per sequence
	kernelsPerLayer  = 1    // fused transformer block launch
	extraStepKernels = 3    // embedding, head, sampling kernels
)

// Demand is the resource demand of one phase, in device-agnostic units.
// The runner converts it to time against a device profile and a
// protection configuration.
type Demand struct {
	// H2DBytes/D2HBytes are host<->device DMA payload bytes. Sensitive
	// is the portion classified Write-Read Protected (A2); the
	// remainder travels Write Protected (A3) or Full Accessible (A4).
	H2DBytes, D2HBytes int64
	SensitiveH2D       int64
	SensitiveD2H       int64
	// FLOPs is dense compute demand.
	FLOPs float64
	// DevMemBytes is device-memory traffic (weight streaming + KV).
	DevMemBytes int64
	// KernelLaunches is the number of MMIO doorbell sequences.
	KernelLaunches int
	// DMATransfers is the number of distinct DMA regions (each costs
	// one metadata/notify interaction under ccAI; the non-optimized
	// ablation pays per chunk instead).
	DMATransfers int
}

// Trace is the expanded execution plan of a session.
type Trace struct {
	Session Session
	// Load is the one-time model upload phase.
	Load Demand
	// Prefill processes the prompt and produces the first token.
	Prefill Demand
	// Step is one decode iteration (all sequences advance one token);
	// the session runs GenTokens-1 of these after prefill.
	Step Demand
	// StepSwapBytes is additional per-step PCIe traffic caused by
	// memory pressure (weight/KV spill), zero when everything fits.
	// This traffic is prefetchable: the runner overlaps it with
	// compute, so it only costs wall-clock once it exceeds the step's
	// compute time (the bandwidth-saturated regime of Figures 9/12a).
	StepSwapBytes int64
	// StepSwapSerial is per-step KV-cache swap traffic under the §8.6
	// pinned-KV configuration. Attention needs these bytes mid-kernel,
	// so they serialize with compute rather than overlapping.
	StepSwapSerial int64
	// Teardown is the result download + environment clean phase.
	Teardown Demand
}

// Steps reports the number of decode iterations after prefill.
func (t *Trace) Steps() int { return t.Session.GenTokens - 1 }

// Plan expands a session into its trace. The expansion is where the
// workload's PCIe footprint is decided, so every constant here is part
// of the calibration surface documented in EXPERIMENTS.md.
func Plan(s Session, devMemBytes int64) (*Trace, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	m := s.Model
	t := &Trace{Session: s}

	// Model load: the whole quantized checkpoint crosses PCIe into
	// device memory. Weights are the proprietary asset ccAI protects,
	// so the full volume is sensitive (A2). Chunked into large
	// pinned-staging regions.
	w := m.WeightBytes()
	const stagingRegion = 256 << 20
	t.Load = Demand{
		H2DBytes:     w,
		SensitiveH2D: w,
		DevMemBytes:  w,
		DMATransfers: int((w + stagingRegion - 1) / stagingRegion),
	}

	// Prefill: upload the prompt (token ids; sensitive user input),
	// run one full forward over all prompt tokens, return the first
	// token + logits row per sequence.
	promptBytes := int64(s.Batch) * int64(s.PromptTokens) * 4
	logitsBytes := int64(s.Batch) * int64(m.Vocab) * 2
	kvPrefill := int64(s.Batch) * int64(s.PromptTokens) * m.KVBytesPerToken()
	t.Prefill = Demand{
		H2DBytes:       promptBytes,
		SensitiveH2D:   promptBytes,
		D2HBytes:       logitsBytes + int64(s.Batch)*tokenIDBytes,
		SensitiveD2H:   logitsBytes + int64(s.Batch)*tokenIDBytes,
		FLOPs:          float64(s.Batch) * float64(s.PromptTokens) * m.FLOPsPerToken(),
		DevMemBytes:    w + kvPrefill,
		KernelLaunches: m.Layers*kernelsPerLayer + extraStepKernels,
		DMATransfers:   3, // prompt in, logits out, token out
	}

	// Decode step: stream all weights once from device memory, attend
	// over the KV cache so far (approximated at its midpoint length),
	// sync logits + sampled ids with the host, feed next ids back.
	midKV := int64(s.PromptTokens) + int64(s.GenTokens)/2
	kvStep := int64(s.Batch) * midKV * m.KVBytesPerToken()
	t.Step = Demand{
		H2DBytes:       int64(s.Batch)*tokenIDBytes + perStepSyncBytes,
		SensitiveH2D:   int64(s.Batch) * tokenIDBytes,
		D2HBytes:       logitsBytes + int64(s.Batch)*tokenIDBytes + perStepSyncBytes,
		SensitiveD2H:   logitsBytes + int64(s.Batch)*tokenIDBytes,
		FLOPs:          float64(s.Batch) * m.FLOPsPerToken(),
		DevMemBytes:    w + kvStep,
		KernelLaunches: m.Layers*kernelsPerLayer + extraStepKernels,
		DMATransfers:   4, // logits out, ids out, ids in, sync
	}

	// Memory pressure: weights + KV + runtime must fit under the cap;
	// overflow spills and is re-fetched across PCIe each step. The
	// refetch factor reflects that only the spilled fraction's working
	// set moves per iteration, not the whole overflow every layer.
	const runtimeReserve = 2 << 30 // framework + activations
	capBytes := devMemBytes
	if s.MemUtilCap > 0 {
		capBytes = int64(float64(devMemBytes) * s.MemUtilCap)
	}
	if s.PinnedKVBytes > 0 && s.MemUtilCap > 0 {
		// §8.6 pinned-KV configuration: the utilization cap pushes a
		// fraction of the KV cache into host memory; each step's
		// attention touches a share of the host-resident part.
		const touchFactor = 0.2
		hostResident := float64(s.PinnedKVBytes) * (1 - s.MemUtilCap)
		t.StepSwapSerial = int64(hostResident * touchFactor)
	} else {
		kvTotal := int64(s.Batch) * (int64(s.PromptTokens) + int64(s.GenTokens)) * m.KVBytesPerToken()
		working := w + kvTotal + runtimeReserve
		if working > capBytes {
			overflow := working - capBytes
			// Only the spilled working set's hot share re-crosses PCIe
			// each step; the runtime prefetches it layer by layer.
			const refetchFactor = 0.15
			t.StepSwapBytes = int64(float64(overflow) * refetchFactor)
		}
	}

	// Teardown: final generated text (sensitive) comes home; the
	// environment guard wipes the device.
	outBytes := int64(s.Batch) * int64(s.GenTokens) * 4
	t.Teardown = Demand{
		D2HBytes:     outBytes,
		SensitiveD2H: outBytes,
		DMATransfers: 1,
	}
	return t, nil
}
