package ccai

// Step-channel tests (DESIGN.md §16): the deterministic per-step wire
// budget of a decode stream and the Prefill contract, written by hand;
// the step gate the protocol model's harness shares; and the robustness
// cells — a lost positioned tag and a lost or duplicated ring doorbell
// on a decode step, interleaved sessions on one tenant with window
// renewal and the rekey that must still precede a step's seal at IV
// exhaustion, release on Close and on abort, a session outliving its
// trust generation — which play saved traces of the protocol model
// (protocol_model_test.go). The adversarial cells are in
// security_test.go.

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccai/internal/adaptor"
	"ccai/internal/core"
	"ccai/internal/fault"
	"ccai/internal/llm"
	"ccai/internal/pcie"
	"ccai/internal/trace"
	"ccai/internal/xpu"
)

// workerGate parks the single inference worker in its dequeue probe: each
// pass lets one claimed step through, and the gate opens for good when
// the test ends, before the chassis it was built after closes.
type workerGate struct {
	permit chan struct{}
	open   chan struct{}
	once   sync.Once
	parked atomic.Int32 // 1 while the worker waits at the gate
}

func gateSteps(t *testing.T, mp *MultiPlatform) *workerGate {
	g := &workerGate{permit: make(chan struct{}), open: make(chan struct{})}
	mp.SetLLMFaultHook(func(point string) bool {
		if point == fault.SchedPointDequeue {
			g.parked.Store(1)
			select {
			case <-g.permit:
			case <-g.open:
			}
			g.parked.Store(0)
		}
		return false
	})
	t.Cleanup(g.release)
	return g
}

// pass lets the worker run the step it has claimed; false when it claims
// none in time.
func (g *workerGate) pass() bool {
	select {
	case g.permit <- struct{}{}:
		return true
	case <-time.After(10 * time.Second):
		return false
	}
}

func (g *workerGate) release() { g.once.Do(func() { close(g.open) }) }

// openStream opens a session, takes its decode channel and prefills it.
func openStream(t *testing.T, tenant *Tenant, cfg llm.Config, prompt []byte) (*InferenceSession, <-chan DecodeChunk) {
	t.Helper()
	s, err := tenant.OpenSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := s.Decode(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Prefill(context.Background(), prompt); err != nil {
		t.Fatal(err)
	}
	return s, ch
}

// configOpens reads the SC-side config-stream open counter: one per
// sealed blob the SC accepted, and between trust bring-up and teardown
// every one is a region descriptor.
func configOpens(mp *MultiPlatform) uint64 {
	var n uint64
	for name, v := range mp.Obs.Reg().Snapshot().Counters {
		if strings.HasPrefix(name, "secmem.open.ops{") && strings.Contains(name, "side=crypto/sc") &&
			strings.Contains(name, "stream="+core.StreamConfig) {
			n += v
		}
	}
	return n
}

// TestDecodeStepWireBudget is the deterministic price of one decode
// step on the untrusted side: a 16-prompt / 512-token / 8-per-chunk
// session (the benchmark's llm-decode shape) is sampled at every step
// dispatch, and every steady-state decode step must cost no sealed
// config blob, at most 2 MMIO writes (ring doorbell, guarded doorbell),
// no MMIO read, at most 15 host-bus TLPs, at most 5 submission-ring
// slots and exactly one SC fetch of its command slots — or two fetches
// and 17 TLPs for the step whose three commands straddle the end of the
// 64-slot command ring, which is two runs. On the internal segment a step
// costs at most 10 TLPs, exactly one of them the device's read of its
// command run (12 and two reads for the straddling step). The whole
// session installs at most 5 descriptors (KV, prompt, prefill output,
// step window, step output).
func TestDecodeStepWireBudget(t *testing.T) {
	mp := llmChassis(t, []xpu.Profile{xpu.A100}, WithObserve(), WithLLMEngine(llm.EngineConfig{Workers: 1}))
	tenant := mp.Tenants[0]
	tap := trace.NewRecorder()
	mp.Host.AddTap(tap)
	// What the SC fetches: command-ring runs, and submission-ring slots.
	fetches := cmdFetches(mp.Host, &tenant.pipeline)
	var ringSlots uint64
	mp.Host.AddTap(pcie.TapFunc(func(p *pcie.Packet) *pcie.Packet {
		if p.Kind == pcie.MRd && p.Requester == tenant.SC.DeviceID() {
			if buf, ok := tenant.space.Resolve(p.Address); ok && buf.Name() == "dma-submitring" {
				ringSlots += uint64(p.Length) / core.RingSlotSize
			}
		}
		return p
	}))
	// The internal segment: every TLP, and the device's command reads.
	inner := trace.NewRecorder()
	tenant.internal.AddTap(inner)
	reads := cmdReads(tenant.internal, tenant.space, tenant.XPUID)

	type sample struct {
		io      adaptor.IOStats
		tlps    uint64
		inner   uint64
		configs uint64
		slots   uint64
		fetches uint64
		reads   uint64
		tail    uint64
	}
	take := func() sample {
		return sample{io: tenant.Adaptor.IO(), tlps: tap.Packets(), inner: inner.Packets(), configs: configOpens(mp),
			slots: ringSlots, fetches: uint64(len(*fetches)), reads: uint64(len(*reads)), tail: tenant.Driver.Tail()}
	}
	// One sample per dispatch, taken by the single worker just before the
	// step runs: samples[i] is the state before step i (0 = prefill).
	var samples []sample
	mp.SetLLMFaultHook(func(point string) bool {
		if point == fault.SchedPointDequeue {
			samples = append(samples, take())
		}
		return false
	})

	cfg := llm.Config{MaxNewTokens: 512, ChunkTokens: 8, MaxPromptTokens: 16, Seed: 0xb0d9e7}
	prompt := []byte("sixteen tokens of prompt, sealed and staged once, never again!!!")
	before := take()
	s, ch := openStream(t, tenant, cfg, prompt)
	if got := collectStream(t, ch); !bytes.Equal(got, expectedStream(cfg, prompt)) {
		t.Fatal("token stream wrong")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	after := take()
	mp.SetLLMFaultHook(nil)

	steps := cfg.Chunks()
	if len(samples) != steps {
		t.Fatalf("%d dispatches sampled, want %d", len(samples), steps)
	}
	// Decode step 1 opens the channel and the last one is followed by its
	// release; the 61 in between are the steady state.
	wraps := 0
	for i := 2; i < steps-1; i++ {
		a, b := samples[i], samples[i+1]
		blobs, writes, reads, tlps := b.configs-a.configs, b.io.MMIOWrites-a.io.MMIOWrites, b.io.MMIOReads-a.io.MMIOReads, b.tlps-a.tlps
		slots, fetches := b.slots-a.slots, b.fetches-a.fetches
		wantFetches, maxTLPs, maxInner := uint64(1), uint64(15), uint64(10)
		if a.tail%ringEntries > ringEntries-3 { // the step's commands wrap the command ring
			wantFetches, maxTLPs, maxInner = 2, 17, 12
			wraps++
		}
		if blobs != 0 || writes > 2 || reads != 0 || tlps > maxTLPs || slots > 5 || fetches != wantFetches {
			t.Fatalf("decode step %d cost %d config blobs, %d MMIO writes, %d MMIO reads, %d host TLPs, %d ring slots, %d command fetches; budget 0 / 2 / 0 / %d / 5 / %d",
				i, blobs, writes, reads, tlps, slots, fetches, maxTLPs, wantFetches)
		}
		if innerTLPs, cmdReads := b.inner-a.inner, b.reads-a.reads; innerTLPs > maxInner || cmdReads != wantFetches {
			t.Fatalf("decode step %d cost %d internal TLPs and %d device command reads; budget %d / %d",
				i, innerTLPs, cmdReads, maxInner, wantFetches)
		}
	}
	if wraps != 1 {
		t.Fatalf("%d steady steps straddled the command ring's end, want 1 (the two-run case must be exercised)", wraps)
	}
	if installs := after.configs - before.configs; installs > 5 {
		t.Fatalf("session installed %d descriptors, budget 5", installs)
	}
	t.Logf("steady decode step: %d MMIO writes, %d host TLPs, %d internal TLPs, %d ring slots; session: %d installs, %d MMIO writes, %d host TLPs",
		samples[11].io.MMIOWrites-samples[10].io.MMIOWrites, samples[11].tlps-samples[10].tlps, samples[11].inner-samples[10].inner,
		samples[11].slots-samples[10].slots, after.configs-before.configs, after.io.MMIOWrites-before.io.MMIOWrites, after.tlps-before.tlps)
}

// TestPrefillReturnsAfterChunkZero pins Prefill's documented contract:
// it blocks until the prefill step has executed, not until the stream
// ends. Decode step 1 is held at the dispatcher; Prefill must return
// with chunk 0 readable and the stream still open.
func TestPrefillReturnsAfterChunkZero(t *testing.T) {
	mp := llmChassis(t, []xpu.Profile{xpu.A100}, WithLLMEngine(llm.EngineConfig{Workers: 1}))
	gate := gateSteps(t, mp)
	cfg := llm.Config{MaxNewTokens: 32, ChunkTokens: 8, MaxPromptTokens: 16, Seed: 0x9f}
	prompt := []byte("prefill returns at chunk zero")
	s, err := mp.Tenants[0].OpenSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ch, err := s.Decode(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Prefill(context.Background(), prompt) }()
	if !gate.pass() {
		t.Fatal("the dispatcher never claimed the prefill step")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Prefill still blocked with the prefill step executed and decode step 1 held: it waits for the end of the stream")
	}
	want := expectedStream(cfg, prompt)
	select {
	case c := <-ch:
		if c.Err != nil || c.Index != 0 || !bytes.Equal(c.Tokens, want[:len(c.Tokens)]) {
			t.Fatalf("first chunk after Prefill: %+v", c)
		}
	default:
		t.Fatal("Prefill returned but chunk 0 is not readable")
	}
	select {
	case c, ok := <-ch:
		t.Fatalf("stream moved past the held step: chunk %+v, open %v", c, ok)
	default:
	}
	gate.release()
	rest, err := readStream(t, ch)
	var got []byte
	for _, c := range rest {
		got = append(got, c.Tokens...)
	}
	if err != nil || len(rest) != cfg.Chunks()-1 || !bytes.Equal(got, want[len(want)-len(got):]) {
		t.Fatalf("rest of the stream wrong (%v)", err)
	}
}

// TestDecodeStepFaultsHeal are the decode-step cells of the fault
// matrix, saved traces: the fault lands on decode step 2, a steady step,
// and heals through the recovery ladder — a repost of its lost positioned
// tag (L0), a retry of its lost ring doorbell (S4), nothing for a
// duplicated one (S5) — with the stream byte-exact and the tenant kept.
// A steady step's one ring doorbell publishes the whole submission, the
// guarded doorbell's MAC record included, so the doorbell cells lose or
// duplicate that record's delivery too, and cost no auth failure.
func TestDecodeStepFaultsHeal(t *testing.T) {
	for _, cell := range []string{"tag-loss/positioned", "drop-tlp/ring-doorbell", "dup-tlp/ring-doorbell"} {
		t.Run(cell, func(t *testing.T) { playTrace(t, "decode-"+strings.ReplaceAll(cell, "/", "-")) })
	}
}

// TestStepChannelReleasedOnCloseAndAbort: after a clean stream and Close,
// and after a stream aborted mid-decode and Close, the SC holds only the
// command ring and the host buffers are back at their post-trust count
// (the model's regions and buffers); that freed spans coalesce is
// internal/mem's TestFreeListProperty.
func TestStepChannelReleasedOnCloseAndAbort(t *testing.T) { playTrace(t, "step-release-close-abort") }

// TestStepChannelInterleaveRenewRekey: two sessions on one tenant —
// shared h2d counter space, a window each — interleave step by step long
// enough that every window is renewed, with the h2d counter forced to the
// edge of exhaustion under them. The model holds every stream byte-exact,
// the config stream to exactly 3 + 2 seals a window per session and one
// per rekey, the h2d epoch to one step, and no IV repeats.
func TestStepChannelInterleaveRenewRekey(t *testing.T) { playTrace(t, "step-interleave-renew-rekey") }

// TestSessionDiesWithItsTrustGeneration: a session prefilled before a
// teardown and a re-trust holds a KV the teardown wiped with the device.
// Its next decode step aborts the stream with ErrNotTrusted instead of
// computing on the wiped cache and handing back wrong tokens, and a
// fresh session serves.
func TestSessionDiesWithItsTrustGeneration(t *testing.T) { playTrace(t, "session-outlives-retrust") }
