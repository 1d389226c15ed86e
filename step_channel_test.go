package ccai

// Step-channel tests (DESIGN.md §16): the Prefill contract, written by
// hand (what a decode step puts on the wire is the decode-step rows of
// the wire ledger, wire_ledger_test.go); the step gate the protocol
// model's harness shares; and the robustness cells — a lost positioned
// tag and a lost or duplicated ring doorbell on a decode step,
// interleaved sessions on one tenant with window renewal and the rekey
// that must still precede a step's seal at IV exhaustion, release on
// Close and on abort, a session outliving its trust generation — which
// play saved traces of the protocol model (protocol_model_test.go). The
// adversarial cells are in security_test.go.

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccai/internal/fault"
	"ccai/internal/llm"
	"ccai/internal/xpu"
)

// workerGate parks a single serving worker — the inference worker in its
// dequeue probe (gateSteps), the scheduler's one slot at the top of its
// run (the serving model) — until a pass lets the unit it claimed
// through; the gate opens for good when the test ends, before the
// chassis it was built after closes. arrivals counts the units that
// reached it.
type workerGate struct {
	permit   chan struct{}
	open     chan struct{}
	once     sync.Once
	parked   atomic.Int32 // 1 while the worker waits at the gate
	arrivals atomic.Int32
}

func newWorkerGate(t *testing.T) *workerGate {
	g := &workerGate{permit: make(chan struct{}), open: make(chan struct{})}
	t.Cleanup(g.release)
	return g
}

func gateSteps(t *testing.T, mp *MultiPlatform) *workerGate {
	g := newWorkerGate(t)
	mp.SetLLMFaultHook(func(point string) bool {
		if point == fault.SchedPointDequeue {
			g.wait()
		}
		return false
	})
	return g
}

// wait parks the calling worker until a pass, or the gate opens.
func (g *workerGate) wait() {
	g.arrivals.Add(1)
	g.parked.Store(1)
	select {
	case <-g.permit:
	case <-g.open:
	}
	g.parked.Store(0)
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
// device doorbell's guarded entry included, so the doorbell cells lose
// or duplicate that write's delivery too, and cost no auth failure.
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
