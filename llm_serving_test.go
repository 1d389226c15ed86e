package ccai

// Continuous token-level LLM serving (DESIGN.md §16): the chassis and
// stream helpers the session tests share, the acceptance gate pinning
// that KV-cache bytes cross PCIe once per session (not once per decode
// step), and the cells the serving model does not reach: among them
// the ungated race of sessions on two tenants and two workers. The
// streaming happy path, the typed error taxonomy, release on Close and
// decode determinism are saved scripts of the serving model
// (serving_model_test.go, testdata/fuzz/FuzzServingPlatform).
//
// Quickstart: go test -race -run 'TestKVStagedOnce|TestCloseAbort|TestOwnerless|TestServingRaces|FuzzServingPlatform' -v

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"ccai/internal/llm"
	"ccai/internal/xpu"
)

// llmChassis builds a trusted chassis with the given engine config.
func llmChassis(t *testing.T, profiles []xpu.Profile, opts ...Option) *MultiPlatform {
	t.Helper()
	mp, err := NewMultiPlatform(profiles, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mp.Close)
	if err := mp.EstablishTrustAll(); err != nil {
		t.Fatal(err)
	}
	chassisHygiene(t, mp)
	return mp
}

// readStream reads a decode stream to its end, with a hang guard: the
// data chunks it delivered and the error that aborted it, if one did.
func readStream(t *testing.T, ch <-chan DecodeChunk) (chunks []DecodeChunk, err error) {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case c, ok := <-ch:
			switch {
			case !ok:
				return chunks, err
			case c.Err != nil:
				err = c.Err
			default:
				chunks = append(chunks, c)
			}
		case <-deadline:
			t.Fatal("decode stream stalled")
		}
	}
}

// collectStream reads a stream that must end cleanly, its chunks in
// Index order from 0, and returns the concatenated token bytes.
func collectStream(t *testing.T, ch <-chan DecodeChunk) []byte {
	t.Helper()
	chunks, err := readStream(t, ch)
	if err != nil {
		t.Fatalf("stream aborted: %v", err)
	}
	var out []byte
	for i, c := range chunks {
		if c.Index != i {
			t.Fatalf("chunk %d out of order, want %d", c.Index, i)
		}
		out = append(out, c.Tokens...)
	}
	return out
}

// expectedStream computes the host-side oracle: the byte stream the
// device must produce if (and only if) the KV-cache stayed resident
// and uncorrupted across every step.
func expectedStream(cfg llm.Config, prompt []byte) []byte {
	if err := cfg.Normalize(); err != nil {
		panic(err)
	}
	digest := llm.Digest(cfg.Seed, prompt)
	kv := llm.KVInit(digest, cfg.KVBytes(cfg.MaxPromptTokens))
	var out []byte
	for c := 0; c < cfg.Chunks(); c++ {
		span := int64(cfg.ChunkSpan(c) * cfg.TokenBytes)
		out = append(out, llm.ExpectedChunk(kv, digest, c, span)...)
	}
	return out
}

// TestLLMSessionStreamsExpectedTokens: two sessions stream to their end,
// interleaved, every chunk the one the reference kernel gives, and
// close with nothing left reserved (sessions-stream-expected).
func TestLLMSessionStreamsExpectedTokens(t *testing.T) { playServing(t, "sessions-stream-expected") }

// TestDecodeDeterminism: two sessions' prefills and decode steps
// interleave with each other and with blob tasks on the same tenant,
// each step the exact chunk the model names, in the order the
// dispatcher gives (decode-interleaved-with-blobs).
func TestDecodeDeterminism(t *testing.T) { playServing(t, "decode-interleaved-with-blobs") }

// TestLLMErrorTaxonomy: the errors.Is paths of the session API — a
// session past its device window, the KV budget at admission, spent
// device slots, an empty or overlong prompt, Prefill and Decode after
// Close (session-error-taxonomy).
func TestLLMErrorTaxonomy(t *testing.T) { playServing(t, "session-error-taxonomy") }

// TestLLMCloseReleasesDeterministically: Close frees the KV reservation
// and device slot synchronously, so sessions close and reopen at the
// budget's edge (close-reopen-at-budget-edge).
func TestLLMCloseReleasesDeterministically(t *testing.T) {
	playServing(t, "close-reopen-at-budget-edge")
}

// TestServingRacesAcrossTenants is the serving half with nothing gated,
// beside the model, which passes one step and one blob at a time: two
// sessions on each of two tenants stream on the engine's default
// workers while a scheduler with a slot per tenant runs blob tasks on
// the same tenants. Of the blobs, a third are cancelled while the slots
// are held, so they end cancelled, and a third on cancels racing their
// run, so they end either way. Every stream is its exact bytes, every
// blob its bytes or its cancellation, and the chassis hygiene (at the
// test's end, after the scheduler's shutdown) holds. `make stress` runs
// it under -race.
func TestServingRacesAcrossTenants(t *testing.T) {
	mp := llmChassis(t, []xpu.Profile{xpu.A100, xpu.T4})
	s, err := mp.NewScheduler(SchedulerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	hold := make(chan struct{})
	s.execGate = func(int) { <-hold }

	type stream struct {
		s       *InferenceSession
		ch      <-chan DecodeChunk
		prompt  []byte
		want    []byte
		prefill chan error
	}
	var streams []*stream
	for ti, tn := range mp.Tenants {
		for i := 0; i < 2; i++ {
			cfg := llm.Config{MaxNewTokens: 48, ChunkTokens: 8, MaxPromptTokens: 32, Seed: uint64(100*ti + i)}
			prompt := []byte(fmt.Sprintf("tenant %d session %d: summarize the ccAI paper", ti, i))
			sess, err := tn.OpenSession(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			ch, err := sess.Decode(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			streams = append(streams, &stream{s: sess, ch: ch, prompt: prompt, want: expectedStream(cfg, prompt), prefill: make(chan error, 1)})
		}
	}

	const n = 24
	hs, cancels := make([]*Handle, n), make([]context.CancelFunc, n)
	for i := range hs {
		ctx, cancel := context.WithCancel(context.Background())
		if hs[i], err = s.Submit(ctx, TenantTask{Tenant: i % 2, Task: schedTask(byte(i+1), 256*(1+i%4))}); err != nil {
			t.Fatal(err)
		}
		if cancels[i] = cancel; i%3 == 1 {
			cancel()
		}
	}
	// The prefills, the held blobs and the racing cancels start together.
	for _, st := range streams {
		go func() { st.prefill <- st.s.Prefill(context.Background(), st.prompt) }()
	}
	close(hold)
	for i := 2; i < n; i += 3 {
		go cancels[i]()
	}
	for i, st := range streams {
		if got := collectStream(t, st.ch); !bytes.Equal(got, st.want) || <-st.prefill != nil {
			t.Fatalf("session %d: the stream is not its expected one, or its Prefill failed", i)
		}
		if err := st.s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for i, h := range hs {
		out, err := mustResult(t, h)
		switch {
		case err == nil && i%3 != 1:
			checkXOR(t, schedTask(byte(i+1), 256*(1+i%4)).Input, out)
		case err == nil || out != nil || !errors.Is(err, context.Canceled) || i%3 == 0:
			t.Fatalf("blob %d ended %v with %d bytes", i, err, len(out))
		}
		cancels[i]()
	}
}

// TestKVStagedOncePerSession is the acceptance gate: KV bytes cross
// PCIe once per session, never once per decode step. A saved trace: the
// protocol model counts the SC's reads of a session's KV staging, which
// a prefill must cause and nothing after it may — over a session closed
// after its prefill and one streamed to its end.
func TestKVStagedOncePerSession(t *testing.T) { playTrace(t, "kv-staged-once") }

// TestCloseAbortMatchesBothSentinels: Close on a session whose stream has
// not finished ends the stream with one error chunk matching both
// ErrStreamAborted and ErrSessionClosed — on every session, though the
// error is built once (the model's e op, on two sessions in turn).
func TestCloseAbortMatchesBothSentinels(t *testing.T) { playTrace(t, "close-abort-sentinels") }

// TestOwnerlessStepFailsUnprobed: a step with no session behind it is
// failed before the workers' fault probes can see it, so it consumes no
// count of a deterministic fault schedule and cannot be stalled back
// into the queue.
func TestOwnerlessStepFailsUnprobed(t *testing.T) {
	mp := llmChassis(t, []xpu.Profile{xpu.A100}, WithLLMEngine(llm.EngineConfig{Workers: 1}))
	var probes atomic.Int32
	mp.SetLLMFaultHook(func(string) bool {
		probes.Add(1)
		return true
	})
	eng := mp.Engine()
	s, err := eng.Admit(llm.Config{MaxNewTokens: 8, ChunkTokens: 4, MaxPromptTokens: 16}, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Release(s)
	if err := eng.Start(s); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !errors.Is(eng.Start(s), llm.ErrSessionDone) {
		if time.Now().After(deadline) {
			t.Fatal("the ownerless step was never failed")
		}
		time.Sleep(time.Millisecond)
	}
	if n := probes.Load(); n != 0 {
		t.Fatalf("the ownerless step was probed %d times", n)
	}
}
