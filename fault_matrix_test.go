package ccai

// Fault cells the protocol model does not drive: a fault aimed at the
// middle of a 256-chunk staging run, and the LLM session's tag-loss and
// rekey-mid-decode cells. The fault matrix itself is the saved traces
// TestFaultMatrix plays (protocol_model_test.go).

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ccai/internal/arena"
	"ccai/internal/attack"
	"ccai/internal/core"
	"ccai/internal/fault"
	"ccai/internal/llm"
	"ccai/internal/pcie"
	"ccai/internal/xpu"
)

// --- mid-pipeline fault class (DESIGN.md §10) --------------------------------

// arenaHoldsSecret drains a sample of pooled buffers across the
// arena's size classes and scans them for the canary. Arena buffers
// are reused without zeroing on the public-bytes path (Put), so any
// hit means plaintext went through Put instead of PutZero — the
// memory-discipline violation the streaming pipeline must never
// commit, fault or no fault.
func arenaHoldsSecret(canary []byte) bool {
	leaked := false
	for _, class := range []int{64, 128, 256, 512, 1024, 4096, 65536} {
		var bufs [][]byte
		for i := 0; i < 32; i++ {
			b := arena.Get(class)
			if bytes.Contains(b, canary) {
				leaked = true
			}
			bufs = append(bufs, b)
		}
		for _, b := range bufs {
			arena.Put(b)
		}
	}
	return leaked
}

// TestMidPipelineFaults targets the streaming staging pipeline
// specifically: the fault skips are tuned so the injection lands in
// the middle of a 256-chunk H2D staging run, not at its edges. The
// contract is the recovery ladder's — a mid-pipeline fault costs
// retries or (at worst) the session, never an invariant: no silently
// wrong output, no plaintext on the host segment, no IV reuse, and no
// plaintext left behind in pooled datapath buffers.
func TestMidPipelineFaults(t *testing.T) {
	cases := []struct {
		class fault.Class
		skip  int
	}{
		// CryptoTransient at skip 100: the engine faults while the
		// pipeline still has ~150 chunks to seal; the abort consumes no
		// counters and the retry reuses the same IV range.
		{fault.CryptoTransient, 100},
		// TagLoss at skip 130: the Tag Manager drops a record mid-table;
		// the device's span read over that chunk fails closed until the
		// recovery ladder reposts the table.
		{fault.TagLoss, 130},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.class.String(), func(t *testing.T) {
			p := protectedPlatform(t, xpu.A100)

			audit := newIVAuditor()
			for _, s := range []string{core.StreamH2D, core.StreamConfig} {
				if err := p.Adaptor.AuditIVs(s, audit.hook(s)); err != nil {
					t.Fatal(err)
				}
			}
			snoop := attack.NewSnooper()
			p.Host.AddTap(snoop)

			inj := fault.NewInjector(fault.Single(0x717e11e, tc.class, tc.skip, 2))
			wireFault(p, inj)

			// 64 KiB input (256 chunks through the pipeline) with the
			// canary embedded mid-stream, near the injection point.
			in := make([]byte, 64<<10)
			for i := range in {
				in[i] = byte(i * 11)
			}
			copy(in[130*256:], secret)
			out, err := p.RunTask(Task{Input: in, Kernel: KernelXOR, Param: 0x5a})

			if inj.TotalFired() == 0 {
				t.Fatalf("fault never fired; skip %d missed the pipeline", tc.skip)
			}
			if err == nil {
				for i := range in {
					if out[i] != in[i]^0x5a {
						t.Fatalf("silently corrupted output byte %d under mid-pipeline %v", i, tc.class)
					}
				}
				rec := p.Adaptor.Recovery()
				if rec.Retries+rec.CryptoRetries+rec.Reposts == 0 {
					t.Fatalf("task survived mid-pipeline %v without any recovery activity: %+v", tc.class, rec)
				}
			} else if p.trusted {
				t.Fatalf("mid-pipeline %v failed the task (%v) without failing closed", tc.class, err)
			}

			if snoop.SawPlaintext(secret) {
				t.Fatalf("plaintext canary on host bus under mid-pipeline %v", tc.class)
			}
			if r := audit.reuses(); len(r) != 0 {
				t.Fatalf("IV reuse under mid-pipeline %v: %v", tc.class, r)
			}
			if arenaHoldsSecret(secret) {
				t.Fatalf("plaintext canary left in pooled buffer under mid-pipeline %v", tc.class)
			}
		})
	}
}

// TestPrefillKVTagLossHeals is the session-side TagLoss cell: the lost
// tag record belongs to the prefill step's KV region (the first and by
// far the largest H2D region of the submission), not to the token-id
// region staged after it. The recovery ladder reposts every region the
// submission staged, so the device's stalled KV copy heals; reposting
// the id region alone (the pre-pipeline behaviour) burned all three
// attempts on the wrong table and failed the tenant closed.
func TestPrefillKVTagLossHeals(t *testing.T) {
	for _, skip := range []int{0, 5} {
		skip := skip
		t.Run(fmt.Sprintf("skip=%d", skip), func(t *testing.T) {
			mp := llmChassis(t, []xpu.Profile{xpu.A100})
			tenant := mp.Tenants[0]
			inj := fault.NewInjector(fault.Single(0x717e11e, fault.TagLoss, skip, 1))
			tenant.SC.Tags().SetFaultHook(inj.TagFault)

			cfg := llm.Config{MaxNewTokens: 16, ChunkTokens: 8, MaxPromptTokens: 16, Seed: 0x7a9}
			prompt := []byte("kv tag loss at prefill")
			s, err := tenant.OpenSession(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ch, err := s.Decode(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Prefill(context.Background(), prompt); err != nil {
				t.Fatalf("prefill under KV-region tag loss: %v", err)
			}
			if got := collectStream(t, ch); !bytes.Equal(got, expectedStream(cfg, prompt)) {
				t.Fatal("token stream corrupted by KV-region tag loss")
			}
			if inj.Fired(fault.TagLoss) != 1 {
				t.Fatalf("tag loss fired %d times, want 1; cell vacuous", inj.Fired(fault.TagLoss))
			}
			rec := tenant.Adaptor.Recovery()
			if rec.Reposts == 0 {
				t.Fatalf("stream survived without a repost: %+v", rec)
			}
			if rec.FailClosed != 0 || !tenant.trusted {
				t.Fatalf("one absorbed tag loss tore the tenant down: %+v", rec)
			}
		})
	}
}

// --- rekey-mid-decode fault class (DESIGN.md §16) ----------------------------

// TestRekeyMidDecode pins the KV-residency contract under counter
// pressure: an H2D rekey landing between two decode steps of a live
// inference session must trip the session's epoch fence, must NOT
// re-stage the KV-cache (the resident ciphertext belongs to the fenced
// epoch; only fresh per-step traffic moves to the new one), and must
// not perturb a single output byte. Matrix style, the episode runs
// twice and must produce an identical outcome signature.
func TestRekeyMidDecode(t *testing.T) {
	run := func() string {
		mp := llmChassis(t, []xpu.Profile{xpu.A100},
			WithLLMEngine(llm.EngineConfig{Workers: 1}))
		defer mp.Close()
		tenant := mp.Tenants[0]

		// Tap: count device reads against the session's KV bounce buffer.
		var (
			sessMu  sync.Mutex
			sess    *InferenceSession
			kvReads atomic.Int64
		)
		mp.Host.AddTap(pcie.TapFunc(func(p *pcie.Packet) *pcie.Packet {
			if p.Kind != pcie.MRd {
				return p
			}
			sessMu.Lock()
			s := sess
			sessMu.Unlock()
			if s == nil {
				return p
			}
			s.mu.Lock()
			r := s.kvRegion
			s.mu.Unlock()
			if r != nil && r.Buf.Contains(p.Address) {
				kvReads.Add(1)
			}
			return p
		}))
		defer mp.Host.ClearTaps()

		// The dispatcher probes the fault hook once per step. Steps run
		// prefill, decode#1, decode#2, decode#3 — the third probe fires the
		// rekey, so it lands exactly between decode#1 and decode#2.
		var probes atomic.Int64
		mp.SetLLMFaultHook(func(point string) bool {
			if point != fault.SchedPointDequeue {
				return false
			}
			if probes.Add(1) == 3 {
				if err := tenant.Adaptor.RekeyStream(core.StreamH2D); err != nil {
					t.Errorf("mid-decode rekey: %v", err)
				}
			}
			return false
		})

		cfg := llm.Config{MaxNewTokens: 32, ChunkTokens: 8, MaxPromptTokens: 16, Seed: 0x5eed}
		s, err := tenant.OpenSession(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		sessMu.Lock()
		sess = s
		sessMu.Unlock()
		ch, err := s.Decode(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		prompt := []byte("rekey mid decode episode")
		if err := s.Prefill(context.Background(), prompt); err != nil {
			t.Fatal(err)
		}
		stagedReads := kvReads.Load() // prefill done: KV image is resident

		got := collectStream(t, ch)
		want := expectedStream(cfg, prompt)
		if !bytes.Equal(got, want) {
			t.Fatal("token stream corrupted by mid-decode rekey")
		}
		if !s.KVFenced() {
			t.Fatal("epoch fence did not trip: rekey invisible to the session")
		}
		cur := tenant.Adaptor.StreamEpoch(core.StreamH2D)
		if s.KVSealEpoch() >= cur {
			t.Fatalf("KV seal epoch %d not behind stream epoch %d after rekey", s.KVSealEpoch(), cur)
		}
		if extra := kvReads.Load() - stagedReads; extra != 0 {
			t.Fatalf("rekey re-staged the KV-cache: %d extra PCIe reads after prefill", extra)
		}
		if stagedReads == 0 {
			t.Fatal("vacuous cell: KV staging never crossed the tap")
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		sessMu.Lock()
		sess = nil
		sessMu.Unlock()
		return fmt.Sprintf("reads=%d fenced=%v seal=%d cur=%d bytes=%d",
			stagedReads, true, s.KVSealEpoch(), cur, len(got))
	}
	sig1 := run()
	sig2 := run()
	if sig1 != sig2 {
		t.Fatalf("rekey-mid-decode cell is nondeterministic:\n run1: %s\n run2: %s", sig1, sig2)
	}
}
