package ccai

// The fault cell the protocol model does not drive — a fault aimed at
// the middle of a 256-chunk staging run — and the LLM session's tag-loss
// and rekey-mid-decode cells, which play saved traces of the model. The
// fault matrix itself is the saved traces TestFaultMatrix plays
// (protocol_model_test.go).

import (
	"bytes"
	"fmt"
	"runtime"
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

			inj := fault.NewInjector(fault.Single(0x717e11e, tc.class, 0, tc.skip, 2))
			wireFault(&p.pipeline, p.Host, inj)

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

// TestPrefillKVLeavesNoPlaintextInArena is the KV image's hygiene cell.
// prefillStep derives the image into an arena buffer and must zero it
// back with PutZero as soon as StageH2D returns: after a clean prefill,
// and after one whose KV staging takes a CryptoTransient fault mid-seal
// (skip 128: one config seal for the KV descriptor, then the fault lands
// halfway through the 255 chunks of the KV batch, which is refused whole
// and sealed again). A window of the session's KV image is the canary.
// One proc, so the worker's PutZero and this goroutine's Gets share a
// pool.
func TestPrefillKVLeavesNoPlaintextInArena(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := llm.Config{MaxNewTokens: 8, ChunkTokens: 8, MaxPromptTokens: 128, TokenBytes: 4, KVBytesPerToken: 480, Seed: 0x4b56}
	prompt := make([]byte, cfg.MaxPromptTokens*cfg.TokenBytes)
	for i := range prompt {
		prompt[i] = byte(i*7 + 3)
	}
	kv := llm.KVInit(llm.Digest(cfg.Seed, prompt), cfg.KVBytes(cfg.MaxPromptTokens))
	canary := kv[len(kv)/2:][:64]
	for _, faulted := range []bool{false, true} {
		t.Run(fmt.Sprintf("crypto-fault=%v", faulted), func(t *testing.T) {
			mp := llmChassis(t, []xpu.Profile{xpu.A100}, WithLLMEngine(llm.EngineConfig{Workers: 1}))
			tn := mp.Tenants[0]
			inj := fault.NewInjector(fault.Single(0x4b56, fault.CryptoTransient, 0, 128, 2))
			if faulted {
				tn.Adaptor.InstallCryptoFault(inj.CryptoFault)
			}
			s, ch := openStream(t, tn, cfg, prompt)
			got := collectStream(t, ch)
			s.Close()
			if !bytes.Equal(got, expectedStream(cfg, prompt)) {
				t.Fatal("streamed chunk differs from the KV oracle")
			}
			if faulted {
				if fired, rec := inj.TotalFired(), tn.Adaptor.Recovery(); fired != 2 || rec.CryptoRetries != 2 {
					t.Fatalf("fault fired %d times, %d crypto retries; want 2 and 2", fired, rec.CryptoRetries)
				}
			}
			if arenaHoldsSecret(canary) {
				t.Fatal("KV plaintext left in a pooled buffer after prefill")
			}
		})
	}
}

// TestPrefillKVTagLossHeals is the session-side TagLoss cell: the lost
// tag record belongs to the prefill step's KV region (the first and by
// far the largest H2D region of the submission), not to the token-id
// region staged after it. The recovery ladder reposts every region the
// submission staged, so the device's stalled KV copy heals (L0, L5).
func TestPrefillKVTagLossHeals(t *testing.T) {
	for _, skip := range []int{0, 5} {
		t.Run(fmt.Sprintf("skip=%d", skip), func(t *testing.T) {
			playTrace(t, fmt.Sprintf("prefill-kv-tag-loss-%d", skip))
		})
	}
}

// TestRekeyMidDecode pins the KV-residency contract under counter
// pressure: an h2d rekey between decode steps 1 and 2 — slot 0 of the
// step window armed under the old epoch — trips the session's epoch
// fence, leaves its KV seal epoch behind, does not re-stage the KV (no
// read of its staging after prefill) and perturbs no output byte. Step
// 2's positioned entry carries the new epoch at slot 1 of the same
// window.
func TestRekeyMidDecode(t *testing.T) { playTrace(t, "rekey-mid-decode") }

// statusReads routes a read of the SC's status register onto host ahead
// of every ring doorbell: packets of a role no matrix plan names.
func statusReads(host *pcie.Bus) pcie.Tap {
	return pcie.TapFunc(func(p *pcie.Packet) *pcie.Packet {
		if p.Role == pcie.RoleRingDoorbell {
			host.Route(pcie.NewMemRead(TVMID, scBARBase+core.RegSCStatus, 8, 0).WithRole(pcie.RoleRegRead))
		}
		return p
	})
}

// TestFaultsCountPerRole plays every link-class matrix trace twice, the
// second time with an SC status read before every ring doorbell. A
// fault counts only the packets of the role it names, so the extra
// reads move no firing and no outcome.
func TestFaultsCountPerRole(t *testing.T) {
	for _, class := range fault.Classes() {
		if class.Hook() {
			continue
		}
		for _, seed := range matrixSeeds {
			t.Run(fmt.Sprintf("%v/seed=%#x", class, seed), func(t *testing.T) {
				data := savedTrace(t, fmt.Sprintf("matrix-%v-%#x", class, seed))
				var reads uint64
				counted := func(host *pcie.Bus) pcie.Tap {
					tap := statusReads(host)
					return pcie.TapFunc(func(p *pcie.Packet) *pcie.Packet {
						if p.Role == pcie.RoleRingDoorbell {
							reads++
						}
						return tap.Tap(p)
					})
				}
				plain, extra := runTrace(t, data), runTraceWith(t, data, counted)
				if reads == 0 {
					t.Fatal("no ring doorbell crossed the host bus: no read was added")
				}
				if plain.sig != extra.sig {
					t.Fatalf("%d status reads moved the cell:\n plain: %s\n extra: %s", reads, plain.sig, extra.sig)
				}
			})
		}
	}
}
