package ccai

// The fault×invariant matrix: every deterministic fault class of
// internal/fault, injected into a live Protected platform, crossed with
// the eight security invariants of DESIGN.md §6. The contract under
// test is the one the paper's threat model implies but never spells
// out: benign infrastructure failures may cost retries, latency, or —
// at worst — the session (fail closed), but they may never cost a
// single invariant. Each cell runs twice with the same seed and must
// produce an identical outcome signature — chaos here is replayable.
//
// Quickstart: go test -run TestFaultMatrix -v

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
	"ccai/internal/secmem"
	"ccai/internal/xpu"
)

// matrixSeeds are the fixed replay seeds; every cell must be
// deterministic for each of them.
var matrixSeeds = []uint64{0x0c0ffee1, 0x5eed0002, 0xfa117003}

// ivAuditor records every (stream, epoch, counter) consumed by any seal
// engine on either end. A repeat is an IV reuse — the one GCM failure
// no fault is ever allowed to cause.
type ivAuditor struct {
	mu       sync.Mutex
	seen     map[string]map[uint64]bool
	reused   []string
	maxEpoch map[string]uint32
}

func newIVAuditor() *ivAuditor {
	return &ivAuditor{seen: make(map[string]map[uint64]bool), maxEpoch: make(map[string]uint32)}
}

func (a *ivAuditor) hook(stream string) func(epoch, counter uint32) {
	return func(epoch, counter uint32) {
		a.mu.Lock()
		defer a.mu.Unlock()
		m := a.seen[stream]
		if m == nil {
			m = make(map[uint64]bool)
			a.seen[stream] = m
		}
		k := uint64(epoch)<<32 | uint64(counter)
		if m[k] {
			a.reused = append(a.reused, fmt.Sprintf("%s epoch=%d counter=%d", stream, epoch, counter))
		}
		m[k] = true
		if epoch > a.maxEpoch[stream] {
			a.maxEpoch[stream] = epoch
		}
	}
}

func (a *ivAuditor) reuses() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.reused...)
}

func (a *ivAuditor) epoch(stream string) uint32 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.maxEpoch[stream]
}

// matrixEvent derives the cell's injection schedule from the seed:
// small skips so scarce injection points (doorbells, MSIs) still get
// hit, and a count the recovery budget can absorb.
func matrixEvent(class fault.Class, seed uint64) fault.Plan {
	skip := int((seed >> 4) % 3)
	count := 1 + int(seed%2)
	switch class {
	case fault.DoorbellHang, fault.DropMSI,
		fault.HeadWritebackLoss, fault.HeadRegress, fault.DuplicateCplBurst:
		// Scarce injection points: one doorbell (and so one completion
		// writeback) per task, so large skips would miss the episode.
		skip = int(seed % 2)
	}
	return fault.Single(seed, class, skip, count)
}

// wireFault threads the injector into the class's injection point.
func wireFault(p *Platform, inj *fault.Injector, class fault.Class) {
	switch class {
	case fault.DoorbellHang, fault.DropMSI:
		p.Device.SetFaultHook(inj.DeviceFault)
	case fault.CryptoTransient:
		p.Adaptor.InstallCryptoFault(inj.CryptoFault)
	case fault.TagLoss:
		p.SC.Tags().SetFaultHook(inj.TagFault)
	default: // link-level classes ride the untrusted host segment
		p.Host.AddTap(inj)
	}
}

// runMatrixCell injects one fault class with one seed into a live
// platform, checks all eight §6 invariants, and returns (signature,
// fired). The signature captures everything observable about the cell's
// outcome; determinism is asserted by running the cell twice.
func runMatrixCell(t *testing.T, class fault.Class, seed uint64) (string, uint64) {
	t.Helper()
	p := protectedPlatform(t, xpu.A100)

	audit := newIVAuditor()
	for _, s := range []string{core.StreamH2D, core.StreamConfig} {
		if err := p.Adaptor.AuditIVs(s, audit.hook(s)); err != nil {
			t.Fatal(err)
		}
	}
	// The SC is the d2h seal side.
	if d2h, err := p.SC.Params().Stream(core.StreamD2H); err == nil {
		d2h.SetIVAudit(audit.hook(core.StreamD2H))
	}

	snoop := attack.NewSnooper()
	rec := &attack.Recorder{Match: func(pk *pcie.Packet) bool {
		return pk.Kind == pcie.MWr && pk.Requester == TVMID
	}}
	p.Host.AddTap(snoop)
	p.Host.AddTap(rec)

	inj := fault.NewInjector(matrixEvent(class, seed))
	wireFault(p, inj, class)

	// --- fault episode: two tasks under injection --------------------
	in1, in2 := taskInput(), []byte("matrix cell second task, shorter payload")
	out1, err1 := p.RunTask(Task{Input: in1, Kernel: KernelXOR, Param: 0x5a})
	out2, err2 := p.RunTask(Task{Input: in2, Kernel: KernelAdd, Param: 3})

	// I2/I3-corollary: correct output or a reported error — a fault must
	// never yield silently wrong data.
	if err1 == nil {
		for i := range in1 {
			if out1[i] != in1[i]^0x5a {
				t.Fatalf("I2 violated: task1 byte %d silently corrupted under %v", i, class)
			}
		}
	}
	if err2 == nil {
		for i := range in2 {
			if out2[i] != in2[i]+3 {
				t.Fatalf("I2 violated: task2 byte %d silently corrupted under %v", i, class)
			}
		}
	}

	// I1: no plaintext on the untrusted segment, fault or no fault.
	if snoop.SawPlaintext(secret) {
		t.Fatalf("I1 violated: plaintext secret on host bus under %v", class)
	}
	if snoop.PayloadBytes() == 0 {
		t.Fatalf("snooper saw no traffic under %v; cell vacuous", class)
	}

	fired := inj.TotalFired()
	recStats := p.Adaptor.Recovery()
	trustedAfter := p.trusted

	// Probe phase: the injector tap leaves the bus (its episode is
	// over); device/crypto/tag hooks stay installed.
	p.Host.ClearTaps()

	// I8: IV exhaustion forces rekey before reuse. Only reachable while
	// the session survived the episode; a fail-closed session has no
	// streams left to exhaust (which itself satisfies the invariant).
	if trustedAfter {
		epochBefore := audit.epoch(core.StreamH2D)
		if err := p.Adaptor.ForceStreamCounter(core.StreamH2D, ^uint32(0)-8); err != nil {
			t.Fatal(err)
		}
		out3, err3 := p.RunTask(Task{Input: []byte("exhaustion probe"), Kernel: KernelAdd, Param: 1})
		if err3 != nil {
			t.Fatalf("I8 probe task failed under %v: %v", class, err3)
		}
		if out3[0] != 'e'+1 {
			t.Fatalf("I8 probe output wrong under %v", class)
		}
		if audit.epoch(core.StreamH2D) <= epochBefore {
			t.Fatalf("I8 violated: counter at 2^32-9 did not force a rekey under %v", class)
		}
	}

	// I3: replayed protected traffic is rejected — no fresh decryptions,
	// no device-visible progress.
	if len(rec.Captured) == 0 {
		t.Fatalf("recorder captured nothing under %v", class)
	}
	decBefore := p.SC.Stats().DecryptedChunks
	rec.Replay(p.Host)
	if p.SC.Stats().DecryptedChunks != decBefore {
		t.Fatalf("I3 violated: replay caused fresh decryptions under %v", class)
	}

	// I4: unauthorized requesters stay blocked after the fault episode.
	rogue := &attack.RogueRequester{ID: pcie.MakeID(0, 9, 0), Bus: p.Host}
	droppedBefore := p.SC.Stats().Filter.Dropped
	rogue.Write(xpuBARBase+xpu.RegDoorbell, []byte{1, 0, 0, 0, 0, 0, 0, 0})
	if cpl := rogue.Read(xpuBARBase+xpu.RegStatus, 8); cpl != nil && cpl.Status == pcie.CplSuccess {
		t.Fatalf("I4 violated: rogue requester read device state under %v", class)
	}
	if p.SC.Stats().Filter.Dropped <= droppedBefore {
		t.Fatalf("I4 violated: L1 filter did not drop rogue traffic under %v", class)
	}

	// I5: config injection without the config key still fails. The
	// session may be live or torn down; the rule entry goes into the
	// ring either way and must be refused either way.
	rejBefore := p.SC.Stats().ConfigRejects
	l1Before, l2Before := p.SC.Filter().RuleCount()
	garbage := make([]byte, 4+secmem.TagSize+32)
	for i := range garbage {
		garbage[i] = byte(i*7 + 1)
	}
	forgeRingEntry(t, p, core.RingOpRule, 0, garbage)
	if l1, l2 := p.SC.Filter().RuleCount(); p.SC.Stats().ConfigRejects <= rejBefore || l1 != l1Before || l2 != l2Before {
		t.Fatalf("I5 violated: unsealed rule upload accepted under %v", class)
	}

	// I6: teardown leaves no residue and no keys, whether the session
	// failed closed mid-episode or is torn down now. Teardown is
	// idempotent, so a lost teardown write is re-issued like a real
	// driver would.
	p.Adaptor.Teardown()
	if p.Device.MemResidue() {
		t.Fatalf("I6 violated: workload residue on device after teardown under %v", class)
	}
	if n := p.SC.Params().Active(); n != 0 {
		t.Fatalf("I6 violated: %d live stream contexts after teardown under %v", n, class)
	}
	if p.scKeys.Count() != 0 || p.tvmKeys.Count() != 0 {
		t.Fatalf("I6 violated: key material survived teardown under %v", class)
	}

	// No injected fault may ever cause an IV reuse (cross-cutting
	// corollary of I8 that every cell checks).
	if r := audit.reuses(); len(r) != 0 {
		t.Fatalf("IV REUSE under %v: %v", class, r)
	}

	// I7: attestation of a flashed device still fails under this fault
	// class (fault hooks that exist pre-trust are wired; key-dependent
	// ones cannot exist before keys do).
	p7, err := New(WithXPU(xpu.A100), WithMode(Protected), WithGoldenFirmware("flashed-rogue-firmware-v666"))
	if err != nil {
		t.Fatal(err)
	}
	inj7 := fault.NewInjector(matrixEvent(class, seed))
	switch class {
	case fault.DoorbellHang, fault.DropMSI:
		p7.Device.SetFaultHook(inj7.DeviceFault)
	case fault.CryptoTransient, fault.TagLoss:
		// no pre-trust injection point
	default:
		p7.Host.AddTap(inj7)
	}
	if err := p7.EstablishTrust(); err == nil {
		t.Fatalf("I7 violated: flashed firmware attested under %v", class)
	}

	sig := fmt.Sprintf("err1=%v err2=%v fired=%d trusted=%v rec=%+v log=%v",
		err1 != nil, err2 != nil, fired, trustedAfter, recStats, inj.Log())
	return sig, fired
}

// TestFaultMatrix is the headline chaos suite: |fault classes| × 8
// invariants × len(matrixSeeds), each cell replayed twice to prove
// determinism.
func TestFaultMatrix(t *testing.T) {
	firedByClass := make(map[fault.Class]uint64)
	for _, class := range fault.Classes() {
		if class == fault.SchedStall || class == fault.CancelRace {
			// Scheduler-level classes have no injection point on a bare
			// Platform; TestSchedulerFaultMatrix covers them.
			continue
		}
		for _, seed := range matrixSeeds {
			class, seed := class, seed
			t.Run(fmt.Sprintf("%v/seed=%#x", class, seed), func(t *testing.T) {
				sig1, fired := runMatrixCell(t, class, seed)
				sig2, _ := runMatrixCell(t, class, seed)
				if sig1 != sig2 {
					t.Fatalf("cell is nondeterministic:\n run1: %s\n run2: %s", sig1, sig2)
				}
				firedByClass[class] += fired
			})
		}
	}
	// The matrix is only meaningful if the faults actually landed.
	landed := 0
	for class, n := range firedByClass {
		t.Logf("class %v fired %d times across seeds", class, n)
		if n > 0 {
			landed++
		}
	}
	if landed < 6 {
		t.Fatalf("only %d fault classes ever fired; matrix needs ≥6 live classes", landed)
	}
}

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
			wireFault(p, inj, tc.class)

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
