package ccai

// Step-channel tests (DESIGN.md §16): the deterministic per-step wire
// budget of a decode stream, the Prefill contract, and the robustness
// cells — a lost positioned tag and a lost ring doorbell on a decode
// step, interleaved sessions on one tenant, window renewal, release on
// Close and on abort, and the rekey that must still precede a step's
// seal at IV exhaustion. The adversarial cells are in security_test.go.

import (
	"bytes"
	"context"
	"encoding/binary"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ccai/internal/adaptor"
	"ccai/internal/attack"
	"ccai/internal/core"
	"ccai/internal/fault"
	"ccai/internal/llm"
	"ccai/internal/pcie"
	"ccai/internal/trace"
	"ccai/internal/xpu"
)

// stepGate holds the single-worker dispatcher at one step of a chassis:
// the first n-1 dispatches (1 = the first prefill) run, dispatch n and
// everything behind it requeue until release. With Workers: 1 the steps
// before it have run to completion once held reports true.
type stepGate struct {
	passed atomic.Int64
	open   atomic.Bool
	hit    atomic.Bool
}

func holdStep(mp *MultiPlatform, n int64) *stepGate {
	g := new(stepGate)
	mp.SetLLMFaultHook(func(point string) bool {
		if point != fault.SchedPointDequeue || g.open.Load() {
			return false
		}
		if g.passed.Load() < n-1 {
			g.passed.Add(1)
			return false
		}
		g.hit.Store(true)
		return true
	})
	return g
}

func (g *stepGate) held() bool { return g.hit.Load() }
func (g *stepGate) release()   { g.open.Store(true) }

func (g *stepGate) wait(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !g.held() {
		if time.Now().After(deadline) {
			t.Fatal("dispatcher never reached the gated step")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

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
	gate := holdStep(mp, 2)
	defer gate.release()
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
	if rest := collectStreamFrom(t, ch, 1); !bytes.Equal(rest, want[len(want)-len(rest):]) || len(rest) == 0 {
		t.Fatal("rest of the stream wrong")
	}
}

// TestDecodeStepFaultsHeal are the decode-step cells of the fault
// matrix: the fault lands on decode step 2, a steady step (held at the
// dispatcher while the injection point is wired), must heal through the
// recovery ladder — repost of the step's positioned tag, doorbell retry
// — and the stream must stay byte-exact without the tenant failing
// closed. A steady step's one ring doorbell publishes the whole
// submission, the MAC record of the guarded doorbell included, so the
// doorbell cells lose or duplicate that record's delivery too.
func TestDecodeStepFaultsHeal(t *testing.T) {
	cfg := llm.Config{MaxNewTokens: 48, ChunkTokens: 8, MaxPromptTokens: 16, Seed: 0x7a11}
	prompt := []byte("decode step fault cell")
	cells := []struct {
		name  string
		wire  func(mp *MultiPlatform) (fired func() uint64)
		check func(t *testing.T, rec adaptor.RecoveryStats)
	}{
		{"tag-loss/positioned", func(mp *MultiPlatform) func() uint64 {
			// The next h2d record to arrive is decode step 2's positioned tag.
			var dropped atomic.Uint64
			mp.Tenants[0].SC.Tags().SetFaultHook(func(rec core.TagRecord) bool {
				return rec.Stream == core.StreamH2D && dropped.CompareAndSwap(0, 1)
			})
			return dropped.Load
		}, func(t *testing.T, rec adaptor.RecoveryStats) {
			if rec.Reposts == 0 {
				t.Fatalf("stream survived a lost positioned tag without a repost: %+v", rec)
			}
		}},
		{"drop-tlp/ring-doorbell", func(mp *MultiPlatform) func() uint64 {
			drop := &attack.Dropper{Count: 1, Match: func(pk *pcie.Packet) bool {
				return isRingDoorbell(pk, mp.Tenants[0])
			}}
			mp.Host.AddTap(drop)
			carried := carriesGuardedRecord(mp)
			return func() uint64 { return uint64(drop.Dropped()) & *carried }
		}, func(t *testing.T, rec adaptor.RecoveryStats) {
			if rec.Retries == 0 || rec.Recovered == 0 {
				t.Fatalf("doorbell loss left no recovery trace: %+v", rec)
			}
		}},
		{"dup-tlp/ring-doorbell", func(mp *MultiPlatform) func() uint64 {
			// The SC consumes the burst on the first copy; the second finds
			// head == tail and only re-posts the header words.
			var dupes uint64
			mp.Host.AddTap(pcie.TapFunc(func(pk *pcie.Packet) *pcie.Packet {
				if dupes == 0 && isRingDoorbell(pk, mp.Tenants[0]) {
					dupes++
					mp.Host.Route(pk.Clone())
				}
				return pk
			}))
			carried := carriesGuardedRecord(mp)
			return func() uint64 { return dupes & *carried }
		}, func(t *testing.T, rec adaptor.RecoveryStats) {
			if rec != (adaptor.RecoveryStats{}) {
				t.Fatalf("a duplicated doorbell needed recovery: %+v", rec)
			}
		}},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			mp := llmChassis(t, []xpu.Profile{xpu.A100}, WithLLMEngine(llm.EngineConfig{Workers: 1}))
			tenant := mp.Tenants[0]
			gate := holdStep(mp, 3)
			s, ch := openStream(t, tenant, cfg, prompt)
			defer s.Close()
			gate.wait(t)
			fired := cell.wire(mp)
			gate.release()
			if got := collectStream(t, ch); !bytes.Equal(got, expectedStream(cfg, prompt)) {
				t.Fatal("token stream corrupted by a decode-step fault")
			}
			if st := tenant.SC.Stats(); st.AuthFailures != 0 && !strings.HasPrefix(cell.name, "tag-loss") {
				t.Fatalf("%d auth failures: the guarded doorbell went out ahead of its record", st.AuthFailures)
			}
			if fired() != 1 {
				t.Fatalf("fault fired %d times, want 1; cell vacuous", fired())
			}
			rec := tenant.Adaptor.Recovery()
			cell.check(t, rec)
			if rec.FailClosed != 0 || !tenant.trusted {
				t.Fatalf("one absorbed fault tore the tenant down: %+v", rec)
			}
		})
	}
}

func isRingDoorbell(pk *pcie.Packet, tenant *Tenant) bool {
	return pk.Kind == pcie.MWr && pk.Requester == tenant.TVMID && pk.Address == scBARBase+core.RegRingDoorbell
}

// carriesGuardedRecord watches the first submission-ring burst the SC
// fetches from now on and reports (1 or 0) whether it carried a lone
// StreamMMIO record in a tag entry — the MAC record of a direct guarded
// write, riding the burst that write's flush publishes.
func carriesGuardedRecord(mp *MultiPlatform) *uint64 {
	carried, bursts := new(uint64), 0
	mmio := core.TagRecord{Stream: core.StreamMMIO}.Marshal()[:4]
	mp.Host.AddTap(pcie.TapFunc(func(pk *pcie.Packet) *pcie.Packet {
		if pk.Kind != pcie.CplD || len(pk.Payload) == 0 || len(pk.Payload)%core.RingSlotSize != 0 {
			return pk
		}
		if bursts++; bursts > 1 {
			return pk
		}
		for off := 0; off < len(pk.Payload); off += core.RingSlotSize {
			slot := pk.Payload[off:]
			if slot[0] == core.RingOpTags && binary.LittleEndian.Uint64(slot[8:]) == 0 &&
				binary.LittleEndian.Uint16(slot[2:]) == core.TagRecordSize &&
				bytes.Equal(slot[core.RingEntryHdrSize:][:4], mmio) {
				*carried = 1
			}
		}
		return pk
	}))
	return carried
}

// largestFree is the largest single allocation a space region can
// serve, in pages: with everything released and coalesced it returns to
// its pre-session value.
func largestFree(t *testing.T, mp *MultiPlatform, region string) int64 {
	t.Helper()
	lo, hi := int64(0), int64(sharedSize/4/4096)
	for lo < hi {
		mid := (lo + hi + 1) / 2
		b, err := mp.space.Alloc(region, "probe", mid*4096)
		if err != nil {
			hi = mid - 1
			continue
		}
		mp.space.Free(b)
		lo = mid
	}
	return lo
}

// TestStepChannelReleasedOnCloseAndAbort: after a clean stream + Close,
// and after a stream aborted mid-decode + Close, the SC holds only the
// command ring and the tenant's shared window is as free as before the
// session — the channel's two regions went back in one burst.
func TestStepChannelReleasedOnCloseAndAbort(t *testing.T) {
	mp := llmChassis(t, []xpu.Profile{xpu.A100}, WithLLMEngine(llm.EngineConfig{Workers: 1}))
	tenant := mp.Tenants[0]
	shared := "shared" + tenantLabel(0)
	baseRegions, baseFree := tenant.SC.Regions(), largestFree(t, mp, shared)
	if baseRegions != 1 {
		t.Fatalf("trusted baseline holds %d regions, want 1 (the command ring)", baseRegions)
	}
	cfg := llm.Config{MaxNewTokens: 64, ChunkTokens: 8, MaxPromptTokens: 16, Seed: 0xc105e}
	prompt := []byte("release on close and abort")
	check := func(when string) {
		t.Helper()
		if got := tenant.SC.Regions(); got != baseRegions {
			t.Fatalf("%s: SC holds %d regions, want %d", when, got, baseRegions)
		}
		if got := largestFree(t, mp, shared); got != baseFree {
			t.Fatalf("%s: largest free shared block %d pages, want %d", when, got, baseFree)
		}
	}

	s, ch := openStream(t, tenant, cfg, prompt)
	collectStream(t, ch)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	check("clean stream + Close")

	// Abort with the channel live: decode step 3 is held, so steps 1 and
	// 2 ran through the window when the consumer's context is cancelled.
	gate := holdStep(mp, 4)
	s, err := tenant.OpenSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch, err = s.Decode(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Prefill(context.Background(), prompt); err != nil {
		t.Fatal(err)
	}
	gate.wait(t)
	if tenant.SC.Regions() <= baseRegions {
		t.Fatal("vacuous: no step channel live at the abort")
	}
	cancel()
	var aborted bool
	for c := range ch {
		aborted = aborted || c.Err != nil
	}
	if !aborted {
		t.Fatal("cancelled stream closed without an Err chunk")
	}
	gate.release()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	check("mid-stream abort + Close")
}

// TestStepChannelInterleaveRenewRekey runs three sessions on one tenant
// — shared h2d counter space, a window each — long enough that every
// window is renewed mid-decode, with the h2d counter forced to the edge
// of exhaustion under them. Every stream must be byte-exact, every
// session must have installed exactly 3 + 2·⌈decode steps / W⌉
// descriptors, the rekey must have run before the next step sealed, and
// no IV may repeat on any stream.
func TestStepChannelInterleaveRenewRekey(t *testing.T) {
	mp := llmChassis(t, []xpu.Profile{xpu.A100}, WithObserve(), WithLLMEngine(llm.EngineConfig{Workers: 1}))
	tenant := mp.Tenants[0]
	audit := newIVAuditor()
	for _, stream := range []string{core.StreamH2D, core.StreamConfig} {
		if err := tenant.Adaptor.AuditIVs(stream, audit.hook(stream)); err != nil {
			t.Fatal(err)
		}
	}
	if d2h, err := tenant.SC.Params().Stream(core.StreamD2H); err == nil {
		d2h.SetIVAudit(audit.hook(core.StreamD2H))
	}

	const sessions, decodeSteps = 3, 150
	// The dispatcher is held until all three prefills are queued, so the
	// sessions interleave step by step; dispatch 200 exhausts the counter.
	var probes atomic.Int64
	var hold atomic.Bool
	hold.Store(true)
	mp.SetLLMFaultHook(func(point string) bool {
		if point != fault.SchedPointDequeue {
			return false
		}
		if hold.Load() {
			return true
		}
		if probes.Add(1) == 200 {
			if err := tenant.Adaptor.ForceStreamCounter(core.StreamH2D, ^uint32(0)-2); err != nil {
				t.Error(err)
			}
		}
		return false
	})

	before := configOpens(mp)
	var (
		sess    [sessions]*InferenceSession
		chans   [sessions]<-chan DecodeChunk
		cfgs    [sessions]llm.Config
		prompts [sessions][]byte
	)
	errs := make(chan error, sessions)
	for i := range sess {
		cfgs[i] = llm.Config{MaxNewTokens: 8 * (1 + decodeSteps), ChunkTokens: 8, MaxPromptTokens: 16, Seed: uint64(0x1e0 + i)}
		prompts[i] = []byte{byte('a' + i), 'b', 'c', 'd', 'e'}
		s, err := tenant.OpenSession(context.Background(), cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if chans[i], err = s.Decode(context.Background()); err != nil {
			t.Fatal(err)
		}
		sess[i] = s
		go func(i int) { errs <- sess[i].Prefill(context.Background(), prompts[i]) }(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for mp.Engine().Pending() < sessions {
		if time.Now().After(deadline) {
			t.Fatal("prefills never queued")
		}
		time.Sleep(100 * time.Microsecond)
	}
	epoch0 := tenant.Adaptor.StreamEpoch(core.StreamH2D)
	hold.Store(false)
	for range sess {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i := range sess {
		if got := collectStream(t, chans[i]); !bytes.Equal(got, expectedStream(cfgs[i], prompts[i])) {
			t.Fatalf("session %d: token stream wrong", i)
		}
		if err := sess[i].Close(); err != nil {
			t.Fatal(err)
		}
	}
	windows := (decodeSteps + adaptor.StepWindowSlots - 1) / adaptor.StepWindowSlots
	if got, want := configOpens(mp)-before, uint64(sessions*(3+2*windows))+1; got != want {
		// +1: the rekey command travels sealed under the config stream too.
		t.Fatalf("%d sealed config blobs for %d sessions of %d decode steps, want %d (3 + 2·%d installs each, 1 rekey)",
			got, sessions, decodeSteps, want, windows)
	}
	if tenant.Adaptor.StreamEpoch(core.StreamH2D) != epoch0+1 {
		t.Fatalf("h2d epoch %d → %d: the forced counter must rekey exactly once, before the next seal",
			epoch0, tenant.Adaptor.StreamEpoch(core.StreamH2D))
	}
	if r := audit.reuses(); len(r) != 0 {
		t.Fatalf("IV reuse across sessions, renewals and the rekey: %v", r)
	}
	log := mp.Engine().StepLog()
	switches := 0
	for i := 1; i < len(log); i++ {
		if log[i].Session != log[i-1].Session {
			switches++
		}
	}
	if switches < decodeSteps {
		t.Fatalf("only %d session switches across %d dispatches: the sessions did not interleave", switches, len(log))
	}
	if tenant.SC.Regions() != 1 {
		t.Fatalf("SC holds %d regions after the last Close, want the command ring only", tenant.SC.Regions())
	}
}
