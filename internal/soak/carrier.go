package soak

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"ccai"
	"ccai/internal/adaptor"
	"ccai/internal/attack"
	"ccai/internal/core"
	"ccai/internal/fault"
	"ccai/internal/llm"
	"ccai/internal/pcie"
	"ccai/internal/sim"
	"ccai/internal/xpu"
)

// Probe outcomes.
const (
	probeOK = iota
	probeFailed
	probeCanceled
)

// classPenalty is the virtual recovery cost charged when a fault class
// fires during a probe: the modelled time the recovery ladder spends
// absorbing that class (retry rounds, tag reposts, MMIO resync, slot
// re-dispatch). It feeds the probe-carrying request's virtual service
// time, so injected faults surface in the scorecard's latency tails
// exactly like they would in production traces.
var classPenalty = map[fault.Class]sim.Time{
	fault.CorruptTLP:      200 * sim.Microsecond,
	fault.DropTLP:         300 * sim.Microsecond,
	fault.TruncateTLP:     200 * sim.Microsecond,
	fault.DropCompletion:  400 * sim.Microsecond,
	fault.StaleCompletion: 350 * sim.Microsecond,
	fault.DoorbellHang:    500 * sim.Microsecond,
	fault.DropMSI:         450 * sim.Microsecond,
	fault.CryptoTransient: 80 * sim.Microsecond,
	fault.TagLoss:         250 * sim.Microsecond,
	fault.SchedStall:      120 * sim.Microsecond,
	fault.CancelRace:      60 * sim.Microsecond,
}

// Recovery-activity costs: each RecoveryStats delta observed across a
// probe converts to virtual time at these rates, and a session that
// failed closed pays the re-trust toll on top.
const (
	retryPenalty   = 200 * sim.Microsecond
	cryptoPenalty  = 50 * sim.Microsecond
	repostPenalty  = 150 * sim.Microsecond
	resyncPenalty  = 250 * sim.Microsecond
	timeoutPenalty = 300 * sim.Microsecond
	stalePenalty   = 100 * sim.Microsecond
	retrustPenalty = 40 * sim.Millisecond
)

// recAgg accumulates per-fault-class recovery time.
type recAgg struct {
	sum sim.Time
	n   int64
}

// carrier is the real plane: a small protected chassis whose periodic
// probes are live LLM inference sessions — prompt sealed up, KV-cache
// staged once into protected device memory, decode chunks streamed
// back — ridden while the storm's faults and attacks are live. It
// exists so the soak's invariant oracles observe a real protected
// serving pipeline, not a model of one.
type carrier struct {
	cfg *Config
	orc *oracle
	clk *sim.Engine

	mp *ccai.MultiPlatform

	canary    []byte
	xorCanary []byte
	scanner   *scanTap

	inj *fault.Injector
	rec *attack.Recorder

	gen      []int // per-tenant trust generation (bumped on re-trust)
	rogueN   int   // current wave's rogue attempts, fired at wave end
	probeIdx int64
	probeOKs int64
	retrusts int64
	replayed int64
	rogue    int64
	logLen   int // consumed prefix of the current injector's firing log

	recovery map[fault.Class]*recAgg
}

func newCarrier(cfg *Config, orc *oracle, clk *sim.Engine) (*carrier, error) {
	profiles := make([]xpu.Profile, cfg.Carriers)
	for i := range profiles {
		profiles[i] = xpu.A100
	}
	mp, err := ccai.NewMultiPlatform(profiles)
	if err != nil {
		return nil, err
	}
	mp.Observe()
	if err := mp.EstablishTrustAll(); err != nil {
		return nil, err
	}
	canary := []byte(fmt.Sprintf("SOAK-CANARY-%016x-DO-NOT-LEAK", cfg.Seed))
	xored := make([]byte, len(canary))
	for i, b := range canary {
		xored[i] = b ^ 0x5a
	}
	c := &carrier{
		cfg: cfg, orc: orc, clk: clk,
		mp:     mp,
		canary: canary, xorCanary: xored,
		gen:      make([]int, cfg.Carriers),
		recovery: make(map[fault.Class]*recAgg),
	}
	c.scanner = newScanTap(orc, canary, xored)
	mp.Host.AddTap(c.scanner)
	for _, t := range mp.Tenants {
		c.wireAudit(t)
	}
	return c, nil
}

// wireAudit (re-)attaches the IV oracle to one tenant's live streams
// under its current trust generation: the Adaptor seals h2d and
// config, the SC unit seals d2h.
func (c *carrier) wireAudit(t *ccai.Tenant) {
	gen := c.gen[t.Index]
	id := func(stream string) string {
		return fmt.Sprintf("t%d/g%d/%s", t.Index, gen, stream)
	}
	for _, s := range []string{core.StreamH2D, core.StreamConfig} {
		if err := t.Adaptor.AuditIVs(s, c.orc.ivHook(id(s))); err != nil {
			c.orc.violatef("tenant %d: IV audit wiring failed for %s: %v", t.Index, s, err)
		}
	}
	if d2h, err := t.SC.Params().Stream(core.StreamD2H); err == nil {
		d2h.SetIVAudit(c.orc.ivHook(id(core.StreamD2H)))
	}
}

// startWave tears down the previous wave's adversaries (running its
// closing checks against a quiet tap stack) and arms the new wave:
// fresh injector across every injection point, bounded attack taps,
// and optional rekey pressure.
func (c *carrier) startWave(w Wave) {
	c.endWave()

	c.inj = fault.NewInjector(w.Faults)
	c.inj.SetObserver(c.mp.Obs)
	c.logLen = 0
	c.mp.Host.AddTap(c.inj)
	for _, t := range c.mp.Tenants {
		t.Device.SetFaultHook(c.inj.DeviceFault)
		t.Adaptor.InstallCryptoFault(c.inj.CryptoFault)
		t.SC.Tags().SetFaultHook(c.inj.TagFault)
	}
	c.mp.SetLLMFaultHook(c.inj.SchedFault)

	if w.Tamper > 0 {
		c.mp.Host.AddTap(&attack.Tamperer{Count: int(w.Tamper), Match: func(p *pcie.Packet) bool { return p.Role == w.TamperAim }})
	}
	if w.Drop > 0 {
		c.mp.Host.AddTap(&attack.Dropper{Count: int(w.Drop), Match: func(p *pcie.Packet) bool { return p.Role == w.DropAim }})
	}
	if w.Redirect > 0 && len(c.mp.Tenants) > 1 {
		// Redirect a bounded number of the TVMs' doorbells into another
		// tenant's device window: the victim's filter must reject the
		// foreign requester, the origin's pipeline must recover or fail
		// closed — never accept the loss silently.
		var left atomic.Int32
		left.Store(int32(w.Redirect))
		victim := c.mp.Tenants[1].Device.BAR0().Base
		c.mp.Host.AddTap(&attack.Redirector{
			NewDst: victim,
			Match:  func(p *pcie.Packet) bool { return p.Role == w.RedirectAim && left.Add(-1) >= 0 },
		})
	}
	c.rec = nil
	if w.Replay > 0 {
		var left atomic.Int32
		left.Store(int32(w.Replay))
		c.rec = &attack.Recorder{Match: func(p *pcie.Packet) bool { return p.Role == w.ReplayAim && left.Add(-1) >= 0 }}
		c.mp.Host.AddTap(c.rec)
	}
	c.rogueN = int(w.Rogue)

	if w.Rekey != 0 {
		// Park every carrier's h2d stream a few seals short of the
		// proactive rekey threshold: MaybeRekey must roll the keys
		// mid-traffic, with the IV oracle watching for any (epoch,
		// counter) repeat. All carriers get the pressure because any one
		// of them may fail closed and re-trust (restarting its counters)
		// before its roll lands; the force is skipped without comment on
		// a session that is currently fail-closed for the same reason.
		for _, t := range c.mp.Tenants {
			_ = t.Adaptor.ForceStreamCounter(core.StreamH2D, ^uint32(0)-adaptor.RekeyThreshold-8)
		}
	}
}

// endWave closes the current wave, if any: the attack taps come off
// the bus (the oracle scanner goes straight back on), then the
// freshness and access-control probes run against the quiet stack —
// captured traffic is replayed and must cause no fresh decryptions,
// and rogue requesters must still die in the filters. Quiescing first
// matters: a leftover dropper eating the rogue packet would fake a
// filter pass, and a live injector would make the replay count
// ambiguous.
func (c *carrier) endWave() {
	rec := c.rec
	c.rec = nil
	c.harvestFirings()
	c.mp.Host.ClearTaps()
	c.mp.Host.AddTap(c.scanner)
	if rec != nil && len(rec.Captured) > 0 {
		before := c.decryptedChunks()
		rec.Replay(c.mp.Host)
		c.replayed += int64(len(rec.Captured))
		if after := c.decryptedChunks(); after != before {
			c.orc.violatef("REPLAY freshness: %d fresh decryptions from %d replayed packets",
				after-before, len(rec.Captured))
		}
	}
	c.rogueAttempts(c.rogueN)
	c.rogueN = 0
}

// rogueAttempts aims n forged-requester doorbell writes and status
// reads at carrier devices; every one must die in the L1 filter.
func (c *carrier) rogueAttempts(n int) {
	rr := &attack.RogueRequester{ID: pcie.MakeID(0, 9, 0), Bus: c.mp.Host}
	for i := 0; i < n; i++ {
		t := c.mp.Tenants[i%len(c.mp.Tenants)]
		base := t.Device.BAR0().Base
		dropped := t.SC.Stats().Filter.Dropped
		rr.Write(base+xpu.RegDoorbell, []byte{1, 0, 0, 0, 0, 0, 0, 0})
		cpl := rr.Read(base+xpu.RegStatus, 8)
		if cpl != nil && cpl.Status == pcie.CplSuccess {
			c.orc.violatef("ROGUE requester read tenant %d device state", t.Index)
		}
		if t.SC.Stats().Filter.Dropped <= dropped {
			c.orc.violatef("ROGUE traffic to tenant %d not dropped by filter", t.Index)
		}
		c.rogue += 2
	}
}

func (c *carrier) decryptedChunks() uint64 {
	var n uint64
	for _, t := range c.mp.Tenants {
		n += t.SC.Stats().DecryptedChunks
	}
	return n
}

// recoveryTotals sums every tenant's RecoveryStats into one vector.
func (c *carrier) recoveryTotals() adaptor.RecoveryStats {
	var sum adaptor.RecoveryStats
	for _, t := range c.mp.Tenants {
		r := t.Adaptor.Recovery()
		sum.Timeouts += r.Timeouts
		sum.Retries += r.Retries
		sum.Recovered += r.Recovered
		sum.StaleSuppressed += r.StaleSuppressed
		sum.CryptoRetries += r.CryptoRetries
		sum.Reposts += r.Reposts
		sum.Resyncs += r.Resyncs
		sum.Exhausted += r.Exhausted
		sum.FailClosed += r.FailClosed
	}
	return sum
}

// harvestFirings folds the current injector's unconsumed log tail into
// the per-class recovery aggregates (fired counts only; probes add the
// time component as they observe it).
func (c *carrier) harvestFirings() []fault.Firing {
	if c.inj == nil {
		return nil
	}
	log := c.inj.Log()
	fresh := log[c.logLen:]
	c.logLen = len(log)
	for _, f := range fresh {
		agg := c.recovery[f.Class]
		if agg == nil {
			agg = &recAgg{}
			c.recovery[f.Class] = agg
		}
		agg.n++
	}
	return fresh
}

// probe rides one real LLM inference session through the continuous-
// batching dispatcher and the full protected pipeline: the prompt
// (carrying the canary) seals up, the KV-cache stages into protected
// device memory, and every decode chunk streams back sealed. The
// recovery activity it causes converts into a virtual-time penalty for
// the probe-carrying request. A wrong token byte — the one outcome no
// fault may ever buy — is an oracle violation, not a latency.
func (c *carrier) probe() (sim.Time, int) {
	k := int(c.probeIdx) % len(c.mp.Tenants)
	c.probeIdx++
	t := c.mp.Tenants[k]

	cfg := llm.Config{
		MaxNewTokens: 16, ChunkTokens: 8, MaxPromptTokens: 16,
		Seed: c.cfg.Seed ^ uint64(c.probeIdx),
	}
	prompt := append([]byte(nil), c.canary...)
	prompt = append(prompt, fmt.Sprintf("|p%06d", c.probeIdx)...)

	recBefore := c.recoveryTotals()
	out, err := c.inference(t, cfg, prompt)
	recAfter := c.recoveryTotals()
	fired := c.harvestFirings()

	penalty := retryPenalty*sim.Time(recAfter.Retries-recBefore.Retries) +
		cryptoPenalty*sim.Time(recAfter.CryptoRetries-recBefore.CryptoRetries) +
		repostPenalty*sim.Time(recAfter.Reposts-recBefore.Reposts) +
		resyncPenalty*sim.Time(recAfter.Resyncs-recBefore.Resyncs) +
		timeoutPenalty*sim.Time(recAfter.Timeouts-recBefore.Timeouts) +
		stalePenalty*sim.Time(recAfter.StaleSuppressed-recBefore.StaleSuppressed)
	for _, f := range fired {
		penalty += classPenalty[f.Class]
	}

	outcome := probeOK
	switch {
	case err == nil:
		if want := llmExpected(cfg, prompt); !bytes.Equal(out, want) {
			c.orc.violatef("SILENT CORRUPTION: probe %d tenant %d token stream wrong (%d bytes, want %d)",
				c.probeIdx, k, len(out), len(want))
		}
		c.probeOKs++
	case errors.Is(err, context.Canceled) || errors.Is(err, ccai.ErrDeadlineExceeded):
		outcome = probeCanceled
	default:
		outcome = probeFailed
	}

	if recAfter.FailClosed > recBefore.FailClosed {
		// The session died rather than weaken an invariant — the designed
		// worst case. Recovery is a full re-trust under the next
		// generation, with the IV oracle re-wired to the fresh streams.
		penalty += retrustPenalty
		c.retrusts++
		t.Close()
		var terr error
		for try := 0; try < 3; try++ {
			if terr = t.EstablishTrust(); terr == nil {
				break
			}
			t.Close()
		}
		if terr != nil {
			c.orc.violatef("RETRUST failed for tenant %d: %v", k, terr)
		} else {
			c.gen[k]++
			c.wireAudit(t)
			if c.inj != nil {
				t.Adaptor.InstallCryptoFault(c.inj.CryptoFault)
			}
		}
	}

	// Spread per-class recovery time over the classes that fired during
	// this probe (deterministic integer split).
	if len(fired) > 0 && penalty > 0 {
		share := penalty / sim.Time(len(fired))
		for _, f := range fired {
			c.recovery[f.Class].sum += share
		}
	}
	return penalty, outcome
}

// inference runs one complete streaming session on the tenant: open,
// prefill, drain the sealed decode stream, close. The concatenated
// token bytes come back for oracle verification.
func (c *carrier) inference(t *ccai.Tenant, cfg llm.Config, prompt []byte) ([]byte, error) {
	sess, err := t.OpenSession(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	ch, err := sess.Decode(context.Background())
	if err != nil {
		return nil, err
	}
	if err := sess.Prefill(context.Background(), prompt); err != nil {
		return nil, err
	}
	var out []byte
	for chunk := range ch {
		if chunk.Err != nil {
			return nil, chunk.Err
		}
		out = append(out, chunk.Tokens...)
	}
	return out, nil
}

// llmExpected is the host-side oracle for a probe session: the token
// stream the device must produce iff the KV-cache stayed resident and
// uncorrupted across every decode step.
func llmExpected(cfg llm.Config, prompt []byte) []byte {
	if err := cfg.Normalize(); err != nil {
		return nil
	}
	digest := llm.Digest(cfg.Seed, prompt)
	kv := llm.KVInit(digest, cfg.KVBytes(cfg.MaxPromptTokens))
	var out []byte
	for i := 0; i < cfg.Chunks(); i++ {
		span := int64(cfg.ChunkSpan(i) * cfg.TokenBytes)
		out = append(out, llm.ExpectedChunk(kv, digest, i, span)...)
	}
	return out
}

// close shuts the carrier down and runs the final wave's closing
// checks.
func (c *carrier) close() {
	c.endWave()
	c.mp.Close()
}
