package ccai

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"

	"ccai/internal/adaptor"
	"ccai/internal/core"
	"ccai/internal/mem"
	"ccai/internal/obsv"
	"ccai/internal/pcie"
	"ccai/internal/secmem"
	"ccai/internal/tvm"
	"ccai/internal/xpu"
)

// ringEntries sizes every command ring: vanilla, protected and
// per-tenant alike.
const ringEntries = 64

// submitRecoveryAttempts bounds the stalled-submission recovery loop.
const submitRecoveryAttempts = 3

// pipeline is one protected (TVM, xPU) slice — the paper's Adaptor →
// PCIe-SC → xPU path (DESIGN.md "protected pipeline"). A Protected
// Platform is one slice, a MultiPlatform is N of them; both embed this
// type, and everything a slice does after assembly — trust bring-up,
// submit → recover → collect, fail-closed teardown — exists only here.
// A pipeline is single-threaded: the owner serializes calls (Tenant.mu;
// a Platform is documented single-caller).
type pipeline struct {
	Adaptor *adaptor.Adaptor
	SC      *core.Controller
	Driver  *tvm.Driver

	ring    *adaptor.Region // StageVerified command ring, nil until trusted
	tvmKeys *secmem.KeyStore
	scKeys  *secmem.KeyStore
	// trusted is set by establishTrust and cleared only by the Adaptor's
	// teardown hook, so a session the Adaptor fails closed on its own
	// stops admitting work like one torn down on purpose.
	trusted bool
	gen     int // trust generation: 1 = first attest, 2+ = re-trust

	dev    *xpu.Device
	space  *mem.Space // guest memory the driver writes ring slots through
	golden string     // firmware measurement to attest against; "" = the profile's
	tenant string     // audit/error label; "" on a single-slice Platform
	obs    *obsv.Hub
	// bootRules records the static filter policy for PCR measurement.
	bootRules []core.Rule
}

// slice names what differs between protected slices: the three bus
// identities and the windows the boot policy is scoped to. shared.Name
// is also the mem.Space region the Adaptor stages bounce buffers in;
// private is the TVM's own memory, which no device may reach.
type slice struct {
	tenant          string
	tvm, sc, xpu    pcie.ID
	scBar, xpuWin   pcie.Region
	private, shared pcie.Region
}

// assemble wires one slice into the chassis: the internal segment
// holding the device, the SC unit with completion reaping, the
// environment-guard teardown hook, the payload-recycling loops, the
// boot policy, the Adaptor, and the SC's one host-side presence — a
// unit of mux. It returns the internal segment.
func (pl *pipeline) assemble(br *HostBridge, mux *core.Mux, dev *xpu.Device, s slice, golden string) (*pcie.Bus, error) {
	internal := pcie.NewBus("internal" + s.tenant)
	internal.Attach(dev)
	if err := internal.Claim(s.xpu, dev.BAR0()); err != nil {
		return nil, err
	}
	pl.dev, pl.space, pl.golden, pl.tenant = dev, br.space, golden, s.tenant
	pl.scKeys, pl.tvmKeys = secmem.NewKeyStore(), secmem.NewKeyStore()
	sc := core.NewController(s.sc, s.scBar, pl.scKeys)
	pl.SC = sc
	sc.Attach(internal, s.xpuWin, br.bus)
	// Batched completion reaping: after forwarding a guarded doorbell the
	// SC reads the device's command head once and DMA-writes it into the
	// submission ring header with the span's head, so the driver's
	// completion poll becomes a host-memory read.
	sc.ConfigureCompletionReap(xpu.RegDoorbell, xpu.RegCmdHead)
	// The SC's internal port claims the host windows on the internal
	// bus, so all device-initiated traffic (DMA, MSI) routes through the
	// filter — and is observable on the internal segment like real wire
	// traffic. TVM-private memory is claimed too, so a device DMA aimed
	// at it reaches the filter (and dies there) instead of going
	// unrouted.
	internal.Attach(sc.InternalPort())
	for _, r := range []pcie.Region{s.private, s.shared, {Base: msiBase, Size: msiSize, Name: "msi"}} {
		if err := internal.Claim(s.sc, r); err != nil {
			return nil, err
		}
	}
	dev.SetUpstream(internal.Route)
	// Environment verification (§4): a guarded write may not point the
	// xPU's page table outside its own memory.
	sc.Guard().AddCheck(core.MMIOCheck{Reg: xpu.RegPageTable,
		Valid: func(v uint64) bool { return v < uint64(dev.Profile().MemBytes) }})
	sc.SetTeardownHook(func() {
		// Environment guard: clean the device on session teardown.
		plan := sc.Guard().CleanPlan(dev.Profile().SupportsSoftReset, xpu.RegReset, xpu.ResetEnv, xpu.ResetCold)
		buf := make([]byte, 8)
		binary.LittleEndian.PutUint64(buf, plan.Val)
		internal.Route(pcie.NewMemWrite(s.sc, s.xpuWin.Base+plan.Reg, buf).WithRole(pcie.RoleControlWrite))
	})
	// Close the recycling loops on the internal segment: the device
	// returns the SC's H2D plaintext completions to the arena after
	// copying, stages D2H MWr payloads from the arena for the SC's
	// write-span pipeline to return after sealing, and the SC recycles
	// its own bounce-buffer fetches and ciphertext staging likewise; the
	// packet structs travel back with the payloads. All gates re-check
	// Bus.Untapped per packet, so fault-injection taps installed mid-run
	// degrade to allocate-and-forget behavior.
	dev.SetPayloadRecycling(internal.Untapped, internal.Untapped)
	sc.EnableDatapathRecycling()
	// The SC's internal port takes D2H writes of up to MaxReadReq and
	// splits them along its chunk grid itself, so the device posts its
	// results in 4 KiB bursts; what the SC writes on the host bus is one
	// 256-byte ciphertext chunk per TLP.
	dev.SetWriteBurst(pcie.MaxReadReq)
	// The SC (not the device) masters the host bus; only the slice's
	// shared bounce window is mapped for it. TVM-private memory stays
	// unmapped for every device — the paper's IOMMU assumption.
	br.iommu.Map(s.sc, s.shared.Base, s.shared.Size, mem.PermRead|mem.PermWrite)

	// The static platform policy measured at secure boot: the L1 screen
	// for the TVM and the xPU, and the L2 classification of Figure 5
	// scoped to this slice's identifiers and windows only.
	match := core.MatchKind | core.MatchRequester | core.MatchAddr
	f := sc.Filter()
	for _, r := range append(core.L1Screen(1, s.tvm), core.L1Screen(10, s.xpu)...) {
		f.InstallL1(r)
		pl.bootRules = append(pl.bootRules, r)
	}
	for _, r := range []core.Rule{
		// TVM control writes to the xPU window: Write Protected (A3).
		{ID: 20, Mask: match, Kind: pcie.MWr, Requester: s.tvm,
			AddrLo: s.xpuWin.Base, AddrHi: s.xpuWin.End(), Action: core.ActionWriteProtect},
		// TVM reads of xPU status: Full Accessible (A4).
		{ID: 21, Mask: match, Kind: pcie.MRd, Requester: s.tvm,
			AddrLo: s.xpuWin.Base, AddrHi: s.xpuWin.End(), Action: core.ActionPassThrough},
		// xPU DMA into the shared window: protected (descriptor decides
		// A2 vs A3 per region).
		{ID: 22, Mask: match, Kind: pcie.MRd, Requester: s.xpu,
			AddrLo: s.shared.Base, AddrHi: s.shared.End(), Action: core.ActionWriteReadProtect},
		{ID: 23, Mask: match, Kind: pcie.MWr, Requester: s.xpu,
			AddrLo: s.shared.Base, AddrHi: s.shared.End(), Action: core.ActionWriteReadProtect},
		// xPU interrupts: Full Accessible (A4).
		{ID: 24, Mask: match, Kind: pcie.MWr, Requester: s.xpu,
			AddrLo: msiBase, AddrHi: msiBase + msiSize, Action: core.ActionPassThrough},
	} {
		f.InstallL2(r)
		pl.bootRules = append(pl.bootRules, r)
	}

	pl.Adaptor = adaptor.New(s.tvm, br.bus, br.space, pl.tvmKeys, s.scBar.Base, s.xpuWin.Base, s.shared.Name)
	pl.Adaptor.SetTeardownHook(func() { pl.trusted = false })

	// The host side: the mux claims the SC BAR and the xPU window and
	// pins the slice's TVM as the one requester the control BAR answers.
	if err := mux.AddUnit(&core.MuxUnit{Ctrl: sc, Bar: s.scBar, Window: s.xpuWin, XPU: s.xpu, TVM: s.tvm}); err != nil {
		return nil, err
	}
	for _, r := range []pcie.Region{s.scBar, s.xpuWin} {
		if err := br.bus.Claim(mux.DeviceID(), r); err != nil {
			return nil, err
		}
	}
	return internal, nil
}

// setObserver instruments the slice's components (a nil hub clears).
func (pl *pipeline) setObserver(h *obsv.Hub) {
	pl.obs = h
	pl.dev.SetObserver(h)
	pl.SC.SetObserver(h)
	pl.Adaptor.SetObserver(h)
	if pl.Driver != nil {
		pl.Driver.SetObserver(h)
	}
}

// establishTrust is the slice's trust bring-up. In deployment the key
// material comes out of the Figure 6 remote attestation + key exchange
// (see internal/attest and the attestation example); this runs the same
// installation step with locally generated keys. Before provisioning
// anything, the PCIe-SC software-attests the xPU firmware (§6): a
// device answering the challenge wrongly never receives keys. Then the
// four streams go onto both key stores, the Adaptor initializes the SC,
// the command ring is staged as a verified region and the native driver
// comes up on it through the guarded port. trusted is set last, so a
// bring-up that fails half-way never admits a task, and one that fails
// once keys are out withdraws them from both ends again (I6).
func (pl *pipeline) establishTrust() (err error) {
	profile := pl.dev.Profile()
	sp := pl.obs.T().Begin(obsv.TrackTask, "establish_trust", obsv.Str("xpu", profile.Name))
	defer sp.End()
	var nonceBuf [8]byte
	if _, err := rand.Read(nonceBuf[:]); err != nil {
		return err
	}
	nonce := binary.LittleEndian.Uint64(nonceBuf[:])
	golden := pl.golden
	if golden == "" {
		golden = profile.FirmwareVersion
	}
	if !pl.SC.AttestDevice(nonce, xpu.AttestDigest(golden, nonce), xpu.RegAttestNonce, xpu.RegAttestResp) {
		return fmt.Errorf("%w; refusing to provision keys", ErrAttestFailed)
	}
	if pl.gen > 0 {
		// A re-trust first tears down whatever of the last session the SC
		// still holds: the write that ended it may have been lost on the
		// link, and an SC left with a desynced ring ignores every doorbell.
		pl.Adaptor.Teardown()
	}
	defer func() {
		if err != nil {
			pl.Adaptor.Teardown()
		}
	}()
	for _, stream := range []string{core.StreamH2D, core.StreamD2H, core.StreamConfig, core.KeyRingSeal} {
		key, nonce := secmem.FreshKey(), secmem.FreshNonce()
		if err := pl.scKeys.Install(stream, key, nonce); err != nil {
			return err
		}
		if err := pl.tvmKeys.Install(stream, key, nonce); err != nil {
			return err
		}
		// The ring seal's is a raw key, not a stream.
		if stream != core.KeyRingSeal {
			if err := pl.SC.Params().Activate(stream); err != nil {
				return err
			}
		}
	}
	if err := pl.Adaptor.HWInit(); err != nil {
		return err
	}
	if pl.ring != nil {
		// A dead session's command ring: the SC wiped the region at
		// teardown, so only the staging memory is left to give back.
		pl.space.Free(pl.ring.Buf)
		pl.ring = nil
	}
	ring, err := pl.Adaptor.StageVerified("cmdring"+pl.tenant, ringEntries*xpu.CmdSize, xpu.CmdSize)
	if err != nil {
		return err
	}
	pl.ring = ring
	if pl.Driver, err = tvm.NewDriver(&guardedPort{a: pl.Adaptor}, pl.space, ring.Buf, ringEntries); err != nil {
		return err
	}
	pl.Driver.SetObserver(pl.obs)
	pl.Driver.SetPreDoorbell(func(chunks []uint32) error {
		return pl.Adaptor.SyncVerified(pl.ring, chunks)
	})
	if err := pl.Driver.ConfigureMSI(msiBase, 0x41); err != nil {
		return err
	}
	// The driver's bring-up writes are posted; the session is trusted
	// once the SC has applied them.
	if err := pl.Adaptor.Publish(); err != nil {
		return err
	}
	pl.trusted = true
	pl.gen++
	kind := obsv.EvAttest
	if pl.gen > 1 {
		// Keys are never reused across a teardown: a re-trust is a fresh
		// generation, and the audit log records it as such.
		kind = obsv.EvRetrust
	}
	pl.obs.Eventf(kind, pl.tenant, "xpu=%s gen=%d", profile.Name, pl.gen)
	return nil
}

// guardedPort carries driver MMIO through the Adaptor's A3 protocol.
// Every register write is a guarded ring entry, so a submission's
// command-tail and doorbell writes ride one ring burst with its run
// records, and command-head polls route through the reaped completion
// word, which publishes that burst first: a submission costs one MMIO
// write, its ring doorbell, and no MMIO read. tail is the command tail
// the driver last wrote, the most a head it is handed may count.
type guardedPort struct {
	a    *adaptor.Adaptor
	tail uint64
}

func (g *guardedPort) WriteReg(reg uint64, v uint64) error {
	if reg == xpu.RegCmdTail {
		g.tail = v
	}
	return g.a.GuardedWrite(reg, v)
}

func (g *guardedPort) ReadReg(reg uint64) (uint64, error) {
	if reg == xpu.RegCmdHead {
		return g.a.CompletionHead(reg, g.tail)
	}
	return g.a.DeviceRead(reg)
}

// run executes one submission — a command list plus the regions staged
// for it — and returns the collected D2H result. The context is honored
// at the two safe points only. Before the doorbell: staging consumed IV
// counters (monotonically — a released region is never re-sealed under
// the same IVs) but the device has seen nothing, so abandoning is free.
// After collect: once the submission is rung it drains to completion,
// recovery ladder included, because aborting a command mid-ring would
// leave IV counters and tag state mid-protocol; only then is the
// cancellation reported and the result withheld.
func (pl *pipeline) run(ctx context.Context, cmds []xpu.Command, staged []*adaptor.Region, out *adaptor.Region, outLen int64) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, ctxErr(err)
	}
	before := pl.Driver.Tail()
	if err := pl.Driver.Submit(cmds...); err != nil {
		return nil, err
	}
	want := before + uint64(len(cmds))
	if head, err := pl.Driver.Head(); err != nil || head != want {
		if errors.Is(err, adaptor.ErrRingDesync) {
			// The poll's doorbell found the span refused: the Adaptor has
			// failed the session closed, and there is nothing to recover.
			return nil, err
		}
		if err := pl.recoverSubmission(staged, before, want); err != nil {
			return nil, err
		}
	}
	res, err := pl.Adaptor.CollectD2H(out, outLen)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, ctxErr(err)
	}
	return res, nil
}

// recoverSubmission drives the recovery ladder for a submission the
// device did not fully consume: repost the tag table of every H2D region
// staged for the submission (tag-packet loss orphans chunks; for a
// decode step's window that is the step's positioned tag), then kick the
// driver (re-send the command runs, re-ring the doorbell), then read the
// device head. A flush that lost its doorbells is re-published by the
// first rung whose flush gets through, so a rung that fails does not end
// the ladder. If the device still hasn't consumed everything after
// bounded attempts, the Adaptor tears the session down fail-closed: keys
// zeroized on both ends and the device cleaned through the environment
// guard, because a half-run confidential task must not leave a live
// session behind.
func (pl *pipeline) recoverSubmission(staged []*adaptor.Region, before, want uint64) error {
	for attempt := 0; attempt < submitRecoveryAttempts; attempt++ {
		for _, r := range staged {
			pl.Adaptor.RepostTags(r)
		}
		if err := pl.Driver.Kick(); err != nil {
			continue
		}
		head, err := pl.Driver.Head()
		if err == nil && head == want {
			return nil
		}
	}
	st, _ := pl.Driver.Status()
	head, _ := pl.Driver.Head()
	pl.Adaptor.FailClosed("submission stalled",
		obsv.U64("consumed", head-before), obsv.U64("expected", want-before), obsv.Hex("status", st))
	who := "ccai"
	if pl.tenant != "" {
		who = "ccai: tenant " + pl.tenant
	}
	return fmt.Errorf("%s: submission stalled: device consumed %d/%d commands (status %#x); session torn down",
		who, head-before, want-before, st)
}

// task admits one blob Task on the slice — not cancelled, trusted,
// input non-empty, in that order — stages it and runs it: input sealed
// up, copy/kernel/copy submitted, result collected.
func (pl *pipeline) task(ctx context.Context, t Task) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, ctxErr(err)
	}
	if !pl.trusted {
		return nil, pl.label(fmt.Errorf("%w; call EstablishTrust first", ErrNotTrusted))
	}
	if len(t.Input) == 0 {
		return nil, pl.label(ErrEmptyInput)
	}
	outLen := t.outLen()
	in, err := pl.Adaptor.StageH2D("task-input", t.Input)
	if err != nil {
		return nil, err
	}
	out, err := pl.Adaptor.PrepareD2H("task-output", outLen)
	if err != nil {
		pl.Adaptor.ReleaseRegion(in)
		return nil, err
	}
	defer pl.Adaptor.ReleaseRegion(in, out)
	cmds := t.commands(in.Buf.Base(), out.Buf.Base(), outLen)
	return pl.run(ctx, cmds[:], []*adaptor.Region{in}, out, outLen)
}

// label prefixes err with the slice's tenant; a Platform's errors go
// unlabelled.
func (pl *pipeline) label(err error) error {
	if pl.tenant == "" {
		return err
	}
	return fmt.Errorf("ccai: tenant %s: %w", pl.tenant, err)
}

// teardown destroys the session: keys zeroized on both ends, device
// cleaned through the environment guard. Idempotent.
func (pl *pipeline) teardown() {
	if pl.trusted {
		pl.Adaptor.Teardown()
	}
}
