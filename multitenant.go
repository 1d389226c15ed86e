package ccai

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"ccai/internal/core"
	"ccai/internal/llm"
	"ccai/internal/mem"
	"ccai/internal/obsv"
	"ccai/internal/pcie"
	"ccai/internal/tvm"
	"ccai/internal/xpu"
)

// MultiPlatform implements the paper's §9 deployment extension: one
// PCIe-SC chassis (a core.Mux) serving several (TVM, xPU) pairs with
// fully isolated keys, policies and transfer regions per tenant. Each
// tenant sees exactly the single-tenant programming model (an Adaptor,
// a native driver, RunTask); isolation between tenants is enforced by
// the mux's address dispatch, each slice's own internal segment, and
// the usual fail-closed filters. A Protected Platform is this chassis
// with one unit.
type MultiPlatform struct {
	observed
	hostSide

	Mux     *core.Mux
	Tenants []*Tenant
	space   *mem.Space

	// llmSrv is the chassis's continuous-batching inference server,
	// started lazily by the first OpenSession (see inference.go).
	llmMu    sync.Mutex
	llmSrv   *llmServer
	llmCfg   llm.EngineConfig
	llmMet   llmObs
	llmFault atomic.Pointer[func(point string) bool]
}

// Observe enables the observability layer for the whole chassis and
// wires it through every tenant's pipeline components; calling it
// again is a no-op. It returns the hub for convenience.
func (mp *MultiPlatform) Observe() *obsv.Hub {
	if mp.Obs == nil {
		mp.Obs = obsv.NewHub()
		mp.llmMet = newLLMObs(mp.Obs.Reg(), len(mp.Tenants))
		for _, t := range mp.Tenants {
			t.setObserver(mp.Obs)
		}
	}
	return mp.Obs
}

// Tenant is one (TVM, xPU) slice of a MultiPlatform: the protected
// pipeline (whose SC, Adaptor and Driver fields are promoted here) plus
// the slice's identities. The pipeline is single-threaded: mu
// serializes EstablishTrust, RunTask, session steps and Close. Distinct
// tenants run fully concurrently — the layers they share (host bus,
// bridge, mux, IOMMU, address space) are individually thread-safe.
type Tenant struct {
	pipeline

	mu     sync.Mutex
	Index  int
	TVMID  pcie.ID
	XPUID  pcie.ID
	Guest  *tvm.Guest
	Device *xpu.Device

	internal *pcie.Bus
	parent   *MultiPlatform
}

// Per-tenant address strides: tenant i's windows are offset by
// i*tenantStride from the base map.
const tenantStride = 0x0100_0000

// NewMultiPlatform assembles one chassis serving len(profiles) tenants,
// tenant i owning an instance of profiles[i]. Options are optional and
// backward-compatible: WithObserve enables the chassis hub (same as
// calling Observe()), WithTelemetry additionally attaches the live
// telemetry plane with one bearer token per tenant, WithGoldenFirmware
// sets the measurement every tenant's xPU is attested against;
// device-shape options (WithXPU, WithMode, ...) do not apply here and
// are ignored.
func NewMultiPlatform(profiles []xpu.Profile, options ...Option) (*MultiPlatform, error) {
	if len(profiles) == 0 || len(profiles) > 8 {
		return nil, fmt.Errorf("ccai: 1-8 tenants supported, got %d", len(profiles))
	}
	var cfg config
	for _, opt := range options {
		opt(&cfg)
	}
	mp := &MultiPlatform{space: mem.NewSpace(), Mux: core.NewMux(SCID), llmCfg: cfg.LLM}
	var err error
	if mp.hostSide, err = newHostSide(mp.space); err != nil {
		return nil, err
	}
	mp.Host.Attach(mp.Mux)

	for i, profile := range profiles {
		if err := mp.addTenant(i, profile, cfg.GoldenFirmware); err != nil {
			return nil, fmt.Errorf("ccai: tenant %d: %w", i, err)
		}
	}
	if cfg.Observe || cfg.Telemetry != nil {
		mp.Observe()
	}
	if err := mp.attachTelemetry(cfg, len(mp.Tenants)); err != nil {
		return nil, err
	}
	return mp, nil
}

func (mp *MultiPlatform) addTenant(i int, profile xpu.Profile, golden string) error {
	stride := uint64(i) * tenantStride
	label := tenantLabel(i)
	sl := slice{
		tenant:  label,
		tvm:     pcie.MakeID(0, uint8(1+i), 0),
		sc:      pcie.MakeID(1, 0, uint8(i)), // virtual function per slice
		xpu:     pcie.MakeID(uint8(2+i), 0, 0),
		scBar:   pcie.Region{Base: uint64(scBARBase) + stride, Size: core.SCBarSize, Name: "sc-unit" + label},
		xpuWin:  pcie.Region{Base: uint64(xpuBARBase) + stride, Size: xpu.BAR0Size, Name: "xpu" + label + "-window"},
		private: pcie.Region{Base: uint64(privateBase) + stride, Size: privateSize / 4, Name: "private" + label},
		shared:  pcie.Region{Base: uint64(sharedBase) + stride, Size: sharedSize / 4, Name: "shared" + label},
	}
	for _, r := range []pcie.Region{sl.private, sl.shared} {
		if err := mp.space.AddRegion(r.Name, r.Base, r.Size); err != nil {
			return err
		}
		if err := mp.Host.Claim(HostBridgeID, r); err != nil {
			return err
		}
	}

	t := &Tenant{
		Index: i, TVMID: sl.tvm, XPUID: sl.xpu,
		Guest:  &tvm.Guest{ID: sl.tvm, Space: mp.space},
		Device: xpu.NewDevice(profile, sl.xpu, sl.xpuWin.Base, 1<<20),
		parent: mp,
	}
	var err error
	if t.internal, err = t.assemble(mp.Bridge, mp.Mux, t.Device, sl, golden); err != nil {
		return err
	}
	mp.Tenants = append(mp.Tenants, t)
	return nil
}

// EstablishTrust attests the tenant's xPU, provisions its session keys
// on its SC unit and Adaptor, then brings up the protected driver (see
// pipeline.establishTrust for the sequence).
func (t *Tenant) EstablishTrust() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.establishTrust()
}

// RunTask executes a confidential task on the tenant's xPU; semantics
// match Platform.RunTask. Safe to call concurrently with other
// tenants' RunTask; calls on the same tenant serialize.
func (t *Tenant) RunTask(task Task) ([]byte, error) {
	return t.RunTaskCtx(context.Background(), task)
}

// RunTaskCtx is RunTask with end-to-end cancellation, honored at the
// protected pipeline's safe points (see pipeline.run): before staging
// and before the doorbell an early cancellation costs nothing on the
// device; once the submission is rung the run is drained to completion
// and only then is the cancellation reported (result discarded).
// Cancellation errors satisfy errors.Is on context.Canceled /
// ErrDeadlineExceeded.
func (t *Tenant) RunTaskCtx(ctx context.Context, task Task) ([]byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.task(ctx, task)
}

// Close tears down one tenant's session.
func (t *Tenant) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.teardown()
}

// Close tears down every tenant and stops the telemetry server.
func (mp *MultiPlatform) Close() {
	mp.llmMu.Lock()
	if mp.llmSrv != nil {
		mp.llmSrv.shutdown()
		mp.llmSrv = nil
	}
	mp.llmMu.Unlock()
	for _, t := range mp.Tenants {
		t.Close()
	}
	mp.closeTelemetry()
}
