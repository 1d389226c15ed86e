// Package ccai is the public API of the ccAI reproduction: a compatible
// and confidential system for xPU-based AI computing (MICRO '25). It
// assembles the simulated platform — a Trusted VM with an unmodified
// native driver, a host PCIe bus, the PCIe Security Controller
// (PCIe-SC), an internal bus, and one of five xPU device models — and
// exposes secure task execution, trust establishment, and the
// experiment harness that regenerates the paper's tables and figures.
//
// Quickstart:
//
//	plat, _ := ccai.New(ccai.WithXPU(xpu.A100), ccai.WithMode(ccai.Protected))
//	defer plat.Close()
//	out, _ := plat.RunTask(ccai.Task{Input: data, Kernel: ccai.KernelXOR, Param: 0x5a})
//
// For multi-tenant serving with admission control, backpressure and
// cancellation, see MultiPlatform.NewScheduler.
package ccai

import (
	"encoding/binary"
	"io"
	"sync"

	"ccai/internal/adaptor"
	"ccai/internal/arena"
	"ccai/internal/core"
	"ccai/internal/hrot"
	"ccai/internal/llm"
	"ccai/internal/mem"
	"ccai/internal/obsv"
	"ccai/internal/pcie"
	"ccai/internal/telemetry"
	"ccai/internal/tvm"
	"ccai/internal/xpu"
)

// Mode selects whether the platform runs vanilla (xPU directly on the
// host bus) or protected (PCIe-SC interposed).
type Mode int

const (
	// Vanilla is the unprotected baseline every figure compares
	// against.
	Vanilla Mode = iota
	// Protected interposes the PCIe-SC and routes staging through the
	// Adaptor.
	Protected
)

func (m Mode) String() string {
	if m == Vanilla {
		return "vanilla"
	}
	return "ccAI"
}

// Fixed platform address map.
const (
	privateBase = 0x1000_0000
	privateSize = 64 << 20
	sharedBase  = 0x8000_0000
	sharedSize  = 64 << 20
	msiBase     = 0xfee0_0000
	msiSize     = 0x10_0000
	xpuBARBase  = 0xd000_0000
	scBARBase   = 0xd010_0000
)

// Bus/device identities.
var (
	// HostBridgeID is the root complex / memory controller.
	HostBridgeID = pcie.MakeID(0, 0, 0)
	// TVMID is the trusted VM's requester identity.
	TVMID = pcie.MakeID(0, 1, 0)
	// SCID is the PCIe Security Controller.
	SCID = pcie.MakeID(1, 0, 0)
	// XPUID is the accelerator.
	XPUID = pcie.MakeID(2, 0, 0)
)

// config is what the functional options (options.go) accumulate.
type config struct {
	// XPU selects the device model; zero value defaults to A100.
	XPU xpu.Profile
	// Mode selects vanilla or protected operation.
	Mode Mode
	// GoldenFirmware is the firmware measurement the PCIe-SC attests
	// the xPU against (§6's software-based attestation). Empty means
	// the profile's shipped firmware — i.e. a genuine device. Tests
	// set it to a different value to model a flashed/compromised xPU.
	GoldenFirmware string
	// Observe enables the observability layer: a metrics registry and a
	// span tracer wired through every pipeline stage (filter, crypto,
	// adaptor, driver, device). Off (the default) every instrumentation
	// site sees nil handles and costs nothing.
	Observe bool
	// Telemetry attaches the live telemetry plane (HTTP scrape
	// endpoints, tamper-evident audit log, rolling SLO monitors) on
	// top of the observability layer; non-nil implies Observe.
	Telemetry *telemetry.Options
	// LLM configures the continuous-batching inference engine behind
	// Tenant.OpenSession (WithLLMEngine). Consumed by
	// NewMultiPlatform; zero fields keep engine defaults.
	LLM llm.EngineConfig
}

// HostBridge terminates device-initiated traffic on the host bus: DMA
// into guest memory (IOMMU-checked) and MSI interrupt writes. MSI
// delivery is shared across every tenant of a MultiPlatform, so the
// interrupt log is mutex-guarded.
type HostBridge struct {
	id    pcie.ID
	space *mem.Space
	iommu *mem.IOMMU

	// bus is the segment the bridge terminates; when it has never been
	// tapped, MRd completion payloads are carved from the shared arena
	// (the terminal consumer returns them after copying) instead of
	// freshly allocated per read.
	bus *pcie.Bus

	// pkts hands out the completion structs of successful reads; the
	// requester releases them with the payload (pcie.PacketArena).
	pkts pcie.PacketArena

	msiMu sync.Mutex
	msi   []uint32
}

// DeviceID implements pcie.Endpoint.
func (h *HostBridge) DeviceID() pcie.ID { return h.id }

// Handle implements pcie.Endpoint.
func (h *HostBridge) Handle(p *pcie.Packet) *pcie.Packet {
	if p.Address >= msiBase && p.Address < msiBase+msiSize {
		if p.Kind == pcie.MWr && len(p.Payload) >= 4 {
			h.msiMu.Lock()
			h.msi = append(h.msi, binary.LittleEndian.Uint32(p.Payload))
			h.msiMu.Unlock()
		}
		return nil
	}
	switch p.Kind {
	case pcie.MRd:
		if !h.iommu.Check(p.Requester, p.Address, int64(p.Length), false) {
			return pcie.NewCompletion(p, h.id, pcie.CplCA, nil)
		}
		if h.bus != nil && h.bus.Untapped() {
			// Pooled fast path: no tap has ever seen this bus, so the
			// requester is provably the payload's last holder and will
			// return it to the arena after copying (device dmaReadInto,
			// SC span fetch). A requester that doesn't participate just
			// leaks the buffer to the GC — today's behavior.
			data := arena.Get(int(p.Length))
			if err := h.space.ReadInto(p.Address, data); err != nil {
				arena.Put(data)
				return pcie.NewCompletion(p, h.id, pcie.CplUR, nil)
			}
			return h.pkts.CompletionOwned(p, h.id, pcie.CplSuccess, data)
		}
		data, err := h.space.Read(p.Address, int64(p.Length))
		if err != nil {
			return pcie.NewCompletion(p, h.id, pcie.CplUR, nil)
		}
		// space.Read returned a fresh copy; transfer it instead of
		// copying a second time.
		return h.pkts.CompletionOwned(p, h.id, pcie.CplSuccess, data)
	case pcie.MWr:
		if !h.iommu.Check(p.Requester, p.Address, int64(len(p.Payload)), true) {
			return nil // posted write silently dropped, fault recorded
		}
		_ = h.space.Write(p.Address, p.Payload)
		return nil
	}
	return pcie.NewCompletion(p, h.id, pcie.CplUR, nil)
}

// Interrupts reports MSI payloads received so far.
func (h *HostBridge) Interrupts() []uint32 {
	h.msiMu.Lock()
	defer h.msiMu.Unlock()
	return append([]uint32(nil), h.msi...)
}

// hostSide is the host segment every owner builds the same way: the
// bus, the IOMMU, and the bridge terminating DMA and MSI into guest
// memory.
type hostSide struct {
	Host   *pcie.Bus
	Bridge *HostBridge
	IOMMU  *mem.IOMMU
}

// newHostSide builds the host segment over space, the bridge claiming
// the given RAM windows and the MSI window.
func newHostSide(space *mem.Space, ram ...pcie.Region) (hostSide, error) {
	h := hostSide{Host: pcie.NewBus("host"), IOMMU: mem.NewIOMMU()}
	h.Bridge = &HostBridge{id: HostBridgeID, space: space, iommu: h.IOMMU, bus: h.Host}
	h.Host.Attach(h.Bridge)
	for _, r := range append(ram, pcie.Region{Base: msiBase, Size: msiSize, Name: "msi"}) {
		if err := h.Host.Claim(HostBridgeID, r); err != nil {
			return h, err
		}
	}
	return h, nil
}

// observed is the observability surface a Platform and a MultiPlatform
// share: the hub, the live telemetry plane, and their accessors.
type observed struct {
	// Obs is the observability hub (nil unless WithObserve): one registry
	// and tracer shared by every pipeline stage — on a MultiPlatform, by
	// every tenant and any Scheduler serving the chassis.
	Obs *obsv.Hub
	// Tel is the live telemetry plane (nil unless WithTelemetry).
	Tel *telemetry.Plane
}

// Telemetry returns the live telemetry plane, nil when not attached.
func (o *observed) Telemetry() *telemetry.Plane { return o.Tel }

// Observability returns the hub, nil when observability is off. All
// obsv types no-op on nil, so callers may chain freely:
// plat.Observability().T().Spans() is safe either way.
func (o *observed) Observability() *obsv.Hub { return o.Obs }

// WriteTimeline exports every recorded span as Chrome trace-event JSON
// (load in chrome://tracing or Perfetto). ErrObserveOff is returned
// when observability is off.
func (o *observed) WriteTimeline(w io.Writer) error {
	if o.Obs == nil {
		return ErrObserveOff
	}
	return o.Obs.Tracer.WriteChromeTrace(w)
}

// MetricsSnapshot returns a point-in-time copy of every metric. The
// zero Snapshot is returned when observability is off.
func (o *observed) MetricsSnapshot() obsv.Snapshot { return o.Obs.Reg().Snapshot() }

// attachTelemetry attaches the live telemetry plane when cfg asks for
// one, with a bearer token for each of the first tenants tenant labels.
func (o *observed) attachTelemetry(cfg config, tenants int) error {
	if cfg.Telemetry == nil {
		return nil
	}
	tel, err := telemetry.Attach(o.Obs, *cfg.Telemetry)
	if err != nil {
		return err
	}
	for i := range tenants {
		tel.RegisterTenant(tenantLabel(i))
	}
	o.Tel = tel
	return nil
}

// closeTelemetry stops the telemetry server, if any.
func (o *observed) closeTelemetry() {
	if o.Tel != nil {
		o.Tel.Close()
		o.Tel = nil
	}
}

// Platform is one assembled machine: guest, buses, device and driver,
// plus — under Protected mode — the one protected pipeline (PCIe-SC,
// Adaptor, guarded driver) whose SC, Adaptor and Driver fields are
// promoted here. Under Vanilla only Driver is populated. A Protected
// Platform is the §9 chassis with one unit: its SC sits on the host bus
// behind a one-unit core.Mux, exactly like a MultiPlatform tenant's.
type Platform struct {
	pipeline
	observed
	hostSide

	Mode  Mode
	Guest *tvm.Guest

	Internal *pcie.Bus
	Device   *xpu.Device

	// Blade is the HRoT-Blade populated by SecureBoot (nil until then).
	Blade *hrot.Blade

	taskMet taskObs
}

// New assembles and boots a platform from functional options:
//
//	plat, err := ccai.New(ccai.WithXPU(xpu.H100), ccai.WithMode(ccai.Protected), ccai.WithObserve())
//
// Zero options means the defaults: A100, Vanilla, observability off.
func New(options ...Option) (*Platform, error) {
	var cfg config
	for _, opt := range options {
		opt(&cfg)
	}
	if cfg.XPU.Name == "" {
		cfg.XPU = xpu.A100
	}

	guest, err := tvm.NewGuest(TVMID, privateBase, privateSize, sharedBase, sharedSize)
	if err != nil {
		return nil, err
	}
	p := &Platform{Mode: cfg.Mode, Guest: guest}
	if p.hostSide, err = newHostSide(guest.Space,
		pcie.Region{Base: privateBase, Size: privateSize, Name: "ram/private"},
		pcie.Region{Base: sharedBase, Size: sharedSize, Name: "ram/shared"}); err != nil {
		return nil, err
	}
	if cfg.Observe || cfg.Telemetry != nil {
		p.Obs = obsv.NewHub()
		p.taskMet = newTaskObs(p.Obs.Reg(), p.Mode)
	}

	p.Device = xpu.NewDevice(cfg.XPU, XPUID, xpuBARBase, 1<<20)
	if cfg.Mode == Vanilla {
		err = p.assembleVanilla()
	} else {
		err = p.assembleProtected(cfg)
	}
	if err != nil {
		return p, err
	}
	return p, p.attachTelemetry(cfg, 0)
}

func (p *Platform) assembleVanilla() error {
	p.Host.Attach(p.Device)
	if err := p.Host.Claim(XPUID, p.Device.BAR0()); err != nil {
		return err
	}
	p.Device.SetUpstream(p.Host.Route)
	// Completion payloads come from the host bridge's arena pool while
	// the bus stays untapped; the device returns them after copying. MWr
	// staging keeps the slab — the bridge copies posted writes but does
	// not recycle them.
	p.Device.SetPayloadRecycling(p.Host.Untapped, nil)
	// Vanilla DMA policy: the device may reach the shared (DMA-able)
	// region, as a conventional driver would map it.
	p.IOMMU.Map(XPUID, sharedBase, sharedSize, mem.PermRead|mem.PermWrite)

	ring, err := p.Guest.Space.Alloc(tvm.SharedRegion, "cmdring", ringEntries*xpu.CmdSize)
	if err != nil {
		return err
	}
	port := &tvm.DirectPort{ID: TVMID, Bus: p.Host, BAR0: xpuBARBase}
	p.Driver, err = tvm.NewDriver(port, p.Guest.Space, ring, ringEntries)
	if err != nil {
		return err
	}
	p.Device.SetObserver(p.Obs)
	p.Driver.SetObserver(p.Obs)
	return p.Driver.ConfigureMSI(msiBase, 0x41)
}

// assembleProtected builds the chassis with one unit: a Mux on the host
// bus and the one slice attached to it, on Platform's address map.
func (p *Platform) assembleProtected(cfg config) error {
	mux := core.NewMux(SCID)
	p.Host.Attach(mux)
	internal, err := p.assemble(p.Bridge, mux, p.Device, slice{
		tvm: TVMID, sc: SCID, xpu: XPUID,
		scBar:   pcie.Region{Base: scBARBase, Size: core.SCBarSize, Name: "pcie-sc"},
		xpuWin:  p.Device.BAR0(),
		private: pcie.Region{Base: privateBase, Size: privateSize, Name: tvm.PrivateRegion},
		shared:  pcie.Region{Base: sharedBase, Size: sharedSize, Name: adaptor.SharedRegion},
	}, cfg.GoldenFirmware)
	if err != nil {
		return err
	}
	p.Internal = internal
	p.setObserver(p.Obs)
	return nil
}

// EstablishTrust provisions the session's symmetric streams on both
// ends and brings the protected driver up (see pipeline.establishTrust
// for the sequence). A no-op under Vanilla.
func (p *Platform) EstablishTrust() error {
	if p.Mode != Protected {
		return nil
	}
	return p.establishTrust()
}

// Close tears the session down: keys destroyed, device cleaned, the
// telemetry server (if any) stopped.
func (p *Platform) Close() {
	p.teardown()
	p.closeTelemetry()
}
