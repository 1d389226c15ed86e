package xpu

import (
	"encoding/binary"
	"fmt"
	"sync"

	"ccai/internal/arena"
	"ccai/internal/obsv"
	"ccai/internal/pcie"
)

// Register offsets inside BAR0. The layout is deliberately generic —
// every device in the fleet exposes the same functional surface, which
// is what lets one unmodified "native driver" model and one PCIe-SC rule
// set drive all of them.
const (
	RegID        = 0x000 // RO: device/vendor identity
	RegStatus    = 0x008 // RO: status bits
	RegDoorbell  = 0x010 // WO: ring to fetch commands
	RegCmdBase   = 0x018 // RW: host address of command ring
	RegCmdSize   = 0x020 // RW: ring entry count
	RegCmdHead   = 0x028 // RO: device consumption index
	RegCmdTail   = 0x030 // RW: driver production index
	RegIntStatus = 0x038 // RW1C: interrupt cause bits
	RegMSIAddr   = 0x040 // RW: MSI target address
	RegMSIData   = 0x048 // RW: MSI payload
	RegPageTable = 0x050 // RW: device page table base (guarded by ccAI)
	RegReset     = 0x058 // WO: soft reset / environment clean
	RegFWVersion = 0x060 // RO: firmware version hash prefix
	// RegAttestNonce/RegAttestResp implement the §6 software-based
	// attestation fallback for xPUs without their own HRoT: the
	// PCIe-SC writes a challenge nonce, the device firmware computes a
	// digest over (firmware identity ‖ nonce), the SC compares against
	// the measurement it holds for the golden firmware.
	RegAttestNonce = 0x068 // WO: challenge nonce
	RegAttestResp  = 0x070 // RO: response digest
	RegScratch     = 0x100 // RW: driver scratch area (64 bytes)
	BAR0Size       = 0x1000
)

// Status bits.
const (
	StatusReady = 1 << 0
	StatusBusy  = 1 << 1
	StatusFault = 1 << 2
)

// Interrupt cause bits.
const (
	IntCmdDone = 1 << 0
	IntFault   = 1 << 1
)

// Reset command values for RegReset.
const (
	ResetSoft = 1 // clear queues + scratch
	ResetEnv  = 2 // environment clean: memory, registers, caches/TLB
	ResetCold = 3 // full cold boot
)

// Command opcodes. The command ring lives in host memory; each entry is
// 64 bytes.
const (
	OpNop = iota
	// OpCopyH2D copies Src (host) -> Dst (device), Len bytes.
	OpCopyH2D
	// OpCopyD2H copies Src (device) -> Dst (host), Len bytes.
	OpCopyD2H
	// OpKernel runs a compute kernel: Param selects the kernel, Src/Dst
	// are device buffers.
	OpKernel
	// OpFence raises IntCmdDone when all prior commands are complete.
	OpFence
)

// Kernel identifiers for the functional compute path (correctness
// tests): real LLM math is the timing model's job, but small reference
// kernels prove data actually flows end to end through ccAI.
const (
	KernelVecAddConst = 1 // dst[i] = src[i] + param byte-wise
	KernelChecksum    = 2 // dst[0:8] = FNV-1a(src)
	KernelXORMask     = 3 // dst[i] = src[i] ^ param
	// KernelMatVecRelu computes an int8 fully-connected layer:
	// dst[r] = relu(Σ_c W[r,c]·x[c] >> 6) for an RxC weight matrix
	// followed by the C-element input vector in src. Param's low 16
	// bits carry C; R is derived from Len (the output length). This is
	// the functional stand-in for real model math: small neural
	// networks run byte-for-byte through the protected path.
	KernelMatVecRelu = 4
)

// CmdSize is the size of one ring entry in bytes.
const CmdSize = 64

// Command is one ring entry.
type Command struct {
	Op    uint32
	Param uint32
	Src   uint64
	Dst   uint64
	Len   uint64
}

// Marshal encodes a command into a 64-byte ring entry.
func (c Command) Marshal() []byte {
	buf := make([]byte, CmdSize)
	binary.LittleEndian.PutUint32(buf[0:], c.Op)
	binary.LittleEndian.PutUint32(buf[4:], c.Param)
	binary.LittleEndian.PutUint64(buf[8:], c.Src)
	binary.LittleEndian.PutUint64(buf[16:], c.Dst)
	binary.LittleEndian.PutUint64(buf[24:], c.Len)
	return buf
}

// UnmarshalCommand decodes a ring entry.
func UnmarshalCommand(buf []byte) (Command, error) {
	if len(buf) < CmdSize {
		return Command{}, fmt.Errorf("xpu: short command entry (%d bytes)", len(buf))
	}
	return Command{
		Op:    binary.LittleEndian.Uint32(buf[0:]),
		Param: binary.LittleEndian.Uint32(buf[4:]),
		Src:   binary.LittleEndian.Uint64(buf[8:]),
		Dst:   binary.LittleEndian.Uint64(buf[16:]),
		Len:   binary.LittleEndian.Uint64(buf[24:]),
	}, nil
}

// Upstream is the device's path toward the host: DMA requests and MSI
// writes leave through it. In a ccAI deployment this is the PCIe-SC's
// internal bus; in a vanilla deployment it is the host bus directly.
type Upstream func(p *pcie.Packet) *pcie.Packet

// Fault-injection points a FaultHook is consulted at. These model
// benign device failures — firmware scheduler stalls and interrupt
// delivery loss — not adversarial behaviour; the security invariants
// must hold regardless.
const (
	// FaultDoorbell: a true return makes the device ignore this
	// doorbell ring (command-queue hang). The driver's stall-recovery
	// path re-rings it.
	FaultDoorbell = "doorbell"
	// FaultMSI: a true return loses the MSI write for an interrupt the
	// device just latched in RegIntStatus. Drivers that poll (or
	// re-read IntStatus on timeout) recover.
	FaultMSI = "msi"
)

// FaultHook is consulted at each fault point; returning true makes the
// fault fire. A nil hook means a perfectly reliable device.
type FaultHook func(point string) bool

// Device is the functional accelerator model. One mutex serializes all
// packet handling: each tenant owns its own Device, so the lock is
// uncontended in steady state and simply makes cross-goroutine
// interleavings (teardown vs. in-flight MMIO) safe. The lock IS held
// across upstream DMA — no upstream path routes back into the same
// device, so this cannot self-deadlock.
type Device struct {
	mu      sync.Mutex
	profile Profile
	id      pcie.ID
	cfg     *pcie.ConfigSpace
	bar0    uint64
	regs    map[uint64]uint64
	scratch [64]byte

	// Device memory: a byte arena sized far below MemBytes for the
	// functional path (bulk tensors never materialize here).
	devMem []byte

	upstream Upstream

	// cplRecycle, when non-nil and returning true, authorizes returning
	// upstream completions — payload to the shared arena, struct to the
	// packet arena it came from — after their bytes are copied out, and
	// with them the request they answer: the device is their terminal
	// consumer, and the hook (wired by the platform to the upstream bus's
	// Untapped check, evaluated AFTER the route returned) proves no tap
	// retained the packets. wrRecycle likewise authorizes staging outbound
	// MWr payloads from the arena instead of the never-reused slab and
	// taking the MWr struct back once routed; it is wired only when the
	// upstream consumer takes ownership of the bytes and returns them to
	// the arena itself (the protected-mode SC's write-span pipeline). Nil
	// hooks preserve the allocate-and-forget behavior, which is the only
	// safe choice on a tapped bus.
	cplRecycle func() bool
	wrRecycle  func() bool

	// writeBurst is the largest MWr payload dmaWrite posts upstream:
	// MaxPayload, what a host bus carries, unless SetWriteBurst raised it.
	writeBurst int

	// cmdRun holds the command slots pump fetched with one DMA read and
	// is executing.
	cmdRun [pcie.MaxReadReq]byte

	faultHook FaultHook

	// Execution log for tests and the environment guard: the last
	// executedLogCap commands, a ring written at nExecuted%executedLogCap
	// — bounded, because a device lives as long as its chassis.
	executed   [executedLogCap]Command
	nExecuted  uint64
	faults     int
	coldBoots  int
	envResets  int
	hangs      int
	msiDropped int

	// slab bump-allocates DMA payloads — one heap allocation per block
	// instead of one per 256-byte chunk, never reused, so handing them to
	// buses whose taps retain packets is as safe as a fresh make. pkts
	// hands out the TLP structs, which come back only under the gates
	// above.
	slab arena.Slab
	pkts pcie.PacketArena

	obs deviceObs
}

// deviceObs caches the device's observability handles: the tracer and
// the counts kept only in the registry. The zero value is the
// uninstrumented state.
type deviceObs struct {
	tracer    *obsv.Tracer
	doorbells *obsv.Counter
	commands  *obsv.Counter
}

// SetObserver instruments the device model: the hub's registry reads
// the counts Hangs, MSIDropped and Faults return. A nil hub stops the
// tracing and the registry-only counts; a registry keeps its reads.
func (d *Device) SetObserver(h *obsv.Hub) {
	reg := h.Reg()
	d.obs = deviceObs{
		tracer:    h.T(),
		doorbells: reg.Counter("xpu.doorbells"),
		commands:  reg.Counter("xpu.commands"),
	}
	reg.CounterFunc("xpu.doorbell_hangs", func() uint64 { return uint64(d.Hangs()) })
	reg.CounterFunc("xpu.msi_dropped", func() uint64 { return uint64(d.MSIDropped()) })
	reg.CounterFunc("xpu.faults", func() uint64 { return uint64(d.Faults()) })
}

// Span sites, attribute keys and opcode names of the device model,
// resolved once.
var (
	siteDoorbellHang = obsv.NewSite(obsv.TrackXPU, "doorbell_hang")
	sitePump         = obsv.NewSite(obsv.TrackXPU, "pump")
	siteDeviceFault  = obsv.NewSite(obsv.TrackXPU, "device_fault")
	siteMSIDropped   = obsv.NewSite(obsv.TrackXPU, "msi_dropped")
	siteDMARead      = obsv.NewSite(obsv.TrackXPU, "dma_read")
	siteDMAWrite     = obsv.NewSite(obsv.TrackXPU, "dma_write")
	siteExec         = obsv.NewSite(obsv.TrackXPU, "exec")

	keyHead  = obsv.NewKey("head")
	keyTail  = obsv.NewKey("tail")
	keyAddr  = obsv.NewKey("addr")
	keyBytes = obsv.NewKey("bytes")
	keyOp    = obsv.NewKey("op")

	opSyms = [...]obsv.Sym{
		OpNop:     obsv.Intern("nop"),
		OpCopyH2D: obsv.Intern("copy_h2d"),
		OpCopyD2H: obsv.Intern("copy_d2h"),
		OpKernel:  obsv.Intern("kernel"),
		OpFence:   obsv.Intern("fence"),
	}
)

// opField renders a command opcode as a span attribute: its name, or —
// outside the command set, where the value is whatever the ring held —
// the bare number, so no opcode ever mints a symbol.
func opField(op uint32) obsv.Field {
	if int(op) < len(opSyms) {
		return keyOp.Str(opSyms[op])
	}
	return keyOp.U64(uint64(op))
}

// NewDevice instantiates a device model at the given bus ID with BAR0
// mapped at bar0.
func NewDevice(profile Profile, id pcie.ID, bar0 uint64, functionalMem int) *Device {
	if functionalMem <= 0 {
		functionalMem = 1 << 20
	}
	d := &Device{
		profile:    profile,
		id:         id,
		cfg:        pcie.NewConfigSpace(profile.VendorID, profile.DeviceID, 0x030200),
		bar0:       bar0,
		regs:       make(map[uint64]uint64),
		devMem:     make([]byte, functionalMem),
		writeBurst: pcie.MaxPayload,
	}
	d.cfg.SetBAR(0, bar0)
	d.cfg.EnableMaster(true)
	d.regs[RegID] = uint64(profile.DeviceID)<<16 | uint64(profile.VendorID)
	d.regs[RegStatus] = StatusReady
	d.regs[RegFWVersion] = fwHash(profile.FirmwareVersion)
	return d
}

// AttestDigest is the challenge-response function of the software
// attestation protocol: a keyless digest over the firmware identity
// and the fresh nonce. Both the device firmware and the verifier (the
// PCIe-SC, which measured the golden firmware at secure boot) compute
// it independently.
func AttestDigest(firmware string, nonce uint64) uint64 {
	h := fwHash(firmware)
	for i := 0; i < 8; i++ {
		h ^= (nonce >> (8 * i)) & 0xff
		h *= 0x100000001b3
	}
	return h
}

func fwHash(v string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(v); i++ {
		h ^= uint64(v[i])
		h *= 0x100000001b3
	}
	return h
}

// Profile reports the device's performance profile.
func (d *Device) Profile() Profile { return d.profile }

// DeviceID implements pcie.Endpoint.
func (d *Device) DeviceID() pcie.ID { return d.id }

// BAR0 reports the device's register window.
func (d *Device) BAR0() pcie.Region {
	return pcie.Region{Base: d.bar0, Size: BAR0Size, Name: d.profile.Name + "/bar0"}
}

// SetUpstream wires the device's host-facing path.
func (d *Device) SetUpstream(u Upstream) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.upstream = u
}

// SetPayloadRecycling wires the arena-recycling gates for DMA payloads:
// cpl authorizes pooling upstream completion payloads once copied out,
// wr authorizes staging outbound MWr payloads from the arena (only
// sound when the upstream consumer owns and recycles them). Both hooks
// are consulted per transfer, so a tap installed mid-run shuts the
// recycling down from that packet on (Bus.Untapped is sticky).
func (d *Device) SetPayloadRecycling(cpl, wr func() bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cplRecycle, d.wrRecycle = cpl, wr
}

// SetWriteBurst sets the largest payload of the MWr requests dmaWrite
// posts upstream. A device on the host bus keeps the default,
// MaxPayload. Behind a PCIe-SC the internal segment ends at the SC's
// upstream port, which takes a write of up to MaxReadReq as one burst
// and splits it along its chunk grid (core.Controller.HandleFromDevice),
// so the platform raises it there. Assembly-time configuration.
func (d *Device) SetWriteBurst(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.writeBurst = n
}

// SetFaultHook wires the benign-failure injection layer (nil clears).
func (d *Device) SetFaultHook(h FaultHook) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.faultHook = h
}

// Hangs reports doorbell rings the device swallowed under fault.
func (d *Device) Hangs() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hangs
}

// MSIDropped reports interrupts whose MSI write was lost under fault.
func (d *Device) MSIDropped() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.msiDropped
}

// DevMem exposes functional device memory; read it only while the
// device is quiescent. A test seam: the data-path cells check what a DMA
// left in device memory.
func (d *Device) DevMem() []byte { return d.devMem }

// executedLogCap bounds the execution log.
const executedLogCap = 64

// Executed reports the commands completed since the last reset, oldest
// first — the last executedLogCap of them once there were more. A test
// seam: the command cells check which commands the device ran.
func (d *Device) Executed() []Command {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := min(d.nExecuted, executedLogCap)
	out := make([]Command, 0, n)
	for i := d.nExecuted - n; i < d.nExecuted; i++ {
		out = append(out, d.executed[i%executedLogCap])
	}
	return out
}

// ColdBoots reports how many cold resets the device performed. A test
// seam: the teardown cells check the environment guard's clean reached
// the device as the reset its profile supports.
func (d *Device) ColdBoots() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.coldBoots
}

// EnvResets reports soft environment cleans performed. A test seam, as
// ColdBoots.
func (d *Device) EnvResets() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.envResets
}

// Handle implements pcie.Endpoint for MMIO and config traffic.
func (d *Device) Handle(p *pcie.Packet) *pcie.Packet {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch p.Kind {
	case pcie.CfgRd:
		v := d.cfg.Read32(uint16(p.Address))
		buf := make([]byte, 4)
		binary.LittleEndian.PutUint32(buf, v)
		return pcie.NewCompletion(p, d.id, pcie.CplSuccess, buf)
	case pcie.CfgWr:
		if len(p.Payload) >= 4 {
			d.cfg.Write32(uint16(p.Address), binary.LittleEndian.Uint32(p.Payload))
		}
		return pcie.NewCompletion(p, d.id, pcie.CplSuccess, nil)
	case pcie.MRd:
		return d.mmioRead(p)
	case pcie.MWr:
		d.mmioWrite(p)
		return nil
	case pcie.Msg, pcie.MsgD:
		return nil // power management etc.: absorbed
	}
	return pcie.NewCompletion(p, d.id, pcie.CplUR, nil)
}

func (d *Device) mmioRead(p *pcie.Packet) *pcie.Packet {
	off := p.Address - d.bar0
	if off >= BAR0Size {
		return pcie.NewCompletion(p, d.id, pcie.CplUR, nil)
	}
	buf := d.slab.Take(int(p.Length))
	if off >= RegScratch && off < RegScratch+64 {
		copy(buf, d.scratch[off-RegScratch:])
	} else {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], d.regs[off&^7])
		copy(buf, tmp[:])
	}
	// buf is never reused, so the completion takes ownership instead of copying.
	return d.pkts.CompletionOwned(p, d.id, pcie.CplSuccess, buf)
}

func (d *Device) mmioWrite(p *pcie.Packet) {
	off := p.Address - d.bar0
	if off >= BAR0Size || len(p.Payload) == 0 {
		return
	}
	if off >= RegScratch && off < RegScratch+64 {
		copy(d.scratch[off-RegScratch:], p.Payload)
		return
	}
	var tmp [8]byte
	copy(tmp[:], p.Payload)
	v := binary.LittleEndian.Uint64(tmp[:])
	reg := off &^ 7
	switch reg {
	case RegDoorbell:
		d.regs[RegDoorbell] = v
		d.obs.doorbells.Inc()
		if d.faultHook != nil && d.faultHook(FaultDoorbell) {
			d.hangs++ // command queue hang: ring swallowed, no progress
			d.obs.tracer.Mark(siteDoorbellHang)
			return
		}
		d.pump()
	case RegAttestNonce:
		d.regs[RegAttestNonce] = v
		d.regs[RegAttestResp] = AttestDigest(d.profile.FirmwareVersion, v)
	case RegIntStatus:
		d.regs[RegIntStatus] &^= v // write-1-to-clear
	case RegReset:
		d.reset(v)
	case RegID, RegStatus, RegCmdHead, RegFWVersion, RegAttestResp:
		// read-only: ignore
	default:
		d.regs[reg] = v
	}
}

func (d *Device) reset(kind uint64) {
	switch kind {
	case ResetSoft:
		d.regs[RegCmdHead] = 0
		d.regs[RegCmdTail] = 0
		d.scratch = [64]byte{}
	case ResetEnv:
		if !d.profile.SupportsSoftReset {
			// Devices without soft reset treat this as a cold boot —
			// exactly the environment-guard fallback in §4.2.
			d.reset(ResetCold)
			return
		}
		d.envResets++
		d.wipe()
	case ResetCold:
		d.coldBoots++
		d.wipe()
		d.regs = map[uint64]uint64{
			RegID:        uint64(d.profile.DeviceID)<<16 | uint64(d.profile.VendorID),
			RegStatus:    StatusReady,
			RegFWVersion: fwHash(d.profile.FirmwareVersion),
		}
	}
}

func (d *Device) wipe() {
	for i := range d.devMem {
		d.devMem[i] = 0
	}
	d.scratch = [64]byte{}
	d.nExecuted = 0
	d.regs[RegCmdHead] = 0
	d.regs[RegCmdTail] = 0
	d.regs[RegPageTable] = 0
}

// pump drains the command ring a run at a time: one DMA read fetches the
// pending entries — consecutive slots up to the ring's end, at most
// MaxReadReq bytes, the cuts at which the driver's ring sync MACs a
// submission's runs — then they execute in order, the head advancing
// past each, and completion is raised.
func (d *Device) pump() {
	if d.upstream == nil {
		d.fault()
		return
	}
	base := d.regs[RegCmdBase]
	size := d.regs[RegCmdSize]
	if size == 0 || size > 4096 {
		d.fault()
		return
	}
	head := d.regs[RegCmdHead]
	tail := d.regs[RegCmdTail]
	sp := d.obs.tracer.Start(sitePump, keyHead.U64(head), keyTail.U64(tail))
	defer sp.End()
	for head != tail {
		slot := head % size
		run := d.cmdRun[:min(tail-head, size-slot, pcie.MaxReadReq/CmdSize)*CmdSize]
		if !d.dmaReadInto(pcie.RoleCommandRun, run, base+slot*CmdSize) {
			d.fault()
			return
		}
		for ; len(run) > 0; run = run[CmdSize:] {
			cmd, _ := UnmarshalCommand(run) // a whole slot: never short
			if !d.execute(cmd) {
				d.fault()
				return
			}
			head++
			d.regs[RegCmdHead] = head
		}
	}
	d.raiseInterrupt(IntCmdDone)
}

func (d *Device) fault() {
	d.faults++
	d.obs.tracer.Mark(siteDeviceFault)
	d.regs[RegStatus] |= StatusFault
	d.raiseInterrupt(IntFault)
}

// Faults reports command/DMA failures observed.
func (d *Device) Faults() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.faults
}

func (d *Device) raiseInterrupt(cause uint64) {
	d.regs[RegIntStatus] |= cause
	msiAddr := d.regs[RegMSIAddr]
	if msiAddr == 0 || d.upstream == nil {
		return
	}
	if d.faultHook != nil && d.faultHook(FaultMSI) {
		d.msiDropped++ // cause bit stays latched; polling still observes it
		d.obs.tracer.Mark(siteMSIDropped)
		return
	}
	data := d.slab.Take(4)
	binary.LittleEndian.PutUint32(data, uint32(d.regs[RegMSIData]))
	d.postWrite(pcie.RoleMSI, msiAddr, data)
}

// postWrite routes one posted write upstream and takes the packet
// struct back when wrRecycle allows: an upstream consumer that keeps
// the payload keeps the slice, never the packet.
func (d *Device) postWrite(role pcie.Role, addr uint64, payload []byte) {
	p := d.pkts.MemWrite(role, d.id, addr, payload)
	d.upstream(p)
	if d.wrRecycle != nil && d.wrRecycle() {
		pcie.Release(p)
	}
}

// releaseRead gives back a DMA read whose completion was copied out:
// the payload zeroed (it may carry tenant plaintext) and both structs,
// when cplRecycle proves the device is their last holder. A completion
// the upstream relay pinned keeps its payload out of the pool too.
func (d *Device) releaseRead(req, cpl *pcie.Packet) {
	if d.cplRecycle == nil || !d.cplRecycle() {
		return
	}
	payload := cpl.Payload
	if pcie.Release(cpl) {
		arena.PutZero(payload)
	}
	pcie.Release(req)
}

// dmaReadInto issues chunked MRd requests upstream, copying each
// completion straight into dst: device memory for an H2D copy, the
// command run for the ring. Read requests carry no payload, so they
// chunk at MaxReadReq rather than MaxPayload — one request covers a
// whole span of cipher chunks, which the SC batch-decrypts (DESIGN.md
// §10), or a whole command run.
func (d *Device) dmaReadInto(role pcie.Role, dst []byte, addr uint64) bool {
	sp := d.obs.tracer.Start(siteDMARead, keyAddr.Hex(addr), keyBytes.I64(int64(len(dst))))
	defer sp.End()
	for len(dst) > 0 {
		chunk := pcie.MaxReadReq
		if len(dst) < chunk {
			chunk = len(dst)
		}
		req := d.pkts.MemRead(role, d.id, addr, uint32(chunk), 0)
		cpl := d.upstream(req)
		if cpl == nil || cpl.Status != pcie.CplSuccess || len(cpl.Payload) < chunk {
			return false
		}
		copy(dst, cpl.Payload[:chunk])
		d.releaseRead(req, cpl)
		addr += uint64(chunk)
		dst = dst[chunk:]
	}
	return true
}

// dmaWrite issues chunked MWr requests upstream. Writes carry their
// payload in the TLP, so each is capped at the write burst: MaxPayload
// on a host bus, MaxReadReq behind a PCIe-SC (SetWriteBurst).
func (d *Device) dmaWrite(addr uint64, data []byte) bool {
	sp := d.obs.tracer.Start(siteDMAWrite, keyAddr.Hex(addr), keyBytes.I64(int64(len(data))))
	defer sp.End()
	for len(data) > 0 {
		chunk := min(d.writeBurst, len(data))
		// The packet must not alias devMem — a later kernel or wipe would
		// mutate a payload a tap may have retained — so stage each write
		// through the never-reused slab, or through the arena when the
		// upstream consumer owns and recycles the bytes (wrRecycle).
		var buf []byte
		if d.wrRecycle != nil && d.wrRecycle() {
			buf = arena.Get(chunk)
		} else {
			buf = d.slab.Take(chunk)
		}
		copy(buf, data[:chunk])
		d.postWrite(pcie.RoleD2HData, addr, buf)
		addr += uint64(chunk)
		data = data[chunk:]
	}
	return true
}

func (d *Device) execute(cmd Command) bool {
	sp := d.obs.tracer.Start(siteExec, opField(cmd.Op), keyBytes.I64(int64(cmd.Len)))
	defer sp.End()
	d.obs.commands.Inc()
	switch cmd.Op {
	case OpNop, OpFence:
	case OpCopyH2D:
		if cmd.Dst+cmd.Len > uint64(len(d.devMem)) {
			return false
		}
		if !d.dmaReadInto(pcie.RoleH2DData, d.devMem[cmd.Dst:cmd.Dst+cmd.Len], cmd.Src) {
			return false
		}
	case OpCopyD2H:
		if cmd.Src+cmd.Len > uint64(len(d.devMem)) {
			return false
		}
		if !d.dmaWrite(cmd.Dst, d.devMem[cmd.Src:cmd.Src+cmd.Len]) {
			return false
		}
	case OpKernel:
		if !d.kernel(cmd) {
			return false
		}
	default:
		return false
	}
	d.executed[d.nExecuted%executedLogCap] = cmd
	d.nExecuted++
	return true
}

func (d *Device) kernel(cmd Command) bool {
	if cmd.Src+cmd.Len > uint64(len(d.devMem)) || cmd.Dst+cmd.Len > uint64(len(d.devMem)) {
		return false
	}
	src := d.devMem[cmd.Src : cmd.Src+cmd.Len]
	dst := d.devMem[cmd.Dst : cmd.Dst+cmd.Len]
	overlap := cmd.Src < cmd.Dst+cmd.Len && cmd.Dst < cmd.Src+cmd.Len
	switch cmd.Param >> 16 {
	case KernelVecAddConst:
		vecAddConst(dst, src, byte(cmd.Param), overlap)
	case KernelChecksum:
		if cmd.Len < 8 {
			return false
		}
		var h uint64 = 0xcbf29ce484222325
		for _, b := range src {
			h ^= uint64(b)
			h *= 0x100000001b3
		}
		binary.LittleEndian.PutUint64(dst[:8], h)
	case KernelXORMask:
		xorMask(dst, src, byte(cmd.Param), overlap)
	case KernelMatVecRelu:
		return d.matVecRelu(cmd)
	default:
		return false
	}
	return true
}

// matVecRelu runs the int8 fully-connected kernel. Layout at Src:
// R*C weight bytes followed by C input bytes; Dst receives R output
// bytes. All values are interpreted as int8; accumulation is int32
// with an arithmetic >>6 rescale and ReLU clamp to [0,127].
func (d *Device) matVecRelu(cmd Command) bool {
	cols := int(cmd.Param & 0xffff)
	rows := int(cmd.Len)
	if cols <= 0 || rows <= 0 {
		return false
	}
	wEnd := cmd.Src + uint64(rows*cols)
	xEnd := wEnd + uint64(cols)
	if xEnd > uint64(len(d.devMem)) || cmd.Dst+uint64(rows) > uint64(len(d.devMem)) {
		return false
	}
	weights := d.devMem[cmd.Src:wEnd]
	x := d.devMem[wEnd:xEnd]
	out := d.devMem[cmd.Dst : cmd.Dst+uint64(rows)]
	for r := 0; r < rows; r++ {
		var acc int32
		row := weights[r*cols : (r+1)*cols]
		for c := 0; c < cols; c++ {
			acc += int32(int8(row[c])) * int32(int8(x[c]))
		}
		acc >>= 6
		if acc < 0 {
			acc = 0
		}
		if acc > 127 {
			acc = 127
		}
		out[r] = byte(acc)
	}
	return true
}

// MemResidue reports whether any non-zero byte remains in functional
// device memory — the environment guard's post-teardown check.
func (d *Device) MemResidue() bool {
	for _, b := range d.devMem {
		if b != 0 {
			return true
		}
	}
	return false
}
