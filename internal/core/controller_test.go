package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ccai/internal/pcie"
	"ccai/internal/secmem"
)

const (
	ctlBar  = 0xd010_0000
	ctlWin  = 0xd000_0000
	ctlMem  = 0x8000_0000
	ctlMemN = 1 << 20

	// The rig's submission ring, in the upper half of its host memory:
	// deep enough that no test wraps it.
	ctlRing      = ctlMem + ctlMemN/2
	ctlRingSlots = 1024
)

// ctlRig wires a controller between a fake host memory endpoint and a
// fake device for direct unit testing.
type ctlRig struct {
	sc      *Controller
	mux     *Mux
	host    *pcie.Bus
	inner   *pcie.Bus
	hostMem map[uint64][]byte
	hostEP  *ctlHostMem
	cfgTx   *secmem.Stream
	dev     *ctlDevice
	tail    uint64 // ring producer index: the next entry's sequence number
}

// ringEntry is one submission-ring entry as a test spells it.
type ringEntry struct {
	op   uint8
	arg  uint64
	data []byte
}

// slot frames e as the ring slot with sequence number seq.
func (e ringEntry) slot(seq uint32) []byte {
	s := make([]byte, RingSlotSize)
	PutRingEntry((*[RingEntryHdrSize]byte)(s), e.op, uint16(len(e.data)), seq, e.arg)
	copy(s[RingEntryHdrSize:], e.data)
	return s
}

// publish is the rig's ring producer at its rawest: slot bytes laid down
// where the SC's next fetch starts, then the doorbell with tail.
// ctlHostMem serves a read from the exact address of one write, so a
// burst must be what one SC fetch covers (≤ 15 slots).
func (r *ctlRig) publish(slots []byte, tail uint64) {
	r.hostMem[ctlRing+RingHdrSize+r.tail%ctlRingSlots*RingSlotSize] = slots
	r.host.Route(pcie.NewMemWrite(tvmID, ctlBar+RegRingDoorbell, binary.LittleEndian.AppendUint64(nil, tail)))
}

// submit publishes well-framed entries: consecutive sequence numbers
// from the producer's tail, the doorbell one past the last.
func (r *ctlRig) submit(entries ...ringEntry) {
	var slots []byte
	for i, e := range entries {
		slots = append(slots, e.slot(uint32(r.tail)+uint32(i))...)
	}
	r.publish(slots, r.tail+uint64(len(entries)))
	r.tail += uint64(len(entries))
}

// sealed seals a marshalled rule, descriptor or rekey command under the
// config stream into a ring entry's payload.
func (r *ctlRig) sealed(t *testing.T, pt []byte) []byte {
	t.Helper()
	s, err := r.cfgTx.Seal(pt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return MarshalBlob(s)
}

// ctlHostMem is the rig's host memory. seen, when set, sees every write
// before it is copied in: a test reading the payload the SC handed over,
// not a copy, does it there — a tap would stop the SC recycling.
type ctlHostMem struct {
	m    map[uint64][]byte
	seen func(p *pcie.Packet)
}

func (h *ctlHostMem) DeviceID() pcie.ID { return pcie.MakeID(0, 0, 0) }
func (h *ctlHostMem) Handle(p *pcie.Packet) *pcie.Packet {
	switch p.Kind {
	case pcie.MWr:
		if h.seen != nil {
			h.seen(p)
		}
		h.m[p.Address] = append([]byte(nil), p.Payload...)
		return nil
	case pcie.MRd:
		data, ok := h.m[p.Address]
		if !ok {
			data = make([]byte, p.Length)
		}
		out := make([]byte, p.Length)
		copy(out, data)
		return pcie.NewCompletion(p, h.DeviceID(), pcie.CplSuccess, out)
	}
	return nil
}

type ctlDevice struct {
	id   pcie.ID
	regs map[uint64]uint64
	msgs []*pcie.Packet
}

func (d *ctlDevice) DeviceID() pcie.ID { return d.id }
func (d *ctlDevice) Handle(p *pcie.Packet) *pcie.Packet {
	switch p.Kind {
	case pcie.MWr:
		var tmp [8]byte
		copy(tmp[:], p.Payload)
		d.regs[p.Address-ctlWin] = binary.LittleEndian.Uint64(tmp[:])
		return nil
	case pcie.MRd:
		buf := make([]byte, p.Length)
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], d.regs[p.Address-ctlWin])
		copy(buf, tmp[:])
		return pcie.NewCompletion(p, d.id, pcie.CplSuccess, buf)
	case pcie.Msg, pcie.MsgD:
		d.msgs = append(d.msgs, p.Clone())
		return nil
	}
	return nil
}

func newCtlRig(t *testing.T) *ctlRig {
	t.Helper()
	host := pcie.NewBus("host")
	inner := pcie.NewBus("internal")
	scID := pcie.MakeID(1, 0, 0)
	keys := secmem.NewKeyStore()
	sc := NewController(scID, pcie.Region{Base: ctlBar, Size: SCBarSize}, keys)
	hm := &ctlHostMem{m: make(map[uint64][]byte)}
	host.Attach(hm)
	if err := host.Claim(hm.DeviceID(), pcie.Region{Base: ctlMem, Size: ctlMemN}); err != nil {
		t.Fatal(err)
	}
	dev := &ctlDevice{id: pcie.MakeID(2, 0, 0), regs: make(map[uint64]uint64)}
	inner.Attach(dev)
	if err := inner.Claim(dev.id, pcie.Region{Base: ctlWin, Size: 0x1000}); err != nil {
		t.Fatal(err)
	}
	// The production shape: the SC's host-side presence is a one-unit
	// Mux, which pins the TVM.
	unit := &MuxUnit{Ctrl: sc, Bar: pcie.Region{Base: ctlBar, Size: SCBarSize},
		Window: pcie.Region{Base: ctlWin, Size: 0x1000}, XPU: dev.id, TVM: tvmID}
	sc.Attach(inner, unit.Window, host)
	mux := NewMux(scID)
	if err := mux.AddUnit(unit); err != nil {
		t.Fatal(err)
	}
	host.Attach(mux)
	for _, r := range []pcie.Region{unit.Bar, unit.Window} {
		if err := host.Claim(scID, r); err != nil {
			t.Fatal(err)
		}
	}

	// Config stream provisioning.
	key, nonce := secmem.FreshKey(), secmem.FreshNonce()
	if err := keys.Install(StreamConfig, key, nonce); err != nil {
		t.Fatal(err)
	}
	if err := sc.Params().Activate(StreamConfig); err != nil {
		t.Fatal(err)
	}
	cfgTx, err := secmem.NewStream(key, nonce)
	if err != nil {
		t.Fatal(err)
	}
	r := &ctlRig{sc: sc, mux: mux, host: host, inner: inner, hostMem: hm.m, hostEP: hm, cfgTx: cfgTx, dev: dev}
	for reg, v := range map[uint64]uint64{RegRingBase: ctlRing, RegRingSize: ctlRingSlots} {
		host.Route(pcie.NewMemWrite(tvmID, ctlBar+reg, binary.LittleEndian.AppendUint64(nil, v)))
	}
	return r
}

// TestRingSizeBounded: a ring size past RingMaxSlots is refused at the
// control BAR, so a doorbell never sizes the SC's fetch buffer past what
// a ring holds. A tampered size and tail once made the SC allocate 2^49
// slots and panic.
func TestRingSizeBounded(t *testing.T) {
	r := newCtlRig(t)
	rej := r.sc.Stats().ConfigRejects
	for _, w := range [][2]uint64{{RegRingSize, 1 << 50}, {RegRingDoorbell, 1 << 49}} {
		r.host.Route(pcie.NewMemWrite(tvmID, ctlBar+w[0], binary.LittleEndian.AppendUint64(nil, w[1])))
	}
	if r.sc.Stats().ConfigRejects == rej {
		t.Fatal("a 2^50-slot ring was accepted")
	}
}

func (r *ctlRig) installRule(t *testing.T, rule Rule) {
	t.Helper()
	r.submit(ringEntry{op: RingOpRule, data: r.sealed(t, rule.Marshal())})
}

func TestControllerSealedRuleInstall(t *testing.T) {
	r := newCtlRig(t)
	r.installRule(t, Rule{ID: 1, Mask: MatchKind | MatchRequester, Kind: pcie.MRd, Requester: tvmID, Action: actionToL2})
	r.installRule(t, Rule{ID: 2, Mask: MatchKind | MatchRequester | MatchAddr,
		Kind: pcie.MRd, Requester: tvmID, AddrLo: ctlWin, AddrHi: ctlWin + 0x1000, Action: ActionPassThrough})
	l1, l2 := r.sc.Filter().RuleCount()
	if l1 != 1 || l2 != 1 {
		t.Fatalf("rules = %d/%d", l1, l2)
	}
	// The installed rules now admit a register read through the window.
	r.dev.regs[0x40] = 0x77
	cpl := r.host.Route(pcie.NewMemRead(tvmID, ctlWin+0x40, 8, 0))
	if cpl == nil || cpl.Status != pcie.CplSuccess || binary.LittleEndian.Uint64(cpl.Payload) != 0x77 {
		t.Fatalf("window read after rule install: %v", cpl)
	}
}

func TestControllerRuleReplayRejected(t *testing.T) {
	r := newCtlRig(t)
	rule := Rule{ID: 1, Mask: MatchKind, Kind: pcie.MRd, Action: ActionPassThrough}
	frame := r.sealed(t, rule.Marshal())
	install := func() { r.submit(ringEntry{op: RingOpRule, data: frame}) }
	install()
	_, l2 := r.sc.Filter().RuleCount()
	if l2 != 1 {
		t.Fatalf("first install failed: %d", l2)
	}
	// Replaying the same sealed frame must fail the stream's counter
	// discipline (a captured-policy replay attack).
	install()
	if _, l2b := r.sc.Filter().RuleCount(); l2b != 1 {
		t.Fatal("replayed policy frame installed")
	}
	if r.sc.Stats().ConfigRejects == 0 {
		t.Fatal("replay not recorded as config reject")
	}
}

func TestControllerEmptyDoorbellRejected(t *testing.T) {
	r := newCtlRig(t)
	r.submit(ringEntry{op: RingOpRule})
	if r.sc.Stats().ConfigRejects != 1 {
		t.Fatal("rule entry without a blob accepted")
	}
	if r.sc.SCStatusBits()&SCStatusConfigErr == 0 {
		t.Fatal("config error status not latched")
	}
}

func TestControllerStatusRegisterReadable(t *testing.T) {
	r := newCtlRig(t)
	cpl := r.host.Route(pcie.NewMemRead(tvmID, ctlBar+RegSCStatus, 8, 0))
	if cpl == nil || cpl.Status != pcie.CplSuccess {
		t.Fatal("status read failed")
	}
	if binary.LittleEndian.Uint64(cpl.Payload)&SCStatusReady == 0 {
		t.Fatal("ready bit clear")
	}
}

func TestControllerWindowFailClosedWithoutRules(t *testing.T) {
	r := newCtlRig(t)
	cpl := r.host.Route(pcie.NewMemRead(tvmID, ctlWin+0x40, 8, 0))
	if cpl == nil || cpl.Status == pcie.CplSuccess {
		t.Fatal("ruleless window access succeeded")
	}
	if r.sc.Stats().Filter.Dropped == 0 {
		t.Fatal("drop not recorded")
	}
}

// TestControllerVendorMessages covers §9 "Customized packets": vendor
// messages keep the standard header shape, so the filter can classify
// them — pass-through for benign power management, drop for everything
// unruled.
func TestControllerVendorMessages(t *testing.T) {
	r := newCtlRig(t)
	const vendorPM = 0x50 // vendor-defined power-management message code
	r.sc.Filter().InstallL1(Rule{ID: 40, Mask: MatchKind | MatchRequester,
		Kind: pcie.MsgD, Requester: tvmID, Action: actionToL2})
	r.sc.Filter().InstallL2(Rule{ID: 41, Mask: MatchKind | MatchRequester | MatchAddr,
		Kind: pcie.MsgD, Requester: tvmID, AddrLo: vendorPM, AddrHi: vendorPM + 1, Action: ActionPassThrough})

	// Authorized vendor message reaches the device.
	msg := pcie.NewMessage(tvmID, vendorPM, []byte{0x01})
	msg.Completer = r.sc.DeviceID()
	r.sc.Handle(msg)
	if len(r.dev.msgs) != 1 {
		t.Fatalf("device saw %d messages, want 1", len(r.dev.msgs))
	}
	// A different vendor code is dropped (fail-closed L2).
	other := pcie.NewMessage(tvmID, 0x66, []byte{0x01})
	other.Completer = r.sc.DeviceID()
	r.sc.Handle(other)
	if len(r.dev.msgs) != 1 {
		t.Fatal("unruled vendor message forwarded")
	}
	// Rogue-sourced messages never pass L1.
	rogueMsg := pcie.NewMessage(rogueID, vendorPM, []byte{0x01})
	rogueMsg.Completer = r.sc.DeviceID()
	r.sc.Handle(rogueMsg)
	if len(r.dev.msgs) != 1 {
		t.Fatal("rogue vendor message forwarded")
	}
}

func TestControllerTeardownViaRegister(t *testing.T) {
	r := newCtlRig(t)
	cleaned := false
	r.sc.SetTeardownHook(func() { cleaned = true })
	r.host.Route(pcie.NewMemWrite(tvmID, ctlBar+RegTeardown, []byte{1, 0, 0, 0, 0, 0, 0, 0}))
	if r.sc.Stats().Teardowns != 1 || !cleaned {
		t.Fatal("teardown register ineffective")
	}
	if r.sc.Params().Active() != 0 {
		t.Fatal("streams survive teardown")
	}
	if r.sc.MMIOSeq() != 0 {
		t.Fatal("MMIO sequence not reset")
	}
}

func TestControllerIngestTagsBatch(t *testing.T) {
	r := newCtlRig(t)
	var payload []byte
	for i := uint32(0); i < 5; i++ {
		rec := TagRecord{Stream: StreamH2D, Chunk: 100 + i}
		rec.Tag[0] = byte(i)
		payload = append(payload, rec.Marshal()...)
	}
	r.submit(ringEntry{op: RingOpTags, data: payload})
	if r.sc.Tags().Depth() != 5 {
		t.Fatalf("tag depth = %d, want 5", r.sc.Tags().Depth())
	}
	rec, ok := r.sc.Tags().Take(StreamH2D, 102)
	if !ok || rec.Tag[0] != 2 {
		t.Fatalf("batched tag lost: %v %v", rec, ok)
	}
	// Garbage stream hashes are ignored, not enqueued.
	junk := make([]byte, TagRecordSize)
	binary.LittleEndian.PutUint32(junk, 0xdeadbeef)
	r.submit(ringEntry{op: RingOpTags, data: junk})
	if r.sc.Tags().Depth() != 4 {
		t.Fatalf("junk tag enqueued (depth %d)", r.sc.Tags().Depth())
	}
}

func TestControllerDescriptorOverlapRejected(t *testing.T) {
	r := newCtlRig(t)
	install := func(d Descriptor) {
		r.submit(ringEntry{op: RingOpDesc, data: r.sealed(t, d.Marshal())})
	}
	install(Descriptor{ID: 1, Dir: DirH2D, Class: ActionWriteReadProtect, Base: ctlMem, Len: 0x1000, ChunkSize: 256})
	if r.sc.Regions() != 1 {
		t.Fatal("descriptor not installed")
	}
	install(Descriptor{ID: 2, Dir: DirH2D, Class: ActionWriteReadProtect, Base: ctlMem + 0x800, Len: 0x1000, ChunkSize: 256})
	if r.sc.Regions() != 1 {
		t.Fatal("overlapping descriptor installed")
	}
	if r.sc.Stats().ConfigRejects == 0 {
		t.Fatal("overlap not recorded")
	}
}

func TestControllerDeviceReadOutsideRegionsRejected(t *testing.T) {
	r := newCtlRig(t)
	for _, rule := range L1Screen(10, r.dev.id) {
		r.sc.Filter().InstallL1(rule)
	}
	r.sc.Filter().InstallL2(Rule{ID: 22, Mask: MatchKind | MatchRequester | MatchAddr,
		Kind: pcie.MRd, Requester: r.dev.id, AddrLo: ctlMem, AddrHi: ctlMem + ctlMemN, Action: ActionWriteReadProtect})
	failBefore := r.sc.Stats().AuthFailures
	cpl := r.sc.HandleFromDevice(pcie.NewMemRead(r.dev.id, ctlMem+0x100, 256, 0))
	if cpl != nil && cpl.Status == pcie.CplSuccess {
		t.Fatal("regionless protected read succeeded")
	}
	if r.sc.Stats().AuthFailures != failBefore+1 {
		t.Fatal("failure not recorded")
	}
}

func TestControllerInternalPortDelegates(t *testing.T) {
	r := newCtlRig(t)
	port := r.sc.InternalPort()
	if port.DeviceID() != r.sc.DeviceID() {
		t.Fatal("internal port identity mismatch")
	}
	// A pass-through MSI-ish write via the port: install rules first.
	for _, rule := range L1Screen(10, r.dev.id) {
		r.sc.Filter().InstallL1(rule)
	}
	r.sc.Filter().InstallL2(Rule{ID: 24, Mask: MatchKind | MatchRequester | MatchAddr,
		Kind: pcie.MWr, Requester: r.dev.id, AddrLo: ctlMem, AddrHi: ctlMem + ctlMemN, Action: ActionPassThrough})
	port.Handle(pcie.NewMemWrite(r.dev.id, ctlMem+0x500, []byte("via port")))
	if !bytes.Equal(r.hostMem[ctlMem+0x500], []byte("via port")) {
		t.Fatal("port did not forward to host")
	}
}

func TestControllerStatsSnapshot(t *testing.T) {
	r := newCtlRig(t)
	r.host.Route(pcie.NewMemRead(rogueID, ctlWin+0x40, 8, 0))
	st := r.sc.Stats()
	if st.Filter.Dropped == 0 {
		t.Fatal("snapshot missing filter stats")
	}
}

// TestControllerUnknownOffsetsRejected: the control BAR decodes its nine
// registers and nothing else. A write anywhere else — the offsets the
// sealed-blob windows, their doorbells, the notify latch, the
// positioned-tag window and the 64-byte tag window (0x080–0x0bf) once
// had included — is one config reject and changes no rule, region, key,
// slot table or pending tag, whatever it carries.
func TestControllerUnknownOffsetsRejected(t *testing.T) {
	d := newDPRig(t)
	w := d.installWindow(t, 5, ctlMem+0x4000, 4)
	l1, l2 := d.sc.Filter().RuleCount()
	arm := binary.LittleEndian.AppendUint64(nil, ArmPosition(w.ID, 1))
	arm = TagRecord{Stream: StreamH2D, Chunk: 7}.AppendMarshal(arm)
	payloads := [][]byte{
		{1, 0, 0, 0, 0, 0, 0, 0},
		d.sealed(t, Rule{ID: 99, Action: ActionPassThrough}.Marshal()), // well sealed, wrong door
		arm,
		TagRecord{Stream: StreamMMIO, Chunk: 0}.Marshal(), // what the tag window took
	}
	offsets := []uint64{0x008, 0x010, 0x018, 0x020, 0x040, 0x048, 0x070, 0x0c0, 0x0f8, 0x400, SCBarSize - 8,
		RegSCStatus, RegMMIOSeq} // read-only: not writable either
	for off := uint64(0x080); off < 0x0c0; off += 4 {
		offsets = append(offsets, off)
	}
	for off := uint64(0x100); off < 0x400; off += 0x48 {
		offsets = append(offsets, off)
	}
	for i, off := range offsets {
		rejects := d.sc.Stats().ConfigRejects
		d.host.Route(pcie.NewMemWrite(tvmID, ctlBar+off, payloads[i%len(payloads)]))
		if got := d.sc.Stats().ConfigRejects; got != rejects+1 {
			t.Fatalf("write to offset %#x: %d config rejects, want 1", off, got-rejects)
		}
	}
	if a1, a2 := d.sc.Filter().RuleCount(); a1 != l1 || a2 != l2 || d.sc.Regions() != 1 {
		t.Fatal("a write to an unknown offset changed the rule or region table")
	}
	if depth := d.sc.Tags().Depth(); depth != 0 {
		t.Fatalf("a write to an unknown offset queued %d tag records", depth)
	}
	d.sc.mu.Lock()
	slots := d.sc.sess.byID(w.ID).slots
	d.sc.mu.Unlock()
	for slot, ctr := range slots {
		if ctr != 0 {
			t.Fatalf("a write to an unknown offset armed slot %d", slot)
		}
	}
	for _, name := range []string{StreamH2D, StreamD2H, StreamConfig} {
		if s, err := d.sc.Params().Stream(name); err != nil || s.Epoch() != 0 {
			t.Fatalf("a write to an unknown offset touched stream %s", name)
		}
	}
	// The sealed rule a wrong offset refused is still good at the right one.
	d.submit(ringEntry{op: RingOpRule, data: payloads[1]})
	if _, a2 := d.sc.Filter().RuleCount(); a2 != l2+1 {
		t.Fatal("rule refused at an unknown offset was consumed there")
	}
}

// TestControllerRingFraming drives processRing directly: a well-framed
// burst is consumed and the head posted; a skewed sequence number, an
// oversized length, an unknown opcode, a tail behind the head or further
// ahead than the ring is deep is a desync — one config reject, the status
// word raised, the head where it was, the bad entry and everything behind
// it undispatched.
func TestControllerRingFraming(t *testing.T) {
	word := func(r *ctlRig, off uint64) uint64 {
		if b := r.hostMem[ctlRing+off]; len(b) == 8 {
			return binary.LittleEndian.Uint64(b)
		}
		return 0
	}
	release := ringEntry{op: RingOpRelease, arg: 1}
	oversized := release.slot(1)
	binary.LittleEndian.PutUint16(oversized[2:], RingMaxData+1)
	for name, c := range map[string]struct {
		slots []byte
		tail  uint64
	}{
		"sequence skew":    {release.slot(2), 2},
		"oversized length": {oversized, 2},
		"opcode 0":         {ringEntry{}.slot(1), 2},
		"opcode 8":         {ringEntry{op: RingOpGuarded + 1}.slot(1), 2},
		"bad entry second": {append(ringEntry{op: RingOpNotify}.slot(1), release.slot(3)...), 3},
		"tail behind head": {release.slot(1), 0},
		"tail past ring":   {release.slot(1), 1 + ctlRingSlots + 1},
	} {
		t.Run(name, func(t *testing.T) {
			r := newCtlRig(t)
			r.submit(ringEntry{op: RingOpDesc, data: r.sealed(t, Descriptor{ID: 1, Dir: DirH2D,
				Class: ActionWriteReadProtect, Base: ctlMem, Len: 0x1000, ChunkSize: ChunkSize}.Marshal())})
			if r.sc.Regions() != 1 || word(r, 0) != 1 || word(r, 8) != 0 {
				t.Fatalf("clean burst: %d regions, head word %d, status %d", r.sc.Regions(), word(r, 0), word(r, 8))
			}
			r.publish(c.slots, c.tail)
			if st := r.sc.Stats(); st.ConfigRejects != 1 || word(r, 8) != RingStatusDesync || r.sc.sess.ringHead != 1 || word(r, 0) != 1 {
				t.Fatalf("%d config rejects, status %d, head %d (posted %d)", st.ConfigRejects, word(r, 8), r.sc.sess.ringHead, word(r, 0))
			}
			if r.sc.Regions() != 1 {
				t.Fatal("a refused entry was dispatched")
			}
		})
	}
}

// TestControllerTeardownForgetsRing: a torn-down SC no longer knows where
// the dead session's ring or metadata buffer lived. A doorbell replayed
// at it is one "no configured ring" reject and not a single SC-mastered
// packet on the host bus — no fetch of last session's slots, no head
// written back into memory the TVM may have reused.
func TestControllerTeardownForgetsRing(t *testing.T) {
	r := newCtlRig(t)
	r.host.Route(pcie.NewMemWrite(tvmID, ctlBar+RegMetaBase, binary.LittleEndian.AppendUint64(nil, ctlMem+0x1000)))
	r.installRule(t, Rule{ID: 1, Mask: MatchKind, Kind: pcie.MRd, Action: ActionPassThrough})
	r.host.Route(pcie.NewMemWrite(tvmID, ctlBar+RegTeardown, []byte{1, 0, 0, 0, 0, 0, 0, 0}))

	mastered := 0
	r.host.AddTap(pcie.TapFunc(func(p *pcie.Packet) *pcie.Packet {
		if p.Requester == r.sc.DeviceID() {
			mastered++
		}
		return p
	}))
	rejects := r.sc.Stats().ConfigRejects
	r.host.Route(pcie.NewMemWrite(tvmID, ctlBar+RegRingDoorbell, []byte{3, 0, 0, 0, 0, 0, 0, 0}))
	if got := r.sc.Stats().ConfigRejects - rejects; got != 1 || mastered != 0 {
		t.Fatalf("doorbell replayed after teardown: %d config rejects, %d SC packets on the host bus; want 1 and 0", got, mastered)
	}
	for _, reg := range []uint64{RegRingBase, RegRingSize, RegMetaBase, RegMetaSize} {
		cpl := r.host.Route(pcie.NewMemRead(tvmID, ctlBar+reg, 8, 0))
		if cpl == nil || binary.LittleEndian.Uint64(cpl.Payload) != 0 {
			t.Fatalf("register %#x survived teardown", reg)
		}
	}
}

// TestControllerForgedEntriesRejected: a rule, descriptor or rekey entry
// whose payload is not sealed under the config stream — plaintext, or
// sealed under a key of the forger's choosing — is one config reject
// each and installs nothing; the ring moves on to the next entry.
func TestControllerForgedEntriesRejected(t *testing.T) {
	d := newDPRig(t)
	l1, l2 := d.sc.Filter().RuleCount()
	wrongKey, err := secmem.NewStream(secmem.FreshKey(), secmem.FreshNonce())
	if err != nil {
		t.Fatal(err)
	}
	for op, pt := range map[uint8][]byte{
		RingOpRule: Rule{ID: 99, Action: ActionPassThrough}.Marshal(),
		RingOpDesc: Descriptor{ID: 9, Dir: DirH2D, Class: ActionWriteReadProtect,
			Base: ctlMem, Len: 0x1000, ChunkSize: ChunkSize}.Marshal(),
		RingOpRekey: RekeyCommand{Stream: StreamH2D, Key: secmem.FreshKey(), Nonce: secmem.FreshNonce()}.Marshal(),
	} {
		sealed, err := wrongKey.Seal(pt, nil)
		if err != nil {
			t.Fatal(err)
		}
		rejects := d.sc.Stats().ConfigRejects
		d.submit(ringEntry{op: op, data: pt}, ringEntry{op: op, data: MarshalBlob(sealed)})
		if got := d.sc.Stats().ConfigRejects - rejects; got != 2 {
			t.Fatalf("op %d: %d config rejects for a plaintext and a wrong-key entry, want 2", op, got)
		}
	}
	if a1, a2 := d.sc.Filter().RuleCount(); a1 != l1 || a2 != l2 || d.sc.Regions() != 0 {
		t.Fatal("a forged entry installed a rule or a region")
	}
	if s, err := d.sc.Params().Stream(StreamH2D); err != nil || s.Epoch() != 0 {
		t.Fatal("a forged rekey entry rotated the stream")
	}
	if d.sc.sess.ringHead != d.tail {
		t.Fatalf("ring head %d after %d entries: a rejected entry stalled the ring", d.sc.sess.ringHead, d.tail)
	}
}
