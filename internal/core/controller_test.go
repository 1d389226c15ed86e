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
	keys    *secmem.KeyStore // the SC's trust-module key store
	mux     *Mux
	host    *pcie.Bus
	inner   *pcie.Bus
	hostMem map[uint64][]byte
	hostEP  *ctlHostMem
	cfgTx   *secmem.Stream
	dev     *ctlDevice
	tail    uint64 // ring producer index: the next slot's absolute index
}

// ringEntry is one submission-ring entry as a test spells it.
type ringEntry struct {
	op   uint8
	arg  uint64
	data []byte
}

// slot frames e as one ring slot.
func (e ringEntry) slot() []byte { return packed(e) }

// packed frames entries as one ring slot, each behind the last with that
// one's more bit set, as the producer packs a burst's small entries.
func packed(entries ...ringEntry) []byte {
	s := make([]byte, RingSlotSize)
	at := 0
	for i, e := range entries {
		if i > 0 {
			s[at+1] |= RingFlagMore
			at += RingEntryHdrSize + len(entries[i-1].data)
		}
		PutRingEntry((*[RingEntryHdrSize]byte)(s[at:]), e.op, uint16(len(e.data)), e.arg)
		copy(s[at+RingEntryHdrSize:], e.data)
	}
	return s
}

// ctlSealKey is the rigs' ring-seal key: fixed, so that a fuzz seed can
// carry a seal that checks.
var ctlSealKey = bytes.Repeat([]byte{0x5e}, secmem.KeySize)

// sealSpan closes slots, framed from absolute ring index head on, with a
// seal entry as the producer does — behind the last slot's chain when
// that frames and the seal fits there, else in a slot of its own — and
// returns the slots and the doorbell's tail.
func sealSpan(keys *secmem.KeyStore, slots []byte, head uint64) ([]byte, uint64) {
	n := len(slots) / RingSlotSize
	last := slots[(n-1)*RingSlotSize:]
	at, end, framed := 0, 0, true
	for rest := last; rest != nil && framed; {
		var e RingEntry
		var next []byte
		e, next, framed = CutRingEntry(rest)
		at, rest = len(last)-len(rest), next
		end = at + RingEntryHdrSize + len(e.Data)
	}
	if framed && end+RingSealSize <= RingSlotSize {
		last[at+1] |= RingFlagMore
	} else {
		slots, end = append(slots, make([]byte, RingSlotSize)...), 0
		n++
	}
	off := (n-1)*RingSlotSize + end
	PutRingEntry((*[RingEntryHdrSize]byte)(slots[off:]), RingOpSeal, secmem.TagSize, 0)
	nonce := make([]byte, secmem.GCMNonceSize)
	PutRingSealNonce(nonce, head, head+uint64(n))
	if err := keys.GMAC(KeyRingSeal, nonce, slots[:off+RingEntryHdrSize], slots[off+RingEntryHdrSize:][:secmem.TagSize]); err != nil {
		panic(err)
	}
	return slots, head + uint64(n)
}

// publish is the rig's ring producer at its rawest: slot bytes laid down
// where the SC's next fetch starts, then the doorbell with tail and the
// end of the last slot's chain (doorbell).
func (r *ctlRig) publish(slots []byte, tail uint64) { r.ring(slots, doorbell(slots, tail)) }

// ring is publish with the doorbell value db as it is. ctlHostMem serves
// a read from the exact address of one write, so a burst must be what
// one SC fetch covers (≤ 15 slots).
func (r *ctlRig) ring(slots []byte, db uint64) {
	r.hostMem[ctlRing+RingHdrSize+r.tail%ctlRingSlots*RingSlotSize] = slots
	r.host.Route(pcie.NewMemWrite(tvmID, ctlBar+RegRingDoorbell, binary.LittleEndian.AppendUint64(nil, db)))
}

// doorbell is the doorbell value the producer rings for slots up to
// tail: its end is where the last slot's chain ends — through the seal,
// when the span is sealed — or the whole slot when that chain does not
// frame.
func doorbell(slots []byte, tail uint64) uint64 {
	last := slots[max(len(slots)-RingSlotSize, 0):]
	end := len(last)
	for rest := last; rest != nil; {
		e, next, ok := CutRingEntry(rest)
		if !ok {
			end = len(last)
			break
		}
		end, rest = len(last)-len(rest)+RingEntryHdrSize+len(e.Data), next
	}
	return RingDoorbell(tail, end)
}

// submit publishes well-framed entries as one sealed span.
func (r *ctlRig) submit(entries ...ringEntry) {
	slots, tail := r.span(entries...)
	r.publish(slots, tail)
	r.tail = tail
}

// span frames entries a slot each from the producer's tail on, and
// seals them; it returns the slots and the doorbell's tail.
func (r *ctlRig) span(entries ...ringEntry) ([]byte, uint64) {
	var slots []byte
	for _, e := range entries {
		slots = append(slots, e.slot()...)
	}
	return sealSpan(r.keys, slots, r.tail)
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

	// Config stream and ring seal provisioning.
	key, nonce := secmem.FreshKey(), secmem.FreshNonce()
	if err := keys.Install(StreamConfig, key, nonce); err != nil {
		t.Fatal(err)
	}
	if err := keys.Install(KeyRingSeal, ctlSealKey, nonce); err != nil {
		t.Fatal(err)
	}
	if err := sc.Params().Activate(StreamConfig); err != nil {
		t.Fatal(err)
	}
	cfgTx, err := secmem.NewStream(key, nonce)
	if err != nil {
		t.Fatal(err)
	}
	r := &ctlRig{sc: sc, keys: keys, mux: mux, host: host, inner: inner, hostMem: hm.m, hostEP: hm, cfgTx: cfgTx, dev: dev}
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
	cpl := r.host.Route(pcie.NewMemRead(tvmID, ctlBar+RegSCStatus, 8, 0))
	if cpl == nil || binary.LittleEndian.Uint64(cpl.Payload)&SCStatusConfigErr == 0 {
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
	msg := &pcie.Packet{Header: pcie.Header{Kind: pcie.MsgD, Requester: tvmID, Address: vendorPM, Length: 1}, Payload: []byte{0x01}}
	msg.Completer = r.sc.DeviceID()
	r.sc.Handle(msg)
	if len(r.dev.msgs) != 1 {
		t.Fatalf("device saw %d messages, want 1", len(r.dev.msgs))
	}
	// A different vendor code is dropped (fail-closed L2).
	other := &pcie.Packet{Header: pcie.Header{Kind: pcie.MsgD, Requester: tvmID, Address: 0x66, Length: 1}, Payload: []byte{0x01}}
	other.Completer = r.sc.DeviceID()
	r.sc.Handle(other)
	if len(r.dev.msgs) != 1 {
		t.Fatal("unruled vendor message forwarded")
	}
	// Rogue-sourced messages never pass L1.
	rogueMsg := &pcie.Packet{Header: pcie.Header{Kind: pcie.MsgD, Requester: rogueID, Address: vendorPM, Length: 1}, Payload: []byte{0x01}}
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
	// The ring-seal key died with the session: a span sealed under it is
	// refused whole at a ring configured again.
	for reg, v := range map[uint64]uint64{RegRingBase: ctlRing, RegRingSize: ctlRingSlots} {
		r.host.Route(pcie.NewMemWrite(tvmID, ctlBar+reg, binary.LittleEndian.AppendUint64(nil, v)))
	}
	rejects := r.sc.Stats().ConfigRejects
	r.publish(sealSpan(ctlSealKeys(t), ringEntry{op: RingOpNotify, arg: 1}.slot(), 0))
	if r.sc.Stats().ConfigRejects != rejects+1 || r.sc.sess.ringHead != 0 {
		t.Fatalf("a span sealed for the torn-down session: %d config rejects, head %d; want it refused",
			r.sc.Stats().ConfigRejects-rejects, r.sc.sess.ringHead)
	}
}

// TestControllerIngestTagsBatch: a tag entry's records land on the
// region its position names, record i at chunk first+i, each under the
// counter the region's FirstCounter gives that chunk. A record of
// another stream, or of a counter off its chunk, and an entry with no
// position are config rejects that store nothing.
func TestControllerIngestTagsBatch(t *testing.T) {
	r := newCtlRig(t)
	if !r.sc.install(Descriptor{ID: 3, Dir: DirH2D, Class: ActionWriteReadProtect, Base: ctlMem,
		Len: 8 * ChunkSize, ChunkSize: ChunkSize, FirstCounter: 100}) {
		t.Fatal("install refused")
	}
	var payload []byte
	for i := uint32(0); i < 5; i++ {
		rec := TagRecord{Stream: StreamH2D, Chunk: 102 + i}
		rec.Tag[0] = byte(i)
		payload = append(payload, rec.AppendMarshal(nil)...)
	}
	r.submit(ringEntry{op: RingOpTags, arg: ArmPosition(3, 2), data: payload})
	if n := r.sc.PendingTags(); n != 5 {
		t.Fatalf("%d records pending, want 5", n)
	}
	r.sc.mu.Lock()
	rec, ok := r.sc.sess.byID(3).take(4)
	r.sc.mu.Unlock()
	if !ok || rec.Tag[0] != 2 || rec.Chunk != 104 {
		t.Fatalf("batched tag lost: %v %v", rec, ok)
	}
	junk := make([]byte, TagRecordSize)
	binary.LittleEndian.PutUint32(junk, 0xdeadbeef)
	for _, e := range []ringEntry{
		{op: RingOpTags, arg: ArmPosition(3, 0), data: junk},                                                        // a garbage stream hash
		{op: RingOpTags, arg: ArmPosition(3, 0), data: TagRecord{Stream: StreamH2D, Chunk: 101}.AppendMarshal(nil)}, // chunk 0's counter is 100
		{op: RingOpTags, data: TagRecord{Stream: StreamH2D, Chunk: 100}.AppendMarshal(nil)},                         // no position
	} {
		rejects := r.sc.Stats().ConfigRejects
		r.submit(e)
		if r.sc.Stats().ConfigRejects != rejects+1 || r.sc.PendingTags() != 4 {
			t.Fatalf("entry %+v: %d config rejects, %d pending; want 1 and 4", e, r.sc.Stats().ConfigRejects-rejects, r.sc.PendingTags())
		}
	}
}

func TestControllerDescriptorOverlapRejected(t *testing.T) {
	r := newCtlRig(t)
	install := func(d Descriptor) {
		r.submit(ringEntry{op: RingOpDesc, data: r.sealed(t, d.AppendMarshal(nil))})
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
		TagRecord{Stream: StreamConfig, Chunk: 0}.AppendMarshal(nil), // what the tag window took
	}
	offsets := []uint64{0x008, 0x010, 0x018, 0x020, 0x040, 0x048, 0x070, 0x0c0, 0x0f8, 0x400, SCBarSize - 8,
		RegSCStatus, 0x050} // read-only, and an offset no register decodes: not writable either
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
	if depth := d.sc.PendingTags(); depth != 0 {
		t.Fatalf("a write to an unknown offset queued %d tag records", depth)
	}
	d.sc.mu.Lock()
	recs := d.sc.sess.byID(w.ID).recs
	d.sc.mu.Unlock()
	for slot, e := range recs {
		if e.ctr != 0 {
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

// TestControllerRingFraming drives processRing directly: a well-framed,
// sealed burst is consumed and the head posted; an oversized length, an
// unknown opcode or a tail further ahead than the ring is deep is a
// desync — one config reject, the status word raised, the head where it
// was, and no entry of the burst dispatched, not even a well-framed slot
// ahead of the bad one. So is a seal that does not check: none at all,
// one with an entry behind it, a wrong tag, a tag over another (head,
// tail), and a span sealed where it sits but for an earlier lap of the
// ring — one lap, a stale slot the producer has not rewritten, or 2^32
// of them — which only the seal's nonce tells apart. A tail behind the
// head is a stale or replayed doorbell: the head is posted again, and
// nothing is rejected or consumed.
func TestControllerRingFraming(t *testing.T) {
	release := ringEntry{op: RingOpRelease, arg: 1}
	oversized := release.slot()
	binary.LittleEndian.PutUint16(oversized[2:], RingMaxData+1)
	keys := ctlSealKeys(t)
	sealed := func() []byte { s, _ := sealSpan(keys, release.slot(), 1); return s }
	// The release's seal sits right behind it, its tag behind that.
	const seal, tag = RingEntryHdrSize, 2 * RingEntryHdrSize
	notLast := sealed()
	notLast[seal+1] |= RingFlagMore
	PutRingEntry((*[RingEntryHdrSize]byte)(notLast[tag+secmem.TagSize:]), RingOpNotify, 0, 1)
	wrongTag := sealed()
	wrongTag[tag] ^= 1
	otherSpan := sealed()
	nonce := make([]byte, secmem.GCMNonceSize)
	PutRingSealNonce(nonce, 0, 2) // as if the span began a slot earlier
	if err := keys.GMAC(KeyRingSeal, nonce, otherSpan[:tag], otherSpan[tag:][:secmem.TagSize]); err != nil {
		t.Fatal(err)
	}
	flagged := func(e ringEntry) []byte { s := e.slot(); s[1] = 0x80; return s } // an unknown flag bit
	const lap = 1 << 32
	playRingCases(t, map[string]ringCase{
		"stale slot from the previous lap": {slots: sealed(), tail: ctlRingSlots + 2, head: ctlRingSlots + 1},
		"oversized length":                 {slots: oversized, tail: 2},
		"opcode 0":                         {slots: ringEntry{}.slot(), tail: 2},
		"opcode 8":                         {slots: ringEntry{op: RingOpSeal}.slot(), tail: 2},
		"opcode 9":                         {slots: ringEntry{op: RingOpRun}.slot(), tail: 2},
		"opcode 10":                        {slots: ringEntry{op: RingOpRun + 1}.slot(), tail: 2},
		"bad entry second":                 {slots: append(ringEntry{op: RingOpNotify}.slot(), flagged(release)...), tail: 3},
		"bad slot last":                    {slots: append(release.slot(), flagged(ringEntry{op: RingOpNotify})...), tail: 3},
		"tail behind head":                 {slots: release.slot(), tail: 0},
		"tail past ring":                   {slots: release.slot(), tail: 1 + ctlRingSlots + 1},
		"no seal":                          {slots: release.slot(), tail: 2},
		"seal not last":                    {slots: notLast, tail: 2},
		"wrong tag":                        {slots: wrongTag, tail: 2},
		"seal over another (head, tail)":   {slots: otherSpan, tail: 2},
		"replayed a lap of 2^32 on":        {slots: sealed(), tail: lap + 2, head: lap + 1},
		// The doorbell's end: one byte short of the seal's tag, none, and
		// a byte past the slot.
		"end cutting the seal": {slots: sealed(), tail: 2, db: RingDoorbell(2, tag+secmem.TagSize-1)},
		"end 0":                {slots: sealed(), tail: 2, db: RingDoorbell(2, 0)},
		"end past the slot":    {slots: sealed(), tail: 2, db: RingDoorbell(2, RingSlotSize+1)},
	})
}

// ctlSealKeys is a key store holding the rigs' ring-seal key, for seals
// a test makes before its rig exists.
func ctlSealKeys(t testing.TB) *secmem.KeyStore {
	keys := secmem.NewKeyStore()
	if err := keys.Install(KeyRingSeal, ctlSealKey, secmem.FreshNonce()); err != nil {
		t.Fatal(err)
	}
	return keys
}

// TestControllerRingPackedFraming: the entries a slot chains by their
// more bits are framed one by one, and a chain that breaks anywhere is a
// desync like a bad slot — nothing of the burst dispatched, the release
// chained ahead of the break included. So is a sealed chain whose second
// entry was edited after sealing: it frames, and the seal refuses it. A
// well-framed chain is consumed whole: the release behind a notify is
// dispatched.
func TestControllerRingPackedFraming(t *testing.T) {
	release, notify := ringEntry{op: RingOpRelease, arg: 1}, ringEntry{op: RingOpNotify, arg: 1}
	// A rule entry long enough to leave 8 bytes of the slot behind it.
	filler := ringEntry{op: RingOpRule, data: make([]byte, RingSlotSize-2*RingEntryHdrSize-8)}
	noRoom := packed(release, filler)
	noRoom[RingEntryHdrSize+1] |= RingFlagMore
	pastSlot := packed(release, notify)
	binary.LittleEndian.PutUint16(pastSlot[RingEntryHdrSize+2:], RingSlotSize-2*RingEntryHdrSize+1)
	edited, _ := sealSpan(ctlSealKeys(t), packed(release, notify), 1)
	edited[RingEntryHdrSize+4] ^= 1 // the notify's arg
	flagged := packed(release, notify)
	flagged[RingEntryHdrSize+1] = 0x80
	opZero := packed(release)
	opZero[1] = RingFlagMore

	r := newRingRig(t)
	r.publish(sealSpan(r.keys, packed(notify, release), 1))
	if st := r.sc.Stats(); st.ConfigRejects != 0 || r.sc.sess.ringHead != 2 || r.sc.Regions() != 0 {
		t.Fatalf("clean chain: %d config rejects, head %d, %d regions; want it consumed whole", st.ConfigRejects, r.sc.sess.ringHead, r.sc.Regions())
	}
	playRingCases(t, map[string]ringCase{
		"more bit, no header room":           {slots: noRoom, tail: 2},
		"length past the slot":               {slots: pastSlot, tail: 2},
		"second entry edited after the seal": {slots: edited, tail: 2},
		"unknown flag bit":                   {slots: flagged, tail: 2},
		"op 0 behind a set more bit":         {slots: opZero, tail: 2},
	})
}

// ringCase is slot bytes published behind one clean burst, and the
// doorbell's tail — or, when db is set, the doorbell's value as it is;
// head, when set, is where the SC's head is moved first, as if that many
// slots had been consumed.
type ringCase struct {
	slots          []byte
	tail, head, db uint64
}

// newRingRig is a rig whose first burst, at ring index 0, installed region 1.
func newRingRig(t *testing.T) *ctlRig {
	r := newCtlRig(t)
	r.submit(ringEntry{op: RingOpDesc, data: r.sealed(t, Descriptor{ID: 1, Dir: DirH2D,
		Class: ActionWriteReadProtect, Base: ctlMem, Len: 0x1000, ChunkSize: ChunkSize}.AppendMarshal(nil))})
	return r
}

// playRingCases plays each case on a newRingRig. A case whose tail is
// behind the head must be re-reaped, any other refused whole.
func playRingCases(t *testing.T, cases map[string]ringCase) {
	word := func(r *ctlRig, off uint64) uint64 {
		if b := r.hostMem[ctlRing+off]; len(b) == 8 {
			return binary.LittleEndian.Uint64(b)
		}
		return 0
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			r := newRingRig(t)
			if r.sc.Regions() != 1 || word(r, 0) != 1 || word(r, 8) != 0 {
				t.Fatalf("clean burst: %d regions, head word %d, status %d", r.sc.Regions(), word(r, 0), word(r, 8))
			}
			rejects, status, head := uint64(1), uint64(RingStatusDesync), uint64(1)
			if c.tail == 0 { // stale: re-reaped, its head word posted again
				rejects, status = 0, 0
				delete(r.hostMem, ctlRing)
			}
			if c.head != 0 {
				head, r.sc.sess.ringHead = c.head, c.head
			}
			if c.db == 0 {
				c.db = doorbell(c.slots, c.tail)
			}
			r.ring(c.slots, c.db)
			if st := r.sc.Stats(); st.ConfigRejects != rejects || word(r, 8) != status || r.sc.sess.ringHead != head || word(r, 0) != 1 {
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
			Base: ctlMem, Len: 0x1000, ChunkSize: ChunkSize}.AppendMarshal(nil),
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
