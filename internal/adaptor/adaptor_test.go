package adaptor

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ccai/internal/core"
	"ccai/internal/mem"
	"ccai/internal/pcie"
	"ccai/internal/secmem"
)

// rig is a compact Adaptor⇄PCIe-SC harness: a host bus with a memory
// bridge, the controller, and an adaptor sharing provisioned keys. The
// xPU side is a scriptable stub on the internal bus.
type rig struct {
	space   *mem.Space
	host    *pcie.Bus
	inner   *pcie.Bus
	sc      *core.Controller
	adaptor *Adaptor
	iommu   *mem.IOMMU
}

const (
	tvmID    = 0x0008 // 00:01.0
	scBar    = 0xd010_0000
	xpuBar   = 0xd000_0000
	shBase   = 0x8000_0000
	shSize   = 32 << 20
	rigDevID = 0x1000 // 02:00.0... computed below instead
)

type memBridge struct {
	space *mem.Space
	iommu *mem.IOMMU
}

func (m *memBridge) DeviceID() pcie.ID { return pcie.MakeID(0, 0, 0) }
func (m *memBridge) Handle(p *pcie.Packet) *pcie.Packet {
	switch p.Kind {
	case pcie.MRd:
		if !m.iommu.Check(p.Requester, p.Address, int64(p.Length), false) {
			return pcie.NewCompletion(p, m.DeviceID(), pcie.CplCA, nil)
		}
		data, err := m.space.Read(p.Address, int64(p.Length))
		if err != nil {
			return pcie.NewCompletion(p, m.DeviceID(), pcie.CplUR, nil)
		}
		return pcie.NewCompletion(p, m.DeviceID(), pcie.CplSuccess, data)
	case pcie.MWr:
		if m.iommu.Check(p.Requester, p.Address, int64(len(p.Payload)), true) {
			_ = m.space.Write(p.Address, p.Payload)
		}
	}
	return nil
}

// stubXPU answers MMIO on the internal bus and exposes helpers that
// issue DMA through the SC like a real device.
type stubXPU struct {
	id   pcie.ID
	regs map[uint64]uint64
	up   func(p *pcie.Packet) *pcie.Packet
}

func (s *stubXPU) DeviceID() pcie.ID { return s.id }
func (s *stubXPU) Handle(p *pcie.Packet) *pcie.Packet {
	switch p.Kind {
	case pcie.MWr:
		var tmp [8]byte
		copy(tmp[:], p.Payload)
		s.regs[p.Address-xpuBar] = binary.LittleEndian.Uint64(tmp[:])
		return nil
	case pcie.MRd:
		buf := make([]byte, p.Length)
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], s.regs[p.Address-xpuBar])
		copy(buf, tmp[:])
		return pcie.NewCompletion(p, s.id, pcie.CplSuccess, buf)
	}
	return nil
}

// dmaRead reads in MaxReadReq requests, as a device's DMA engine does
// (xpu.Device.dmaReadInto).
func (s *stubXPU) dmaRead(addr uint64, n int64) ([]byte, bool) {
	out := make([]byte, 0, n)
	for n > 0 {
		chunk := int64(pcie.MaxReadReq)
		if n < chunk {
			chunk = n
		}
		cpl := s.up(pcie.NewMemRead(s.id, addr, uint32(chunk), 0))
		if cpl == nil || cpl.Status != pcie.CplSuccess {
			return nil, false
		}
		out = append(out, cpl.Payload...)
		addr += uint64(chunk)
		n -= chunk
	}
	return out, true
}

// dmaWrite posts data in MaxReadReq bursts, as a device behind a PCIe-SC
// does (xpu.Device.SetWriteBurst).
func (s *stubXPU) dmaWrite(addr uint64, data []byte) {
	for len(data) > 0 {
		chunk := pcie.MaxReadReq
		if len(data) < chunk {
			chunk = len(data)
		}
		s.up(pcie.NewMemWrite(s.id, addr, data[:chunk]))
		addr += uint64(chunk)
		data = data[chunk:]
	}
}

func newRig(t testing.TB) (*rig, *stubXPU) {
	t.Helper()
	space := mem.NewSpace()
	if err := space.AddRegion(SharedRegion, shBase, shSize); err != nil {
		t.Fatal(err)
	}
	iommu := mem.NewIOMMU()
	host := pcie.NewBus("host")
	inner := pcie.NewBus("internal")
	tvm := pcie.MakeID(0, 1, 0)
	scID := pcie.MakeID(1, 0, 0)
	xpuID := pcie.MakeID(2, 0, 0)

	bridge := &memBridge{space: space, iommu: iommu}
	host.Attach(bridge)
	if err := host.Claim(bridge.DeviceID(), pcie.Region{Base: shBase, Size: shSize, Name: "shared"}); err != nil {
		t.Fatal(err)
	}
	iommu.Map(scID, shBase, shSize, mem.PermRead|mem.PermWrite)

	scKeys := secmem.NewKeyStore()
	sc := core.NewController(scID, pcie.Region{Base: scBar, Size: core.SCBarSize}, scKeys)
	// The production shape: the SC's host-side presence is a one-unit
	// Mux, which pins the TVM.
	unit := &core.MuxUnit{Ctrl: sc, Bar: pcie.Region{Base: scBar, Size: core.SCBarSize, Name: "pcie-sc"},
		Window: pcie.Region{Base: xpuBar, Size: 0x1000, Name: "xpu-window"}, XPU: xpuID, TVM: tvm}
	sc.Attach(inner, unit.Window, host)
	mux := core.NewMux(scID)
	if err := mux.AddUnit(unit); err != nil {
		t.Fatal(err)
	}
	host.Attach(mux)
	for _, r := range []pcie.Region{unit.Bar, unit.Window} {
		if err := host.Claim(scID, r); err != nil {
			t.Fatal(err)
		}
	}

	dev := &stubXPU{id: xpuID, regs: make(map[uint64]uint64)}
	inner.Attach(dev)
	if err := inner.Claim(xpuID, pcie.Region{Base: xpuBar, Size: 0x1000}); err != nil {
		t.Fatal(err)
	}
	dev.up = sc.HandleFromDevice

	// Boot rules: TVM control traffic + xPU DMA.
	for _, r := range core.L1Screen(1, tvm) {
		sc.Filter().InstallL1(r)
	}
	for _, r := range core.L1Screen(10, xpuID) {
		sc.Filter().InstallL1(r)
	}
	sc.Filter().InstallL2(core.Rule{ID: 20, Mask: core.MatchKind | core.MatchRequester | core.MatchAddr,
		Kind: pcie.MWr, Requester: tvm, AddrLo: xpuBar, AddrHi: xpuBar + 0x1000, Action: core.ActionWriteProtect})
	sc.Filter().InstallL2(core.Rule{ID: 21, Mask: core.MatchKind | core.MatchRequester | core.MatchAddr,
		Kind: pcie.MRd, Requester: tvm, AddrLo: xpuBar, AddrHi: xpuBar + 0x1000, Action: core.ActionPassThrough})
	for _, k := range []pcie.Kind{pcie.MRd, pcie.MWr} {
		sc.Filter().InstallL2(core.Rule{ID: 22, Mask: core.MatchKind | core.MatchRequester | core.MatchAddr,
			Kind: k, Requester: xpuID, AddrLo: shBase, AddrHi: shBase + shSize, Action: core.ActionWriteReadProtect})
	}

	// Shared key material.
	tvmKeys := secmem.NewKeyStore()
	for _, s := range []string{core.StreamH2D, core.StreamD2H, core.StreamConfig, core.KeyRingSeal} {
		key, nonce := secmem.FreshKey(), secmem.FreshNonce()
		if err := scKeys.Install(s, key, nonce); err != nil {
			t.Fatal(err)
		}
		if err := tvmKeys.Install(s, key, nonce); err != nil {
			t.Fatal(err)
		}
		if s != core.KeyRingSeal {
			if err := sc.Params().Activate(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	a := New(tvm, host, space, tvmKeys, scBar, xpuBar, SharedRegion)
	if err := a.HWInit(); err != nil {
		t.Fatal(err)
	}
	return &rig{space: space, host: host, inner: inner, sc: sc, adaptor: a, iommu: iommu}, dev
}

// forge puts one entry of the test's choosing at the ring's tail,
// sealed and published like any burst: what a TVM that wrote it would
// send. The host itself cannot get an entry past the span's seal.
func (r *rig) forge(t *testing.T, op uint8, arg uint64, data []byte) {
	t.Helper()
	a := r.adaptor
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.ringPush(op, arg, data); err != nil {
		t.Fatal(err)
	}
	if err := a.flushRingLocked(); err != nil {
		t.Fatal(err)
	}
}

// publish rings the doorbell for what staging queued, as the submission
// that uses the regions would, so the SC and the device see them.
func (r *rig) publish(t testing.TB) {
	t.Helper()
	if err := r.adaptor.Publish(); err != nil {
		t.Fatal(err)
	}
}

// forgeSealed is forge for a payload sealed under the session's config
// stream: what only the TVM could send.
func (r *rig) forgeSealed(t *testing.T, op uint8, pt []byte) {
	t.Helper()
	a := r.adaptor
	a.mu.Lock()
	sealed, err := a.config.Seal(pt, nil)
	a.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	r.forge(t, op, 0, core.MarshalBlob(sealed))
}

// TestRingPushPacksUntilPublished: entries share the open slot while
// they fit — 22 bare notifies fit in one, each chained to the next by
// its more bit, the mirror copy kept identical — and the 23rd, with no
// room for its header in the 4 bytes left, opens the next slot. A doorbell
// closes the open slot: the entry pushed after it opens a fresh one and
// the published slot's bytes stay as the SC consumed them.
func TestRingPushPacksUntilPublished(t *testing.T) {
	r, _ := newRig(t)
	a := r.adaptor
	a.mu.Lock()
	defer a.mu.Unlock()
	ring, notifies := a.ring, core.RingSlotSize/core.RingEntryHdrSize
	first := ring.tail
	push := func(n int) {
		for range n {
			if err := a.ringPush(core.RingOpNotify, 7, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	push(notifies)
	slot, mirror := ring.slot(first % ring.slots)
	if ring.tail != first+1 || mirror == nil || !bytes.Equal(slot, mirror) {
		t.Fatalf("%d notifies took %d slots, mirror copy %v; want 1 slot, mirrored", notifies, ring.tail-first, mirror != nil && bytes.Equal(slot, mirror))
	}
	n := 0
	for rest := slot; rest != nil; n++ {
		e, next, ok := core.CutRingEntry(rest)
		if !ok || e.Op != core.RingOpNotify || e.Arg != 7 || (next != nil) != (n < notifies-1) {
			t.Fatalf("entry %d of the slot: %+v, framed %v", n, e, ok)
		}
		rest = next
	}
	push(1)
	if ring.tail != first+2 {
		t.Fatalf("the notify past a full slot left the tail at %d, want %d", ring.tail, first+2)
	}
	if err := a.flushRingLocked(); err != nil {
		t.Fatal(err)
	}
	published, _ := ring.slot((first + 1) % ring.slots)
	before := bytes.Clone(published)
	push(1)
	if ring.tail != first+3 || !bytes.Equal(published, before) {
		t.Fatalf("the notify after a doorbell: tail %d (want %d), published slot rewritten %v", ring.tail, first+3, !bytes.Equal(published, before))
	}
	if err := a.flushRingLocked(); err != nil {
		t.Fatal(err)
	}
}

func TestStageH2DDeviceReadsPlaintext(t *testing.T) {
	r, dev := newRig(t)
	data := make([]byte, 3*BulkChunkSize+1000)
	for i := range data {
		data[i] = byte(i * 11)
	}
	region, err := r.adaptor.StageH2D("weights", data)
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t)
	// The bounce buffer must hold ciphertext, not the data.
	if bytes.Contains(region.Buf.Bytes(), data[:64]) {
		t.Fatal("bounce buffer holds plaintext")
	}
	got, ok := dev.dmaRead(region.Buf.Base(), int64(len(data)))
	if !ok {
		t.Fatal("device DMA read failed")
	}
	if !bytes.Equal(got, data) {
		t.Fatal("device received wrong plaintext")
	}
	if r.sc.Stats().DecryptedChunks != 4 {
		t.Fatalf("decrypted chunks = %d, want 4", r.sc.Stats().DecryptedChunks)
	}
}

func TestD2HRoundTrip(t *testing.T) {
	r, dev := newRig(t)
	region, err := r.adaptor.PrepareD2H("results", 600)
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t)
	result := make([]byte, 600)
	for i := range result {
		result[i] = byte(255 - i)
	}
	dev.dmaWrite(region.Buf.Base(), result)
	got, err := r.adaptor.CollectD2H(region, 600)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, result) {
		t.Fatal("collected result mismatch")
	}
	// Bounce buffer itself must hold ciphertext.
	if bytes.Contains(region.Buf.Bytes(), result[:64]) {
		t.Fatal("result plaintext visible in host memory")
	}
}

// TestD2HProgressMetadataBatching: the SC publishes a D2H region's
// progress into the TVM's metadata page — memory, not a register — so
// the count is there with no MMIO read.
func TestD2HProgressMetadataBatching(t *testing.T) {
	r, dev := newRig(t)
	region, err := r.adaptor.PrepareD2H("res", 2*BulkChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t)
	progress := func() uint64 {
		v, err := r.adaptor.space.ReadUint64(r.adaptor.metaBuf.Base() + uint64(region.Desc.ID)*8)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	readsBefore := r.adaptor.IO().MMIOReads
	if got := progress(); got != 0 {
		t.Fatalf("progress = %d before any write", got)
	}
	dev.dmaWrite(region.Buf.Base(), make([]byte, 2*BulkChunkSize))
	if got := progress(); got != 2 {
		t.Fatalf("progress = %d, want 2 chunks", got)
	}
	if r.adaptor.IO().MMIOReads != readsBefore {
		t.Fatal("progress reached the TVM through MMIO")
	}
}

func TestGuardedWriteReachesDevice(t *testing.T) {
	r, dev := newRig(t)
	if err := r.adaptor.GuardedWrite(0x10, 0xabcd); err != nil {
		t.Fatal(err)
	}
	if dev.regs[0x10] != 0 || r.sc.Stats().VerifiedChunks != 0 {
		t.Fatal("a posted guarded write reached the SC before a doorbell published it")
	}
	if err := r.adaptor.Publish(); err != nil {
		t.Fatal(err)
	}
	if dev.regs[0x10] != 0xabcd {
		t.Fatalf("device register = %#x", dev.regs[0x10])
	}
	if r.sc.Stats().VerifiedChunks != 1 {
		t.Fatal("A3 check not recorded")
	}
	v, err := r.adaptor.DeviceRead(0x10)
	if err != nil || v != 0xabcd {
		t.Fatalf("DeviceRead = %#x, %v", v, err)
	}
}

func TestGuardedWriteSequenceDiscipline(t *testing.T) {
	r, dev := newRig(t)
	for i := uint64(0); i < 5; i++ {
		if err := r.adaptor.GuardedWrite(0x20+8*i, i); err != nil {
			t.Fatal(err)
		}
	}
	// One doorbell publishes the five writes, applied in order.
	writes := r.adaptor.IO().MMIOWrites
	if err := r.adaptor.Publish(); err != nil {
		t.Fatal(err)
	}
	if got := r.adaptor.IO().MMIOWrites - writes; got != 1 {
		t.Fatalf("five guarded writes published with %d MMIO writes, want 1", got)
	}
	for i := uint64(0); i < 5; i++ {
		if dev.regs[0x20+8*i] != i {
			t.Fatalf("register %d = %d", i, dev.regs[0x20+8*i])
		}
	}
	if r.sc.Stats().VerifiedChunks != 5 {
		t.Fatalf("the SC checked %d guarded writes, want 5", r.sc.Stats().VerifiedChunks)
	}
}

// TestInstallRuleTakesEffect: a filter rule sealed under the session's
// config stream and posted on the ring is installed at the SC.
func TestInstallRuleTakesEffect(t *testing.T) {
	r, _ := newRig(t)
	_, l2Before := r.sc.Filter().RuleCount()
	r.forgeSealed(t, core.RingOpRule, core.Rule{
		ID: 99, Mask: core.MatchKind | core.MatchRequester,
		Kind: pcie.MWr, Requester: pcie.MakeID(0, 1, 0), Action: core.ActionPassThrough,
	}.Marshal())
	if _, l2After := r.sc.Filter().RuleCount(); l2After != l2Before+1 {
		t.Fatal("sealed rule not installed")
	}
	if r.sc.Stats().ConfigRejects != 0 {
		t.Fatal("legitimate rule rejected")
	}
}

// TestVerifiedRegionSync: SyncVerified carries each run of consecutive
// slots to the SC as run entries — a wrap splits a run — and the SC
// answers a device read of a whole run, once, from what the entries
// carried: no host fetch, and a slot the host rewrote since reaches
// nobody.
func TestVerifiedRegionSync(t *testing.T) {
	r, dev := newRig(t)
	region, err := r.adaptor.StageVerified("ring", 512, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := range region.Buf.Bytes() {
		region.Buf.Bytes()[i] = byte(i/64 + 1)
	}
	fetches := 0
	r.host.AddTap(pcie.TapFunc(func(p *pcie.Packet) *pcie.Packet {
		if p.Kind == pcie.MRd && p.Address >= region.Buf.Base() && p.Address < region.Buf.Base()+512 {
			fetches++
		}
		return p
	}))
	// sync queues the runs and rings the doorbell they ride; it returns
	// how many runs the SC holds afterwards.
	reg := uint64(0x10)
	sync := func(chunks ...uint32) int {
		t.Helper()
		if err := r.adaptor.SyncVerified(region, chunks); err != nil {
			t.Fatal(err)
		}
		if err := r.adaptor.GuardedWrite(reg, 1); err != nil {
			t.Fatal(err)
		}
		if err := r.adaptor.Publish(); err != nil {
			t.Fatal(err)
		}
		reg += 8
		return r.sc.HeldRuns()
	}
	read := func(slot, n int) bool {
		t.Helper()
		want := bytes.Clone(region.Buf.Bytes()[slot*64 : (slot+n)*64])
		clear(region.Buf.Bytes()[slot*64 : (slot+n)*64]) // the host rewrites the run after its entries went out
		got, ok := dev.dmaRead(region.Buf.Base()+uint64(slot)*64, int64(n)*64)
		copy(region.Buf.Bytes()[slot*64:], want)
		if ok && !bytes.Equal(got, want) {
			t.Fatalf("verified read of slots %d..%d returned other bytes than the entries carried", slot, slot+n-1)
		}
		return ok
	}

	if got := sync(1, 2, 3); got != 1 {
		t.Fatalf("%d runs held for one run of three, want 1", got)
	}
	if !read(1, 3) {
		t.Fatal("a run of three refused")
	}
	// One-shot: a served run needs fresh entries; an unsynced slot never
	// had any.
	if read(1, 3) || read(0, 1) {
		t.Fatal("a served run or an unsynced slot was readable")
	}
	// Whole: half a run is refused and drops the run.
	if got := sync(4, 5, 6, 7); got != 1 {
		t.Fatalf("%d runs held for one run of four, want 1", got)
	}
	if read(4, 2) || read(4, 4) || r.sc.HeldRuns() != 0 {
		t.Fatal("half a run was answered, or left its run behind")
	}
	if sync(4, 5, 6, 7); !read(4, 4) {
		t.Fatal("a run of four synced again was refused")
	}
	// A submission that wraps the region is one run, which the device
	// reads in two.
	if got := sync(6, 7, 0); got != 1 {
		t.Fatalf("%d runs held for a wrapping submission, want 1", got)
	}
	if !read(6, 2) || !read(0, 1) || fetches != 0 || r.sc.HeldRuns() != 0 {
		t.Fatalf("wrapping submission: %d host fetches, %d runs held; want 0 and 0", fetches, r.sc.HeldRuns())
	}
	if st := r.sc.Stats(); st.VerifiedChunks != 3+4+3+4 { // slots served, and four guarded writes
		t.Fatalf("VerifiedChunks = %d, want 14", st.VerifiedChunks)
	}
}

// TestTagBatchingReducesWrites pins what uploading a staged region's tags
// costs in MMIO writes: 16 chunks are 16 tag records in two ring entries
// behind the descriptor, staging posts them without a write of its own,
// and one doorbell publishes descriptor, tags and notify together — one
// write, where a write per record would be 16 and more (that ratio is
// Figure 11's, held in internal/bench). It stays beside the root
// package's wire ledger, which sees the wire but not how many records
// the SC holds pending.
func TestTagBatchingReducesWrites(t *testing.T) {
	r, _ := newRig(t)
	before := r.adaptor.IO().MMIOWrites
	if _, err := r.adaptor.StageH2D("x", make([]byte, 16*BulkChunkSize)); err != nil {
		t.Fatal(err)
	}
	if got := r.adaptor.IO().MMIOWrites - before; got != 0 {
		t.Fatalf("staging 16 chunks cost %d MMIO writes before the doorbell, want 0", got)
	}
	r.publish(t)
	if got := r.adaptor.IO().MMIOWrites - before; got != 1 {
		t.Fatalf("staging 16 chunks and publishing them cost %d MMIO writes, want 1", got)
	}
	if got := r.sc.PendingTags(); got != 16 {
		t.Fatalf("SC holds %d tag records, want 16", got)
	}
}

// TestReleasedAndRepostedTagsLeaveNothingPending: what the SC holds for
// a region goes with the region, and a repost never strands a record. A
// region released before any doorbell read it leaves none of its
// records behind; a repost for a region whose chunks were already read
// stores none — each chunk's accepted record serves the re-read — so
// the SC ends with no record pending and nothing to discard.
func TestReleasedAndRepostedTagsLeaveNothingPending(t *testing.T) {
	r, dev := newRig(t)
	unread, err := r.adaptor.StageH2D("unread", make([]byte, 4*BulkChunkSize))
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t)
	if n := r.sc.PendingTags(); n != 4 {
		t.Fatalf("%d records pending for a staged four-chunk region, want 4", n)
	}
	r.adaptor.ReleaseRegion(unread)
	if n := r.sc.PendingTags(); n != 0 {
		t.Fatalf("%d records pending after the unread region's release", n)
	}
	data := bytes.Repeat([]byte{0x5c}, 4*BulkChunkSize)
	read, err := r.adaptor.StageH2D("read", data)
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t)
	if got, ok := dev.dmaRead(read.Buf.Base(), int64(len(data))); !ok || !bytes.Equal(got, data) {
		t.Fatal("the staged region did not read back")
	}
	r.adaptor.RepostTags(read)
	if n := r.sc.PendingTags(); n != 0 {
		t.Fatalf("%d records pending after a repost for chunks already read", n)
	}
	if got, ok := dev.dmaRead(read.Buf.Base(), int64(len(data))); !ok || !bytes.Equal(got, data) || r.sc.Stats().DuplicateReads != 4 {
		t.Fatalf("re-read after the repost: ok %v, %d duplicate reads; want the data, 4", ok, r.sc.Stats().DuplicateReads)
	}
	r.adaptor.ReleaseRegion(read)
	if n, regions := r.sc.PendingTags(), r.sc.Regions(); n != 0 || regions != 0 {
		t.Fatalf("%d records pending, %d regions after both releases", n, regions)
	}
}

// TestReleaseRegionFreesAndDeregisters: the regions of one call go back
// to the SC with one doorbell, and a released region is no DMA target.
func TestReleaseRegionFreesAndDeregisters(t *testing.T) {
	r, dev := newRig(t)
	region, err := r.adaptor.StageH2D("tmp", make([]byte, 512))
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.adaptor.PrepareD2H("tmp-out", 512)
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t)
	base := region.Buf.Base()
	if r.sc.Regions() != 2 {
		t.Fatalf("regions = %d", r.sc.Regions())
	}
	writes := r.adaptor.IO().MMIOWrites
	r.adaptor.ReleaseRegion(region, out)
	if r.sc.Regions() != 0 {
		t.Fatal("SC still tracks the regions")
	}
	if got := r.adaptor.IO().MMIOWrites - writes; got != 1 {
		t.Fatalf("releasing two regions cost %d MMIO writes, want 1", got)
	}
	if _, ok := dev.dmaRead(base, 256); ok {
		t.Fatal("released region still readable")
	}
}

func TestTeardownDestroysKeysAndRegions(t *testing.T) {
	r, _ := newRig(t)
	if _, err := r.adaptor.StageH2D("x", make([]byte, 256)); err != nil {
		t.Fatal(err)
	}
	r.adaptor.Teardown()
	if r.sc.Params().Active() != 0 || r.sc.Regions() != 0 {
		t.Fatal("teardown incomplete on SC")
	}
	if _, err := r.adaptor.StageH2D("y", make([]byte, 256)); err == nil {
		t.Fatal("adaptor usable after teardown")
	}
}

func TestHWInitRequiresKeys(t *testing.T) {
	space := mem.NewSpace()
	if err := space.AddRegion(SharedRegion, shBase, shSize); err != nil {
		t.Fatal(err)
	}
	a := New(pcie.MakeID(0, 1, 0), pcie.NewBus("h"), space, secmem.NewKeyStore(), scBar, xpuBar, SharedRegion)
	if err := a.HWInit(); err == nil {
		t.Fatal("HWInit succeeded without key material")
	}
}

// TestSCStatusReadable: the SC's status register reads ready to its TVM
// after bring-up.
func TestSCStatusReadable(t *testing.T) {
	r, _ := newRig(t)
	cpl := r.adaptor.bus.Route(pcie.NewMemRead(r.adaptor.id, scBar+core.RegSCStatus, 8, 1))
	if cpl == nil || cpl.Status != pcie.CplSuccess || binary.LittleEndian.Uint64(cpl.Payload)&core.SCStatusReady == 0 {
		t.Fatalf("SC status read: %+v", cpl)
	}
}

// TestRekeyStreamBumpsEpochBothEnds: a stream past the rekey threshold
// rotates when the next staging starts, on both ends, and the staged
// bytes travel under the new key.
func TestRekeyStreamBumpsEpochBothEnds(t *testing.T) {
	r, dev := newRig(t)
	// Traffic before rotation works.
	region1, err := r.adaptor.StageH2D("pre", make([]byte, 512))
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t)
	if _, ok := dev.dmaRead(region1.Buf.Base(), 512); !ok {
		t.Fatal("pre-rekey read failed")
	}
	if err := r.adaptor.ForceStreamCounter(core.StreamH2D, ^uint32(0)-8); err != nil {
		t.Fatal(err)
	}
	data := []byte("post-rekey payload, fresh epoch!")
	region2, err := r.adaptor.StageH2D("post", data)
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t)
	scStream, err := r.sc.Params().Stream(core.StreamH2D)
	if err != nil {
		t.Fatal(err)
	}
	if scStream.Epoch() != 1 || r.adaptor.h2d.Epoch() != 1 {
		t.Fatalf("epochs SC %d, TVM %d after rekey; want 1, 1", scStream.Epoch(), r.adaptor.h2d.Epoch())
	}
	if r.sc.Stats().ConfigRejects != 0 {
		t.Fatal("legitimate rekey rejected")
	}
	// Traffic after rotation works under the new key.
	got, ok := dev.dmaRead(region2.Buf.Base(), int64(len(data)))
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("post-rekey read failed")
	}
}

func TestMaybeRekeyTriggersNearExhaustion(t *testing.T) {
	r, dev := newRig(t)
	// Drive the send counter to the threshold region.
	r.adaptor.h2d.ForceCounter(^uint32(0) - RekeyThreshold/2)
	// The SC replica must agree on the counter for in-order opens, but
	// a rotation resets both sides anyway; stage triggers it.
	data := []byte("still flowing")
	region, err := r.adaptor.StageH2D("x", data)
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t)
	if e, d := r.adaptor.h2d.Epoch(), r.adaptor.d2h.Epoch(); e != 1 || d != 0 {
		t.Fatalf("epochs h2d %d, d2h %d; want only h2d rotated", e, d)
	}
	// End-to-end traffic continues after the implicit rotation.
	got, ok := dev.dmaRead(region.Buf.Base(), int64(len(data)))
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("traffic broken after auto-rekey")
	}
}

// TestRekeyWaitsForStagedRegions: a staging that finds the h2d stream
// past the rekey threshold while an earlier staging's region waits for
// its submission does not rotate the stream — the SC would take that
// region's records under the retiring epoch and refuse the device's read
// of them, as a prefill stages its KV image and then its prompt. The
// first staging after the flush rotates it.
func TestRekeyWaitsForStagedRegions(t *testing.T) {
	r, dev := newRig(t)
	r.adaptor.h2d.ForceCounter(^uint32(0) - RekeyThreshold) // the next seal crosses the threshold
	data := [][]byte{bytes.Repeat([]byte{0x6b}, BulkChunkSize), []byte("the prompt")}
	var staged []*Region
	for _, d := range data {
		region, err := r.adaptor.StageH2D("staged", d)
		if err != nil {
			t.Fatal(err)
		}
		staged = append(staged, region)
	}
	r.publish(t)
	if e := r.adaptor.h2d.Epoch(); e != 0 {
		t.Fatalf("h2d rotated to epoch %d between two stagings for one submission", e)
	}
	for i, region := range staged {
		if got, ok := dev.dmaRead(region.Buf.Base(), int64(len(data[i]))); !ok || !bytes.Equal(got, data[i]) {
			t.Fatalf("staged region %d refused or wrong after the threshold was crossed", i)
		}
	}
	next := []byte("after the flush")
	region, err := r.adaptor.StageH2D("next", next)
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t)
	if e := r.adaptor.h2d.Epoch(); e != 1 {
		t.Fatalf("h2d epoch %d after the next staging, want 1", e)
	}
	if got, ok := dev.dmaRead(region.Buf.Base(), int64(len(next))); !ok || !bytes.Equal(got, next) {
		t.Fatal("traffic broken after the deferred rotation")
	}
}

// TestRekeyCannotRotateConfigStream: a rekey of the config stream,
// sealed under that stream, is refused at the SC, and the stream goes
// on carrying the session's descriptors.
func TestRekeyCannotRotateConfigStream(t *testing.T) {
	r, dev := newRig(t)
	cmd := core.RekeyCommand{Stream: core.StreamConfig, Key: secmem.FreshKey(), Nonce: secmem.FreshNonce()}
	r.forgeSealed(t, core.RingOpRekey, cmd.Marshal())
	if r.sc.Stats().ConfigRejects != 1 {
		t.Fatal("config self-rekey accepted by the SC")
	}
	data := []byte("config stream intact")
	region, err := r.adaptor.StageH2D("after", data)
	if err != nil {
		t.Fatal(err)
	}
	r.publish(t)
	if got, ok := dev.dmaRead(region.Buf.Base(), int64(len(data))); !ok || !bytes.Equal(got, data) {
		t.Fatal("staging failed after the refused rekey")
	}
}

func TestForgedRekeyRejected(t *testing.T) {
	r, _ := newRig(t)
	// An attacker (without the config key) uploads a plaintext rekey
	// command to take over the h2d stream.
	evil := core.RekeyCommand{Stream: core.StreamH2D, Key: secmem.FreshKey(), Nonce: secmem.FreshNonce()}
	r.forge(t, core.RingOpRekey, 0, evil.Marshal())
	if r.sc.Stats().ConfigRejects == 0 {
		t.Fatal("forged rekey not rejected")
	}
	scStream, _ := r.sc.Params().Stream(core.StreamH2D)
	if scStream.Epoch() != 0 {
		t.Fatal("forged rekey rotated the stream")
	}
}

func TestCollectD2HOversizeRejected(t *testing.T) {
	r, _ := newRig(t)
	region, err := r.adaptor.PrepareD2H("res", 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.adaptor.CollectD2H(region, 512); err == nil {
		t.Fatal("oversize collect accepted")
	}
}

func TestPrepareD2HAfterTeardownRejected(t *testing.T) {
	r, _ := newRig(t)
	r.adaptor.Teardown()
	if _, err := r.adaptor.PrepareD2H("res", 256); err == nil {
		t.Fatal("PrepareD2H after teardown accepted")
	}
}
