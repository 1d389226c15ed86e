package core

// Direct tests of the Packet Handler data paths: A2 decrypt-on-read /
// encrypt-on-write, A3 verified reads and guarded MMIO, metadata
// publication, and the §9 Mux. These complement the cross-package
// integration tests by pinning the controller's behaviour in
// isolation.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"ccai/internal/arena"
	"ccai/internal/pcie"
	"ccai/internal/secmem"
)

// dpRig extends ctlRig with full stream provisioning and TVM-side
// stream replicas, so tests can seal/open payloads themselves.
type dpRig struct {
	*ctlRig
	h2dTx *secmem.Stream
	d2hRx *secmem.Stream
}

func newDPRig(t *testing.T) *dpRig {
	t.Helper()
	r := newCtlRig(t)
	d := &dpRig{ctlRig: r}
	for _, s := range []string{StreamH2D, StreamD2H} {
		key, nonce := secmem.FreshKey(), secmem.FreshNonce()
		if err := r.keys.Install(s, key, nonce); err != nil {
			t.Fatal(err)
		}
		if s == StreamH2D {
			d.h2dTx, _ = secmem.NewStream(key, nonce)
		} else {
			d.d2hRx, _ = secmem.NewStream(key, nonce)
		}
		if err := r.sc.Params().Activate(s); err != nil {
			t.Fatal(err)
		}
	}
	// L1 screens for both parties, then device-side DMA rules.
	for _, rule := range L1Screen(1, tvmID) {
		r.sc.Filter().InstallL1(rule)
	}
	for _, rule := range L1Screen(10, r.dev.id) {
		r.sc.Filter().InstallL1(rule)
	}
	for _, k := range []pcie.Kind{pcie.MRd, pcie.MWr} {
		r.sc.Filter().InstallL2(Rule{ID: 30, Mask: MatchKind | MatchRequester | MatchAddr,
			Kind: k, Requester: r.dev.id, AddrLo: ctlMem, AddrHi: ctlMem + ctlMemN, Action: ActionWriteReadProtect})
	}
	// Host-side A3/A4 rules over the device window.
	r.sc.Filter().InstallL2(Rule{ID: 31, Mask: MatchKind | MatchRequester | MatchAddr,
		Kind: pcie.MWr, Requester: tvmID, AddrLo: ctlWin, AddrHi: ctlWin + 0x1000, Action: ActionWriteProtect})
	r.sc.Filter().InstallL2(Rule{ID: 32, Mask: MatchKind | MatchRequester | MatchAddr,
		Kind: pcie.MRd, Requester: tvmID, AddrLo: ctlWin, AddrHi: ctlWin + 0x1000, Action: ActionPassThrough})
	return d
}

// stageH2D seals data into "host memory" and registers the region +
// tags like the Adaptor would.
func (d *dpRig) stageH2D(t *testing.T, base uint64, data []byte) Descriptor {
	t.Helper()
	desc := Descriptor{
		ID: 7, Dir: DirH2D, Class: ActionWriteReadProtect,
		Base: base, Len: uint64(len(data)), ChunkSize: ChunkSize,
		FirstCounter: d.h2dTx.SendCounter() + 1,
	}
	var recs []TagRecord
	for off := 0; off < len(data); off += ChunkSize {
		end := off + ChunkSize
		if end > len(data) {
			end = len(data)
		}
		var aad [8]byte
		desc.PutAAD(&aad, uint32(off/ChunkSize))
		sealed, err := d.h2dTx.Seal(data[off:end], aad[:])
		if err != nil {
			t.Fatal(err)
		}
		d.hostMem[base+uint64(off)] = sealed.Ciphertext
		recs = append(recs, TagRecord{Stream: StreamH2D, Chunk: sealed.Counter, Epoch: sealed.Epoch, Tag: sealed.Tag})
	}
	if !d.sc.install(desc) {
		t.Fatal("install refused")
	}
	d.postTags(desc.ID, 0, recs...)
	return desc
}

// postTags hands recs to the SC as the tag entries the Adaptor queues
// for region id from index first on, through the function a ring tag
// entry reaches.
func (r *ctlRig) postTags(id, first uint32, recs ...TagRecord) {
	for len(recs) > 0 {
		n := min(len(recs), tagSpanRecords)
		var payload []byte
		for _, rec := range recs[:n] {
			payload = rec.AppendMarshal(payload)
		}
		r.sc.ingestTags(ArmPosition(id, first), payload)
		first, recs = first+uint32(n), recs[n:]
	}
}

// pendingAt reports whether region id holds a pending record at index i.
func (r *ctlRig) pendingAt(id, i uint32) bool {
	r.sc.mu.Lock()
	defer r.sc.mu.Unlock()
	_, ok := r.sc.sess.byID(id).peek(i)
	return ok
}

// loseTags makes every tag record the SC receives from now on lost in
// flight.
func (r *ctlRig) loseTags() { r.sc.SetTagFaultHook(func(TagRecord) bool { return true }) }

func TestDecryptReadHappyPath(t *testing.T) {
	d := newDPRig(t)
	data := bytes.Repeat([]byte("0123456789abcdef"), 32) // 512 B = 2 chunks
	d.stageH2D(t, ctlMem+0x1000, data)
	for off := 0; off < len(data); off += ChunkSize {
		cpl := d.sc.HandleFromDevice(pcie.NewMemRead(d.dev.id, ctlMem+0x1000+uint64(off), ChunkSize, 0))
		if cpl == nil || cpl.Status != pcie.CplSuccess {
			t.Fatalf("chunk at %d rejected", off)
		}
		if !bytes.Equal(cpl.Payload, data[off:off+ChunkSize]) {
			t.Fatalf("chunk at %d decrypted wrong", off)
		}
	}
	if d.sc.Stats().DecryptedChunks != 2 {
		t.Fatalf("decrypted = %d", d.sc.Stats().DecryptedChunks)
	}
}

func TestDecryptReadMissingTagFails(t *testing.T) {
	d := newDPRig(t)
	data := make([]byte, ChunkSize)
	d.loseTags() // tags never arrived
	d.stageH2D(t, ctlMem+0x1000, data)
	cpl := d.sc.HandleFromDevice(pcie.NewMemRead(d.dev.id, ctlMem+0x1000, ChunkSize, 0))
	if cpl != nil && cpl.Status == pcie.CplSuccess {
		t.Fatal("read succeeded without a tag record")
	}
	if d.sc.Stats().AuthFailures == 0 {
		t.Fatal("auth failure not recorded")
	}
}

// TestDecryptReadChunkBoundaryViolation: a step window's slot is sealed
// over what its step carried, not over a whole chunk, so a read that
// straddles two armed slots cannot be decrypted as one unit.
func TestDecryptReadChunkBoundaryViolation(t *testing.T) {
	d := newDPRig(t)
	w := d.installWindow(t, 9, ctlMem+0x1000, 2)
	for slot := range uint32(2) {
		d.arm(w.ID, slot, d.sealSlot(t, w, slot, bytes.Repeat([]byte{byte(slot)}, ChunkSize)))
	}
	cpl := d.sc.HandleFromDevice(pcie.NewMemRead(d.dev.id, w.Base+128, ChunkSize, 0))
	if cpl != nil && cpl.Status == pcie.CplSuccess {
		t.Fatal("boundary-straddling read accepted")
	}
}

func TestDecryptReadCorruptedHostDataFails(t *testing.T) {
	d := newDPRig(t)
	data := make([]byte, ChunkSize)
	desc := d.stageH2D(t, ctlMem+0x1000, data)
	ct := d.hostMem[desc.Base]
	ct[0] ^= 1 // host flips a ciphertext bit at rest
	cpl := d.sc.HandleFromDevice(pcie.NewMemRead(d.dev.id, desc.Base, ChunkSize, 0))
	if cpl != nil && cpl.Status == pcie.CplSuccess {
		t.Fatal("corrupted ciphertext decrypted")
	}
}

func TestEncryptWriteDepositsCiphertextAndTags(t *testing.T) {
	d := newDPRig(t)
	// A single-chunk region: completing it flushes the buffered tag
	// span and publishes metadata (tags and progress counters are
	// batched, not per-chunk — DESIGN.md §10).
	desc := Descriptor{
		ID: 9, Dir: DirD2H, Class: ActionWriteReadProtect,
		Base: ctlMem + 0x4000, Len: ChunkSize, TagBase: ctlMem + 0x8000, ChunkSize: ChunkSize,
	}
	if !d.sc.install(desc) {
		t.Fatal("install refused")
	}
	result := bytes.Repeat([]byte{0xAB}, ChunkSize)
	d.sc.HandleFromDevice(pcie.NewMemWrite(d.dev.id, desc.Base, result))

	ct := d.hostMem[desc.Base]
	if bytes.Equal(ct, result) {
		t.Fatal("result stored as plaintext")
	}
	recBytes := d.hostMem[desc.TagBase]
	if len(recBytes) != TagRecordSize {
		t.Fatalf("tag record size = %d", len(recBytes))
	}
	// The TVM replica can open it.
	sealed := &secmem.Sealed{
		Counter:    binary.LittleEndian.Uint32(recBytes[4:]),
		Epoch:      binary.LittleEndian.Uint32(recBytes[8:]),
		Ciphertext: ct,
	}
	copy(sealed.Tag[:], recBytes[12:])
	var aad [8]byte
	desc.PutAAD(&aad, 0)
	pt, err := d.d2hRx.Open(sealed, aad[:])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, result) {
		t.Fatal("decrypted result mismatch")
	}
}

func TestEncryptWritePublishesMetadata(t *testing.T) {
	d := newDPRig(t)
	// Progress counters are batched: they reach the metadata buffer at
	// region completion (and every metaPublishEvery chunks), so the
	// region here is exactly the two chunks the test writes.
	desc := Descriptor{
		ID: 3, Dir: DirD2H, Class: ActionWriteReadProtect,
		Base: ctlMem + 0x4000, Len: 2 * ChunkSize, TagBase: ctlMem + 0x8000, ChunkSize: ChunkSize,
	}
	if !d.sc.install(desc) {
		t.Fatal("install refused")
	}
	metaBase := uint64(ctlMem + 0xf000)
	d.host.Route(pcie.NewMemWrite(tvmID, ctlBar+RegMetaBase, le64(metaBase)))
	d.host.Route(pcie.NewMemWrite(tvmID, ctlBar+RegMetaSize, le64(4096)))

	d.sc.HandleFromDevice(pcie.NewMemWrite(d.dev.id, desc.Base, make([]byte, ChunkSize)))
	d.sc.HandleFromDevice(pcie.NewMemWrite(d.dev.id, desc.Base+ChunkSize, make([]byte, ChunkSize)))

	slot := d.hostMem[metaBase+uint64(desc.ID)*8]
	if binary.LittleEndian.Uint64(slot) != 2 {
		t.Fatalf("metadata slot = %v", slot)
	}
	if d.sc.D2HProgress(desc.ID) != 2 {
		t.Fatalf("D2HProgress = %d", d.sc.D2HProgress(desc.ID))
	}
	// Out-of-window region IDs are not published.
	big := Descriptor{ID: 4000, Dir: DirD2H, Class: ActionWriteReadProtect,
		Base: ctlMem + 0x6000, Len: ChunkSize, TagBase: ctlMem + 0x9000, ChunkSize: ChunkSize}
	if !d.sc.install(big) {
		t.Fatal("install refused")
	}
	d.sc.HandleFromDevice(pcie.NewMemWrite(d.dev.id, big.Base, make([]byte, ChunkSize)))
	if _, exists := d.hostMem[metaBase+uint64(big.ID)*8]; exists {
		t.Fatal("out-of-window metadata written")
	}
}

func le64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// guarded is the guarded ring entry of a write of val to reg.
func guarded(reg, val uint64) ringEntry {
	return ringEntry{op: RingOpGuarded, arg: ctlWin + reg, data: le64(val)}
}

// TestGuardedMMIOHappyAndTampered: a guarded entry of a sealed span
// reaches the device. A value tampered in flight breaks the span's seal,
// so the span is refused whole — nothing reaches the device — and the
// same span untampered is consumed. The consumed span replayed at the
// next tail is sealed for the place it was published at, so the seal
// refuses it too; a direct write on the host bus has no seal at all and
// is an auth failure.
func TestGuardedMMIOHappyAndTampered(t *testing.T) {
	d := newDPRig(t)
	d.submit(guarded(0x10, 0x1234))
	if d.dev.regs[0x10] != 0x1234 {
		t.Fatal("guarded write lost")
	}
	refused := func(what string, rejects, verified uint64) {
		t.Helper()
		if st := d.sc.Stats(); st.ConfigRejects != rejects || st.VerifiedChunks != verified || d.sc.sess.ringHead != d.tail {
			t.Fatalf("%s: %d config rejects, %d guarded writes checked, head %d; want it refused whole",
				what, st.ConfigRejects, st.VerifiedChunks, d.sc.sess.ringHead)
		}
	}
	verified := d.sc.Stats().VerifiedChunks
	slots, tail := d.span(guarded(0x18, 0x5678))
	tampered := bytes.Clone(slots)
	tampered[RingEntryHdrSize] ^= 1
	d.publish(tampered, tail)
	refused("tampered span", 1, verified)
	if d.dev.regs[0x18] != 0 {
		t.Fatal("a tampered guarded entry reached the device")
	}
	d.publish(slots, tail)
	d.tail = tail
	if d.dev.regs[0x18] != 0x5678 || d.sc.Stats().VerifiedChunks != verified+1 {
		t.Fatal("the untampered span was not consumed")
	}
	d.dev.regs[0x18] = 0
	d.publish(slots, d.tail+1) // the span's one slot again, at the next ring index
	refused("replayed span", 2, verified+1)
	if d.dev.regs[0x18] != 0 {
		t.Fatal("a replayed guarded entry reached the device")
	}
	failures := d.sc.Stats().AuthFailures
	d.sc.Handle(pcie.NewMemWrite(tvmID, ctlWin+0x28, le64(7)))
	if d.dev.regs[0x28] != 0 || d.sc.Stats().AuthFailures != failures+1 {
		t.Fatal("a direct guarded write was not refused")
	}
}

func TestGuardedMMIOEnvCheck(t *testing.T) {
	d := newDPRig(t)
	d.sc.Guard().AddCheck(MMIOCheck{Reg: 0x28, Valid: func(v uint64) bool { return v < 100 }})
	write := func(reg uint64, val uint64) { d.submit(guarded(reg, val)) }
	write(0x28, 42)
	if d.dev.regs[0x28] != 42 {
		t.Fatal("valid value blocked")
	}
	write(0x28, 5000) // sealed, invalid value
	if d.dev.regs[0x28] == 5000 {
		t.Fatal("environment guard bypassed")
	}
	if d.sc.Stats().GuardBlocks != 1 {
		t.Fatalf("guard blocks = %d", d.sc.Stats().GuardBlocks)
	}
}

// a3Rig is a dpRig with one A3 region of 64-byte slots (a command ring)
// whose host-memory image the test owns, and a count of the SC's host
// fetches from it — which the SC, serving held runs, never makes.
type a3Rig struct {
	*dpRig
	desc    Descriptor
	slots   [][]byte
	fetches int
}

func newA3Rig(t *testing.T, nSlots int) *a3Rig {
	t.Helper()
	a := untappedA3Rig(t, nSlots)
	a.host.AddTap(pcie.TapFunc(func(p *pcie.Packet) *pcie.Packet {
		if p.Kind == pcie.MRd && p.Requester == a.sc.DeviceID() && a.desc.Contains(p.Address) {
			a.fetches++
		}
		return p
	}))
	return a
}

// untappedA3Rig is newA3Rig without the fetch counter: no tap on either
// bus.
func untappedA3Rig(t *testing.T, nSlots int) *a3Rig {
	t.Helper()
	a := &a3Rig{dpRig: newDPRig(t), desc: Descriptor{ID: 5, Dir: DirH2D, Class: ActionWriteProtect,
		Base: ctlMem + 0x2000, Len: uint64(nSlots) * 64, ChunkSize: 64}}
	if !a.sc.install(a.desc) {
		t.Fatal("install refused")
	}
	for i := 0; i < nSlots; i++ {
		a.slots = append(a.slots, bytes.Repeat([]byte{byte(i + 1)}, 64))
	}
	a.sync()
	return a
}

// sync lays the slots down as contiguous host memory: ctlHostMem serves
// a read from the exact address of one write, so every slot address gets
// the bytes from there to the region's end.
func (a *a3Rig) sync() {
	for i := range a.slots {
		a.hostMem[a.desc.Base+uint64(i)*64] = bytes.Join(a.slots[i:], nil)
	}
}

// runEntries frames the run of n slots from first, going on at slot 0
// past the last, as the Adaptor's SyncVerified does — entries of up to
// three slots, each headed by claim, the run length it names. A first
// slot past the last stays where it is.
func runEntries(id, first, n, claim uint32, slots [][]byte) []ringEntry {
	var es []ringEntry
	ring := uint32(len(slots))
	for at := uint32(0); at < n; at += 3 {
		data := binary.LittleEndian.AppendUint32(nil, claim)
		for j := at; j < min(at+3, n); j++ {
			data = append(data, slots[(first+j)%ring]...)
		}
		pos := first + at
		if first < ring {
			pos %= ring
		}
		es = append(es, ringEntry{op: RingOpRun, arg: ArmPosition(id, pos), data: data})
	}
	return es
}

// post hands the SC run [first, first+n), as the slots are now, through
// the function a ring run entry reaches; claim is the run length the
// entries name.
func (a *a3Rig) post(first, n, claim uint32) {
	for _, e := range runEntries(a.desc.ID, first, n, claim, a.slots) {
		a.sc.ringDispatch(e.op, e.arg, e.data)
	}
}

// heldAt reports whether the region holds a run starting at slot first.
func (a *a3Rig) heldAt(first uint32) bool {
	a.sc.mu.Lock()
	defer a.sc.mu.Unlock()
	r := a.sc.sess.of(a.desc)
	return r != nil && r.runAt(first) >= 0
}

// readAt is the device reading n bytes at byte offset off of the region;
// nil when refused.
func (a *a3Rig) readAt(off, n uint64) []byte {
	cpl := a.sc.HandleFromDevice(pcie.NewMemRead(a.dev.id, a.desc.Base+off, uint32(n), 0))
	if cpl == nil || cpl.Status != pcie.CplSuccess {
		return nil
	}
	return cpl.Payload
}

// read is the device reading k slots from slot on; nil when refused.
func (a *a3Rig) read(slot, k uint32) []byte { return a.readAt(uint64(slot)*64, uint64(k)*64) }

// TestVerifiedReadPath: a read covering exactly a held run is answered
// from the run, byte-exact, with no host fetch — 64 B at a time over
// one-slot runs, 128 B at once over two-slot runs, a 64-slot run in one
// 4 KiB read — and the SC keeps nothing: the run is dropped, so the run
// read again is an auth failure.
func TestVerifiedReadPath(t *testing.T) {
	for name, c := range map[string]struct{ slots, run uint32 }{
		"64 B at a time": {4, 1},
		"128 B at once":  {4, 2},
		"4 KiB at once":  {MaxRunSlots, MaxRunSlots},
	} {
		t.Run(name, func(t *testing.T) {
			a := newA3Rig(t, int(c.slots))
			for first := uint32(0); first < c.slots; first += c.run {
				a.post(first, c.run, c.run)
			}
			for first := uint32(0); first < c.slots; first += c.run {
				want := bytes.Join(a.slots[first:first+c.run], nil)
				if got := a.read(first, c.run); !bytes.Equal(got, want) {
					t.Fatalf("read of %d slots at %d: %x", c.run, first, got)
				}
			}
			if st := a.sc.Stats(); a.fetches != 0 || st.VerifiedChunks != uint64(c.slots) || st.AuthFailures != 0 || st.ConfigRejects != 0 {
				t.Fatalf("%d host fetches, %d verified slots, %d auth failures, %d config rejects; want 0, %d, 0, 0",
					a.fetches, st.VerifiedChunks, st.AuthFailures, st.ConfigRejects, c.slots)
			}
			if a.read(0, c.run) != nil || a.sc.Stats().AuthFailures != 1 {
				t.Fatalf("served run read again: %d auth failures; want 1 (refused)", a.sc.Stats().AuthFailures)
			}
		})
	}
}

// TestVerifiedReadRejects: the SC answers no read but a whole held run.
// Over runs [0,3) and [3,5) of an 8-slot region (128 slots for the
// oversized read), each read below is exactly one auth failure, with no
// host fetch and nothing handed to the device.
func TestVerifiedReadRejects(t *testing.T) {
	const over = pcie.MaxReadReq/64 + 1
	for name, c := range map[string]struct {
		slots   int
		prep    func(a *a3Rig) // runs before the counts are taken
		off, n  uint64         // the read, in bytes
		nothing bool           // no run may remain at the read's first slot
	}{
		"partial run":          {off: 0, n: 2 * 64, nothing: true},
		"straddling two runs":  {off: 0, n: 5 * 64, nothing: true},
		"longer than the run":  {off: 3 * 64, n: 3 * 64, nothing: true},
		"re-read after served": {prep: func(a *a3Rig) { a.read(0, 3) }, off: 0, n: 3 * 64, nothing: true},
		"unaligned start":      {off: 32, n: 3 * 64},
		"ragged length":        {off: 0, n: 3*64 - 1},
		"past the region end":  {prep: func(a *a3Rig) { a.post(6, 2, 2) }, off: 6 * 64, n: 3 * 64},
		"no record":            {off: 5 * 64, n: 64, nothing: true},
		"over MaxReadReq":      {slots: 128, prep: func(a *a3Rig) { a.post(0, over, over) }, off: 0, n: over * 64},
	} {
		t.Run(name, func(t *testing.T) {
			a := newA3Rig(t, max(c.slots, 8))
			a.post(0, 3, 3)
			a.post(3, 2, 2)
			if c.prep != nil {
				c.prep(a)
			}
			st := a.sc.Stats()
			if got := a.readAt(c.off, c.n); got != nil {
				t.Fatalf("served %d bytes", len(got))
			}
			after := a.sc.Stats()
			if a.fetches != 0 || after.AuthFailures != st.AuthFailures+1 || after.VerifiedChunks != st.VerifiedChunks {
				t.Fatalf("%d host fetches, %d auth failures, %d verified slots; want 0, 1, 0",
					a.fetches, after.AuthFailures-st.AuthFailures, after.VerifiedChunks-st.VerifiedChunks)
			}
			if c.nothing && a.heldAt(uint32(c.off/64)) {
				t.Fatal("the run the read found is still held")
			}
		})
	}
}

// TestVerifiedReadWrapsRegion: a run that goes on past the region's
// end at slot 0 — its entries carry it whole, the wrap costing no entry
// — is held once and served in the two reads the device cuts it into:
// to the region's end, then from slot 0. Its second read first finds no
// run and leaves it held; part of its first read drops it. Each refusal
// is an auth failure.
func TestVerifiedReadWrapsRegion(t *testing.T) {
	a := newA3Rig(t, 8)
	if es := runEntries(a.desc.ID, 6, 3, 3, a.slots); len(es) != 1 {
		t.Fatalf("a three-slot run wrapping the region rides %d entries, want 1", len(es))
	}
	a.post(6, 3, 3)
	if got := a.read(6, 2); !bytes.Equal(got, bytes.Join(a.slots[6:8], nil)) {
		t.Fatalf("read to the region's end: %x", got)
	}
	if got := a.read(0, 1); !bytes.Equal(got, a.slots[0]) || a.heldAt(0) || a.heldAt(6) {
		t.Fatalf("read from slot 0: %x, run still held %v", got, a.heldAt(0) || a.heldAt(6))
	}
	if st := a.sc.Stats(); st.VerifiedChunks != 3 || st.AuthFailures != 0 || a.fetches != 0 {
		t.Fatalf("%d verified slots, %d auth failures, %d host fetches; want 3, 0, 0", st.VerifiedChunks, st.AuthFailures, a.fetches)
	}
	a.post(6, 3, 3)
	if a.read(0, 1) != nil || !a.heldAt(6) {
		t.Fatal("the second read first was served, or dropped the run")
	}
	if a.read(6, 1) != nil || a.heldAt(6) || a.read(6, 2) != nil {
		t.Fatal("part of the first read was served, or left the run held")
	}
	if st := a.sc.Stats(); st.AuthFailures != 3 || st.VerifiedChunks != 3 {
		t.Fatalf("%d auth failures, %d verified slots; want 3 and 3", st.AuthFailures, st.VerifiedChunks)
	}
}

// TestVerifiedRunEntriesThroughRing: run entries reach the SC inside a
// sealed span. A run at the A3 region is held and served whole; an entry
// positioned at a step window, at no region, or naming a run longer than
// MaxRunSlots is one config reject each, and holds nothing.
func TestVerifiedRunEntriesThroughRing(t *testing.T) {
	a := newA3Rig(t, 8)
	w := a.installWindow(t, 9, ctlMem+0x4000, 4)
	a.submit(runEntries(a.desc.ID, 0, 5, 5, a.slots)...)
	if got := a.read(0, 5); !bytes.Equal(got, bytes.Join(a.slots[:5], nil)) {
		t.Fatalf("run [0,5) through the ring: %x", got)
	}
	refused := []ringEntry{
		{op: RingOpRun, arg: ArmPosition(w.ID, 0), data: runEntries(a.desc.ID, 0, 1, 1, a.slots)[0].data},
		{op: RingOpRun, arg: ArmPosition(99, 0), data: runEntries(a.desc.ID, 0, 1, 1, a.slots)[0].data},
		runEntries(a.desc.ID, 5, 1, MaxRunSlots+1, a.slots)[0],
	}
	for i, e := range refused {
		rejects := a.sc.Stats().ConfigRejects
		a.submit(e)
		if a.sc.Stats().ConfigRejects != rejects+1 || a.heldAt(5) || a.heldAt(0) {
			t.Fatalf("entry %d: %d config rejects, runs held; want 1 and none", i, a.sc.Stats().ConfigRejects-rejects)
		}
	}
}

// TestVerifiedRunTamperRejectsWholeRun: a bit flipped in any slot of a
// three-slot run's entry on its way to the SC fails the span's seal: the
// SC refuses the span whole and holds nothing, so none of the three slots
// reaches the device — not even the untouched ones. A bit flipped in host
// memory after the entry went out reaches nobody: the device gets the
// bytes the seal covered.
func TestVerifiedRunTamperRejectsWholeRun(t *testing.T) {
	for flipped := 0; flipped < 3; flipped++ {
		a := newA3Rig(t, 4)
		slots, tail := a.span(runEntries(a.desc.ID, 0, 3, 3, a.slots)...)
		slots[RingEntryHdrSize+RunHdrSize+flipped*64+17] ^= 4
		a.publish(slots, tail)
		if a.read(0, 3) != nil {
			t.Fatalf("bit flipped in slot %d: the run was served", flipped)
		}
		if st := a.sc.Stats(); st.VerifiedChunks != 0 || st.AuthFailures != 1 || a.fetches != 0 || a.sc.sess.ringHead == tail {
			t.Fatalf("bit flipped in slot %d: %d verified, %d auth failures, %d fetches, span consumed %v; want 0, 1, 0, false",
				flipped, st.VerifiedChunks, st.AuthFailures, a.fetches, a.sc.sess.ringHead == tail)
		}
	}
	a := newA3Rig(t, 4)
	want := bytes.Join(a.slots[:3], nil)
	a.submit(runEntries(a.desc.ID, 0, 3, 3, a.slots)...)
	a.slots[1][17] ^= 4
	a.sync()
	if got := a.read(0, 3); !bytes.Equal(got, want) || a.fetches != 0 {
		t.Fatalf("host rewrote slot 1 after the entry: served %x with %d fetches; want the sealed bytes, none", got, a.fetches)
	}
}

// TestVerifiedRunMalformedRecord: a run entry positioned past the
// region, or whose run length is zero, longer than the region, or asks
// for more than one read request or more slots than the SC tracks, is a
// config reject and holds nothing: the reads after it are auth failures,
// with no host fetch.
func TestVerifiedRunMalformedRecord(t *testing.T) {
	for name, c := range map[string]struct{ slots, first, claim uint32 }{
		"length 0":               {8, 0, 0},
		"past the region":        {8, 8, 1},
		"longer than the region": {4, 1, 5},
		"over MaxReadReq":        {128, 0, pcie.MaxReadReq/64 + 1},
		"over MaxRunSlots":       {128, 0, MaxRunSlots + 1},
		"length 2^32-1":          {8, 0, ^uint32(0)},
	} {
		t.Run(name, func(t *testing.T) {
			a := newA3Rig(t, int(c.slots))
			a.post(c.first, 1, c.claim)
			if st := a.sc.Stats(); st.ConfigRejects != 1 || a.heldAt(c.first) {
				t.Fatalf("%d config rejects, run held %v; want 1, false", st.ConfigRejects, a.heldAt(c.first))
			}
			for i := uint64(1); i <= 2; i++ {
				if a.read(c.first, 1) != nil {
					t.Fatal("served")
				}
				if st := a.sc.Stats(); st.AuthFailures != i || a.fetches != 0 {
					t.Fatalf("read %d: %d auth failures, %d host fetches; want %d and 0", i, st.AuthFailures, a.fetches, i)
				}
			}
		})
	}
}

// TestVerifiedReadUntappedHost: recycling as on a platform, over buses no
// tap ever saw, the SC serves a held run from an arena buffer. A whole
// run is served byte-exact, once — as its entry carried it, though the
// host rewrote its slots since — and nothing else is.
func TestVerifiedReadUntappedHost(t *testing.T) {
	a := untappedA3Rig(t, 8)
	a.sc.EnableDatapathRecycling()
	want := bytes.Join(a.slots[3:5], nil)
	a.post(0, 3, 3)
	a.post(3, 2, 2)
	a.slots[4][9] ^= 1 // after run [3,5) went out
	a.sync()
	if got := a.read(0, 3); !bytes.Equal(got, bytes.Join(a.slots[0:3], nil)) {
		t.Fatalf("run [0,3): %x", got)
	}
	if got := a.read(3, 2); !bytes.Equal(got, want) {
		t.Fatalf("run [3,5): %x; want the bytes its entry carried", got)
	}
	if a.read(0, 3) != nil || a.read(3, 2) != nil {
		t.Fatal("a served run was answered again")
	}
	if st := a.sc.Stats(); st.VerifiedChunks != 5 || st.AuthFailures != 2 || !a.host.Untapped() {
		t.Fatalf("%d verified slots, %d auth failures, host untapped %v; want 5, 2, true",
			st.VerifiedChunks, st.AuthFailures, a.host.Untapped())
	}
}

// TestVerifiedRunFreshRecordWins: a three-slot run is held, the host
// rewrites slot 1, and a fresh run entry carries slots 1–2 (the driver's
// Kick after the device faulted on slot 1). The fresh run drops the held
// run it overlaps: the read of the old run is refused, and the read of
// the fresh one gets the fresh entry's bytes.
func TestVerifiedRunFreshRecordWins(t *testing.T) {
	a := newA3Rig(t, 4)
	a.post(0, 3, 3)
	a.slots[1] = bytes.Repeat([]byte{0xee}, 64) // the host rewrote a pending slot
	a.post(1, 2, 2)
	if a.heldAt(0) || !a.heldAt(1) {
		t.Fatalf("held at 0: %v, at 1: %v; want the fresh run only", a.heldAt(0), a.heldAt(1))
	}
	if a.read(0, 3) != nil {
		t.Fatal("the overlapped run was served")
	}
	if got, want := a.read(1, 2), bytes.Join(a.slots[1:3], nil); !bytes.Equal(got, want) {
		t.Fatalf("slots 1–2 after the fresh entry: %x", got)
	}
	if st := a.sc.Stats(); a.fetches != 0 || st.VerifiedChunks != 2 || st.AuthFailures != 1 {
		t.Fatalf("%d fetches, %d verified, %d auth failures; want 0, 2, 1", a.fetches, st.VerifiedChunks, st.AuthFailures)
	}
}

// TestVerifiedRunDroppedWithRegion: nothing of a held run outlives its
// region. After release or teardown, a region reinstalled under the same
// id holds no run and answers no read of one.
func TestVerifiedRunDroppedWithRegion(t *testing.T) {
	for name, drop := range map[string]func(a *a3Rig){
		"release":  func(a *a3Rig) { a.submit(ringEntry{op: RingOpRelease, arg: uint64(a.desc.ID)}) },
		"teardown": func(a *a3Rig) { a.sc.Teardown() },
	} {
		t.Run(name, func(t *testing.T) {
			a := newA3Rig(t, 4)
			a.post(0, 2, 2)
			a.post(2, 2, 2)
			if a.read(0, 2) == nil {
				t.Fatal("run refused")
			}
			drop(a)
			if !a.sc.install(a.desc) {
				t.Fatal("install refused")
			}
			if a.heldAt(2) || a.read(2, 2) != nil || a.read(0, 2) != nil || a.fetches != 0 {
				t.Fatalf("a held run outlived its region (%d host fetches, want 0)", a.fetches)
			}
		})
	}
}

func TestHandleFromDeviceWrongDirection(t *testing.T) {
	d := newDPRig(t)
	desc := d.stageH2D(t, ctlMem+0x1000, make([]byte, ChunkSize))
	// Writing into an H2D region is a protocol violation.
	failBefore := d.sc.Stats().AuthFailures
	d.sc.HandleFromDevice(pcie.NewMemWrite(d.dev.id, desc.Base, make([]byte, 64)))
	if d.sc.Stats().AuthFailures != failBefore+1 {
		t.Fatal("wrong-direction access not rejected")
	}
}

// --- Mux ------------------------------------------------------------------

func TestMuxRoutesByAddressAndRequester(t *testing.T) {
	// The rig's SC sits behind a one-unit mux, as every production SC
	// does; route-level behaviour is what matters here.
	d := newDPRig(t)
	// In-window traffic dispatches to the unit (pass-through read rule
	// installed by newDPRig).
	d.dev.regs[0x40] = 0x42
	cpl := d.mux.Handle(pcie.NewMemRead(tvmID, ctlWin+0x40, 8, 0))
	if cpl == nil || cpl.Status != pcie.CplSuccess || binary.LittleEndian.Uint64(cpl.Payload) != 0x42 {
		t.Fatalf("mux window dispatch failed: %v", cpl)
	}
	// Outside every window: UR.
	cpl = d.mux.Handle(pcie.NewMemRead(tvmID, 0xeeee_0000, 8, 0))
	if cpl == nil || cpl.Status != pcie.CplUR {
		t.Fatal("out-of-window access not rejected")
	}
	// The unit's control BAR answers its owner only: a teardown write
	// from another requester is rejected and counted.
	rejects := d.sc.Stats().ConfigRejects
	d.mux.Handle(pcie.NewMemWrite(pcie.MakeID(0, 9, 0), ctlBar+RegTeardown, []byte{1, 0, 0, 0, 0, 0, 0, 0}))
	if got := d.sc.Stats(); got.ConfigRejects != rejects+1 || got.Teardowns != 0 {
		t.Fatalf("non-owner control write: config rejects %d → %d, teardowns %d",
			rejects, got.ConfigRejects, got.Teardowns)
	}
}

func TestActionAndPermissionStrings(t *testing.T) {
	for _, a := range []Action{ActionDrop, ActionWriteReadProtect, ActionWriteProtect, ActionPassThrough, actionToL2} {
		if a.String() == "" {
			t.Fatal("empty action string")
		}
	}
	for _, p := range []Permission{Prohibited, WriteReadProtected, WriteProtected, FullAccessible} {
		if p.String() == "" {
			t.Fatal("empty permission string")
		}
	}
	d := Descriptor{ID: 1, Dir: DirD2H}
	if DirH2D.String() != "H2D" || d.Dir.String() != "D2H" {
		t.Fatal("direction strings wrong")
	}
	r := Rule{ID: 1, Action: ActionDrop}
	if r.String() == "" {
		t.Fatal("empty rule string")
	}
}

// --- multi-chunk span reads (DESIGN.md §10) ---------------------------------

// stageH2DSpan is stageH2D with the ciphertext stored as one
// contiguous host-memory entry, so a single MaxReadReq-sized MRd can
// fetch the whole region the way the device's DMA engine now does.
func (d *dpRig) stageH2DSpan(t *testing.T, base uint64, data []byte) Descriptor {
	t.Helper()
	desc := Descriptor{
		ID: 7, Dir: DirH2D, Class: ActionWriteReadProtect,
		Base: base, Len: uint64(len(data)), ChunkSize: ChunkSize,
		FirstCounter: d.h2dTx.SendCounter() + 1,
	}
	var ct []byte
	var recs []TagRecord
	for off := 0; off < len(data); off += ChunkSize {
		end := off + ChunkSize
		if end > len(data) {
			end = len(data)
		}
		var aad [8]byte
		desc.PutAAD(&aad, uint32(off/ChunkSize))
		sealed, err := d.h2dTx.Seal(data[off:end], aad[:])
		if err != nil {
			t.Fatal(err)
		}
		ct = append(ct, sealed.Ciphertext...)
		recs = append(recs, TagRecord{Stream: StreamH2D, Chunk: sealed.Counter, Epoch: sealed.Epoch, Tag: sealed.Tag})
	}
	d.hostMem[base] = ct
	if !d.sc.install(desc) {
		t.Fatal("install refused")
	}
	d.postTags(desc.ID, 0, recs...)
	return desc
}

func TestDecryptReadSpanHappyPath(t *testing.T) {
	d := newDPRig(t)
	data := make([]byte, 4*ChunkSize)
	for i := range data {
		data[i] = byte(i * 13)
	}
	desc := d.stageH2DSpan(t, ctlMem+0x1000, data)
	cpl := d.sc.HandleFromDevice(pcie.NewMemRead(d.dev.id, desc.Base, uint32(len(data)), 0))
	if cpl == nil || cpl.Status != pcie.CplSuccess {
		t.Fatal("span read rejected")
	}
	if !bytes.Equal(cpl.Payload, data) {
		t.Fatal("span decrypted wrong")
	}
	if n := d.sc.Stats().DecryptedChunks; n != 4 {
		t.Fatalf("DecryptedChunks = %d, want 4", n)
	}
}

func TestDecryptReadSpanPartialTailChunk(t *testing.T) {
	d := newDPRig(t)
	data := make([]byte, 2*ChunkSize+128) // last chunk is half-size
	for i := range data {
		data[i] = byte(i ^ 0x3c)
	}
	desc := d.stageH2DSpan(t, ctlMem+0x1000, data)
	cpl := d.sc.HandleFromDevice(pcie.NewMemRead(d.dev.id, desc.Base, uint32(len(data)), 0))
	if cpl == nil || cpl.Status != pcie.CplSuccess {
		t.Fatal("partial-tail span rejected")
	}
	if !bytes.Equal(cpl.Payload, data) {
		t.Fatal("partial-tail span decrypted wrong")
	}
}

func TestDecryptReadSpanUnalignedRejected(t *testing.T) {
	d := newDPRig(t)
	w := d.installWindow(t, 9, ctlMem+0x1000, 4)
	for slot := range uint32(4) {
		d.arm(w.ID, slot, d.sealSlot(t, w, slot, bytes.Repeat([]byte{byte(slot)}, ChunkSize)))
	}
	// Multi-slot read of a step window starting mid-slot: a window's
	// reads start on a slot, whose seal covers only what its step carried.
	cpl := d.sc.HandleFromDevice(pcie.NewMemRead(d.dev.id, w.Base+128, 2*ChunkSize, 0))
	if cpl != nil && cpl.Status == pcie.CplSuccess {
		t.Fatal("unaligned span accepted")
	}
	if d.sc.Stats().AuthFailures == 0 {
		t.Fatal("auth failure not recorded")
	}
}

func TestDecryptReadSpanBeyondRegionRejected(t *testing.T) {
	d := newDPRig(t)
	data := make([]byte, 2*ChunkSize)
	desc := d.stageH2DSpan(t, ctlMem+0x1000, data)
	cpl := d.sc.HandleFromDevice(pcie.NewMemRead(d.dev.id, desc.Base, 4*ChunkSize, 0))
	if cpl != nil && cpl.Status == pcie.CplSuccess {
		t.Fatal("span past region end accepted")
	}
}

func TestDecryptReadSpanMissingTagFailsClosed(t *testing.T) {
	d := newDPRig(t)
	data := make([]byte, 4*ChunkSize)
	d.loseTags() // tags never arrived
	desc := d.stageH2DSpan(t, ctlMem+0x1000, data)
	cpl := d.sc.HandleFromDevice(pcie.NewMemRead(d.dev.id, desc.Base, uint32(len(data)), 0))
	if cpl != nil && cpl.Status == pcie.CplSuccess {
		t.Fatal("span read succeeded without tag records")
	}
	if d.sc.Stats().AuthFailures == 0 {
		t.Fatal("auth failure not recorded")
	}
	if d.sc.Stats().DecryptedChunks != 0 {
		t.Fatal("fail-closed span still counted decryptions")
	}
}

// TestDecryptReadSpanDuplicateReRead: a device retrying DMA after a
// fault re-reads a span whose tags were all consumed by the first
// pass. The span path must fall back to the retained verified records
// and re-serve the plaintext statelessly — without touching the replay
// watermark and while counting the retransmits.
func TestDecryptReadSpanDuplicateReRead(t *testing.T) {
	d := newDPRig(t)
	data := make([]byte, 4*ChunkSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	desc := d.stageH2DSpan(t, ctlMem+0x1000, data)
	first := d.sc.HandleFromDevice(pcie.NewMemRead(d.dev.id, desc.Base, uint32(len(data)), 0))
	if first == nil || first.Status != pcie.CplSuccess {
		t.Fatal("first span read rejected")
	}
	again := d.sc.HandleFromDevice(pcie.NewMemRead(d.dev.id, desc.Base, uint32(len(data)), 0))
	if again == nil || again.Status != pcie.CplSuccess {
		t.Fatal("benign span re-read rejected")
	}
	if !bytes.Equal(again.Payload, data) {
		t.Fatal("re-read span decrypted wrong")
	}
	if n := d.sc.Stats().DuplicateReads; n != 4 {
		t.Fatalf("DuplicateReads = %d, want 4", n)
	}
	if n := d.sc.Stats().DecryptedChunks; n != 4 {
		t.Fatalf("DecryptedChunks = %d, want 4 (re-read must not re-count)", n)
	}
}

// stageA2 seals data as A2 H2D region id at base under chunk size cs and
// queues its tags, as the Adaptor does, laying the ciphertext down so a
// read at any chunk boundary gets the bytes from there to the region's
// end (ctlHostMem serves a read from the exact address of one write).
func (d *dpRig) stageA2(t *testing.T, id uint32, base uint64, data []byte, cs uint32) Descriptor {
	t.Helper()
	desc := Descriptor{ID: id, Dir: DirH2D, Class: ActionWriteReadProtect,
		Base: base, Len: uint64(len(data)), ChunkSize: cs, FirstCounter: d.h2dTx.SendCounter() + 1}
	var ct []byte
	var recs []TagRecord
	for off, j := 0, uint32(0); off < len(data); off, j = off+int(cs), j+1 {
		var aad [8]byte
		desc.PutAAD(&aad, j)
		sealed, err := d.h2dTx.Seal(data[off:min(off+int(cs), len(data))], aad[:])
		if err != nil {
			t.Fatal(err)
		}
		ct = append(ct, sealed.Ciphertext...)
		recs = append(recs, TagRecord{Stream: StreamH2D, Chunk: sealed.Counter, Epoch: sealed.Epoch, Tag: sealed.Tag})
	}
	for off := 0; off < len(ct); off += int(cs) {
		d.hostMem[base+uint64(off)] = ct[off:]
	}
	if !d.sc.install(desc) {
		t.Fatal("install refused")
	}
	d.postTags(desc.ID, 0, recs...)
	return desc
}

// countDataFetches counts the SC's host reads below the rig's submission
// ring from now on: fetches of data regions, not of ring slots.
func (d *dpRig) countDataFetches() *int {
	n := new(int)
	d.host.AddTap(pcie.TapFunc(func(p *pcie.Packet) *pcie.Packet {
		if p.Kind == pcie.MRd && p.Requester == d.sc.DeviceID() && p.Address < ctlRing {
			*n++
		}
		return p
	}))
	return n
}

// devRead is the device reading n bytes at addr; nil when refused.
func (d *dpRig) devRead(addr uint64, n uint32) []byte {
	cpl := d.sc.HandleFromDevice(pcie.NewMemRead(d.dev.id, addr, n, 0))
	if cpl == nil || cpl.Status != pcie.CplSuccess {
		return nil
	}
	return cpl.Payload
}

// TestDecryptReadRejects: the SC's one A2 read path checks a read's
// geometry, and in a step window that it starts on a slot and every slot
// it covers is armed, before it fetches anything. Against two adjacent
// live regions of eight chunks (32 for the oversized read; 64-byte
// chunks for the read touching seventeen) with every tag queued, or a
// four-slot step window with slot 0 armed, each read below is exactly
// one auth failure, with no host fetch, no tag spent and nothing handed
// to the device.
func TestDecryptReadRejects(t *testing.T) {
	const base, cs = ctlMem + 0x10000, ChunkSize
	for name, c := range map[string]struct {
		chunk  uint32 // the regions' ChunkSize
		chunks int    // per region
		off    uint64 // from the first region's base
		n      uint32
		window bool
	}{
		"unaligned start":                 {window: true, off: cs / 2, n: cs},
		"zero length":                     {chunk: cs, chunks: 8, off: 0, n: 0},
		"over MaxReadReq":                 {chunk: cs, chunks: 32, off: 0, n: 2 * pcie.MaxReadReq},
		"past the region end":             {chunk: cs, chunks: 8, off: 6 * cs, n: 3 * cs},
		"straddling two regions":          {chunk: cs, chunks: 8, off: 7 * cs, n: 2 * cs},
		"more than 16 chunks":             {chunk: 64, chunks: 32, off: 0, n: (spanChunks + 1) * 64},
		"touching more than 16 chunks":    {chunk: 64, chunks: 32, off: 32, n: spanChunks * 64},
		"two-slot read, one slot unarmed": {window: true, off: 0, n: 2 * cs},
	} {
		t.Run(name, func(t *testing.T) {
			d := newDPRig(t)
			if c.window {
				w := d.installWindow(t, 9, base, 4)
				d.arm(w.ID, 0, d.sealSlot(t, w, 0, bytes.Repeat([]byte{1}, cs)))
				d.sealSlot(t, w, 1, bytes.Repeat([]byte{2}, cs))
			} else {
				size := c.chunks * int(c.chunk)
				d.stageA2(t, 7, base, burstData(size, 1), c.chunk)
				d.stageA2(t, 8, base+uint64(size), burstData(size, 2), c.chunk)
			}
			fetches, st, depth := d.countDataFetches(), d.sc.Stats(), d.sc.PendingTags()
			if got := d.devRead(base+c.off, c.n); got != nil {
				t.Fatalf("served %d bytes", len(got))
			}
			after := d.sc.Stats()
			if *fetches != 0 || after.AuthFailures != st.AuthFailures+1 || d.sc.PendingTags() != depth {
				t.Fatalf("%d host fetches, %d auth failures, %d tags spent; want 0, 1, 0",
					*fetches, after.AuthFailures-st.AuthFailures, depth-d.sc.PendingTags())
			}
		})
	}
}

// TestDecryptReadShortCompletion: the host answers the SC's fetch with a
// completion shorter than the read — a tampering host's truncation. One
// chunk or sixteen, the read is refused whole, with nothing served and
// nothing decrypted.
func TestDecryptReadShortCompletion(t *testing.T) {
	const base = ctlMem + 0x10000
	for _, chunks := range []int{1, spanChunks} {
		d := newDPRig(t)
		d.stageA2(t, 7, base, burstData(chunks*ChunkSize, 3), ChunkSize)
		d.host.AddTap(pcie.TapFunc(func(p *pcie.Packet) *pcie.Packet {
			if p.Kind == pcie.CplD && p.Requester == d.sc.DeviceID() {
				p.Payload = p.Payload[:len(p.Payload)/2]
			}
			return p
		}))
		if got := d.devRead(base, uint32(chunks*ChunkSize)); got != nil {
			t.Fatalf("%d-chunk read served %d bytes from a truncated fetch", chunks, len(got))
		}
		if n := d.sc.Stats().DecryptedChunks; n != 0 {
			t.Fatalf("%d-chunk read decrypted %d chunks from a truncated fetch", chunks, n)
		}
	}
}

// fetchLog records the (address, length) of the SC's host reads below
// the rig's submission ring from now on.
func (d *dpRig) fetchLog() *[][2]uint64 {
	log := new([][2]uint64)
	d.host.AddTap(pcie.TapFunc(func(p *pcie.Packet) *pcie.Packet {
		if p.Kind == pcie.MRd && p.Requester == d.sc.DeviceID() && p.Address < ctlRing {
			*log = append(*log, [2]uint64{p.Address, uint64(p.Length)})
		}
		return p
	}))
	return log
}

// TestDecryptReadInsideChunks: a bulk region is sealed in MaxReadReq
// chunks, and a device read that starts or ends inside one — a model
// region's second weight matrix, say — is served from every chunk it
// touches, each fetched and verified whole. Against a three-chunk region
// with every tag queued: a read inside chunk 0 is one fetch of chunk 0
// and its one verified chunk; a read straddling chunks 0 and 1 fetches
// and verifies both. A flipped ciphertext byte in a touched chunk —
// outside the read's own bytes, or in the second chunk — is one auth
// failure and nothing served, after the same fetches.
func TestDecryptReadInsideChunks(t *testing.T) {
	const base, cs = ctlMem + 0x10000, pcie.MaxReadReq
	for name, c := range map[string]struct {
		off, n  uint64
		fetches [][2]uint64 // from the region's base
		flip    int         // ciphertext byte flipped before the read; -1 none
	}{
		"starts mid-chunk":           {off: 1024, n: 1024, fetches: [][2]uint64{{0, cs}}, flip: -1},
		"mid-chunk, tampered chunk":  {off: 1024, n: 1024, fetches: [][2]uint64{{0, cs}}, flip: 3000},
		"straddles two chunks":       {off: cs / 2, n: cs, fetches: [][2]uint64{{0, cs}, {cs, cs}}, flip: -1},
		"straddles, second tampered": {off: cs / 2, n: cs, fetches: [][2]uint64{{0, cs}, {cs, cs}}, flip: cs + 100},
	} {
		t.Run(name, func(t *testing.T) {
			d := newDPRig(t)
			data := burstData(3*cs, 5)
			d.stageA2(t, 7, base, data, cs)
			if c.flip >= 0 {
				d.hostMem[base][c.flip] ^= 1
			}
			log, before, depth := d.fetchLog(), d.sc.Stats(), d.sc.PendingTags()
			got := d.devRead(base+c.off, uint32(c.n))
			after := d.sc.Stats()
			touched := len(c.fetches)
			for i := range c.fetches {
				c.fetches[i][0] += base
			}
			if !slices.Equal(*log, c.fetches) || depth-d.sc.PendingTags() != touched {
				t.Fatalf("fetched %v and spent %d tags; want %v and %d", *log, depth-d.sc.PendingTags(), c.fetches, touched)
			}
			if c.flip >= 0 {
				if got != nil || after.AuthFailures != before.AuthFailures+1 || after.DecryptedChunks != before.DecryptedChunks {
					t.Fatalf("tampered chunk: served %d B, %d auth failures, %d chunks decrypted; want none, 1, none",
						len(got), after.AuthFailures-before.AuthFailures, after.DecryptedChunks-before.DecryptedChunks)
				}
				return
			}
			if !bytes.Equal(got, data[c.off:c.off+c.n]) || after.DecryptedChunks != before.DecryptedChunks+uint64(touched) {
				t.Fatalf("served %d B (plaintext: %v), %d chunks decrypted; want the read's %d B from %d verified chunks",
					len(got), bytes.Equal(got, data[c.off:c.off+c.n]), after.DecryptedChunks-before.DecryptedChunks, c.n, touched)
			}
			// A later read of the rest of chunk 0 re-verifies it under its
			// accepted record.
			if again := d.devRead(base, 1024); !bytes.Equal(again, data[:1024]) || d.sc.Stats().DuplicateReads != 1 {
				t.Fatalf("re-read of chunk 0 served %d B, %d duplicate reads; want its first 1024 B, 1", len(again), d.sc.Stats().DuplicateReads)
			}
		})
	}
}

// --- slotted step windows ------------------------------------------------------

// installWindow registers a slotted step window through the sealed
// descriptor path, like the Adaptor does.
func (d *dpRig) installWindow(t *testing.T, id uint32, base uint64, slots int) Descriptor {
	t.Helper()
	desc := Descriptor{ID: id, Dir: DirH2D, Class: ActionWriteReadProtect,
		Base: base, Len: uint64(slots * ChunkSize), ChunkSize: ChunkSize, Slotted: true}
	d.submit(ringEntry{op: RingOpDesc, data: d.sealed(t, desc.AppendMarshal(nil))})
	return desc
}

// sealSlot seals data for one window slot and returns its tag record.
func (d *dpRig) sealSlot(t *testing.T, desc Descriptor, slot uint32, data []byte) TagRecord {
	t.Helper()
	var aad [8]byte
	desc.PutAAD(&aad, slot)
	sealed, err := d.h2dTx.Seal(data, aad[:])
	if err != nil {
		t.Fatal(err)
	}
	d.hostMem[desc.Base+uint64(slot)*ChunkSize] = sealed.Ciphertext
	return TagRecord{Stream: StreamH2D, Chunk: sealed.Counter, Epoch: sealed.Epoch, Tag: sealed.Tag}
}

// arm uploads a positioned tag entry.
func (d *dpRig) arm(region, slot uint32, recs ...TagRecord) {
	var payload []byte
	for _, r := range recs {
		payload = r.AppendMarshal(payload)
	}
	d.submit(ringEntry{op: RingOpTags, arg: ArmPosition(region, slot), data: payload})
}

func (d *dpRig) readSlot(desc Descriptor, slot uint32) ([]byte, bool) {
	cpl := d.sc.HandleFromDevice(pcie.NewMemRead(d.dev.id, desc.Base+uint64(slot)*ChunkSize, 32, 0))
	if cpl == nil || cpl.Status != pcie.CplSuccess {
		return nil, false
	}
	return cpl.Payload, true
}

// TestSlottedWindowPositionAcceptedOnce pins the §6 rule for step
// windows: a (window, slot) position is accepted at most once per
// install. A slot opens only under the counter its positioned tag armed
// — out of stream order across windows, gaps included — an unarmed slot
// fails closed, a consumed slot cannot be re-armed under another
// counter, and release forgets every armed counter.
func TestSlottedWindowPositionAcceptedOnce(t *testing.T) {
	d := newDPRig(t)
	w1 := d.installWindow(t, 5, ctlMem+0x4000, 4)
	w2 := d.installWindow(t, 6, ctlMem+0x8000, 4)
	if d.sc.Regions() != 2 {
		t.Fatalf("%d regions after two window installs", d.sc.Regions())
	}
	a0 := d.sealSlot(t, w1, 0, []byte("window one, step zero: 32 bytes.")) // counter 1
	b0 := d.sealSlot(t, w2, 0, []byte("window two, step zero: 32 bytes.")) // counter 2
	skipped := d.sealSlot(t, w1, 1, []byte("armed but never read: 32 bytes.."))
	a2 := d.sealSlot(t, w1, 2, []byte("window one, step two: 32 bytes..")) // counter 4

	// Unarmed: fail closed, nothing fetched or decrypted.
	if _, ok := d.readSlot(w1, 0); ok || d.sc.Stats().AuthFailures != 1 {
		t.Fatal("unarmed slot readable")
	}
	d.arm(w1.ID, 0, a0)
	d.arm(w2.ID, 0, b0)
	d.arm(w1.ID, 1, skipped)
	d.arm(w1.ID, 2, a2)
	for _, c := range []struct {
		desc Descriptor
		slot uint32
		want string
	}{{w1, 0, "window one, step zero: 32 bytes."}, {w2, 0, "window two, step zero: 32 bytes."}, {w1, 2, "window one, step two: 32 bytes.."}} {
		if got, ok := d.readSlot(c.desc, c.slot); !ok || string(got) != c.want {
			t.Fatalf("window %d slot %d: read %q, ok %v", c.desc.ID, c.slot, got, ok)
		}
	}
	if st := d.sc.Stats(); st.DecryptedChunks != 3 || st.ConfigRejects != 0 {
		t.Fatalf("decrypted %d, config rejects %d", st.DecryptedChunks, st.ConfigRejects)
	}

	// A consumed position is not re-armed under another counter; a slot
	// past the window, a wrapped slot index, a window that does not exist,
	// a record of another stream and a zero counter are refused too.
	forged := a0
	forged.Chunk = 99
	other := a0
	other.Stream = StreamD2H
	zero := a0
	zero.Chunk = 0
	d.arm(w1.ID, 0, forged)
	d.arm(w1.ID, 4, a0)
	d.arm(w1.ID, ^uint32(0), a0, a0)
	d.arm(77, 0, a0)
	d.arm(w1.ID, 3, other)
	d.arm(w1.ID, 3, zero)
	if got := d.sc.Stats().ConfigRejects; got != 6 {
		t.Fatalf("%d config rejects for six refused arms", got)
	}
	// The consumed slot still answers a retransmit (same counter reposted),
	// as a duplicate — and slot 1's counter, behind the watermark and never
	// accepted, is dead.
	d.arm(w1.ID, 0, a0)
	if got, ok := d.readSlot(w1, 0); !ok || string(got) != "window one, step zero: 32 bytes." || d.sc.Stats().DuplicateReads != 1 {
		t.Fatal("reposted slot not re-served as a duplicate")
	}
	if _, ok := d.readSlot(w1, 1); ok {
		t.Fatal("slot behind the replay watermark, never accepted, was served")
	}

	// Release forgets the window: its arms are refused, and a new install
	// under the same ID starts with every slot unarmed.
	d.release(w1.ID)
	rejects := d.sc.Stats().ConfigRejects
	d.arm(w1.ID, 3, a2)
	if d.sc.Stats().ConfigRejects != rejects+1 {
		t.Fatal("arm for a released window accepted")
	}
	w1 = d.installWindow(t, 5, ctlMem+0x4000, 4)
	if _, ok := d.readSlot(w1, 2); ok {
		t.Fatal("reinstalled window inherited an armed slot")
	}
}

// --- D2H write bursts -----------------------------------------------------------

// burstMeta is where the burst tests' SC publishes progress counters.
const burstMeta = ctlMem + 0xf000

// d2hRegion registers an A2 D2H region of n bytes at base with its tag
// table at tagBase, in ChunkSize chunks, and points the SC's metadata
// buffer at burstMeta.
func (d *dpRig) d2hRegion(t *testing.T, id uint32, base, tagBase uint64, n int) Descriptor {
	t.Helper()
	return d.d2hRegionIn(t, id, base, tagBase, n, ChunkSize)
}

// d2hRegionIn is d2hRegion in chunks of cs, as the Adaptor's PrepareD2H
// registers a bulk region in MaxReadReq chunks.
func (d *dpRig) d2hRegionIn(t *testing.T, id uint32, base, tagBase uint64, n int, cs uint32) Descriptor {
	t.Helper()
	desc := Descriptor{ID: id, Dir: DirD2H, Class: ActionWriteReadProtect,
		Base: base, Len: uint64(n), TagBase: tagBase, ChunkSize: cs}
	if !d.sc.install(desc) {
		t.Fatal("install refused")
	}
	d.host.Route(pcie.NewMemWrite(tvmID, ctlBar+RegMetaBase, le64(burstMeta)))
	d.host.Route(pcie.NewMemWrite(tvmID, ctlBar+RegMetaSize, le64(4096)))
	return desc
}

// useD2HKey replaces the SC's D2H stream with one under the given key
// material.
func (d *dpRig) useD2HKey(t *testing.T, key, nonce []byte) {
	t.Helper()
	if err := d.keys.Install(StreamD2H, key, nonce); err != nil {
		t.Fatal(err)
	}
	if err := d.sc.Params().Activate(StreamD2H); err != nil {
		t.Fatal(err)
	}
}

// hostWrite is one write the SC put on the host segment.
type hostWrite struct {
	addr uint64
	body []byte
}

// recordHostWrites taps the rig's host bus for the SC's writes from now
// on.
func (d *dpRig) recordHostWrites() *[]hostWrite {
	ws := new([]hostWrite)
	d.host.AddTap(pcie.TapFunc(func(p *pcie.Packet) *pcie.Packet {
		if p.Kind == pcie.MWr && p.Requester == d.sc.DeviceID() {
			*ws = append(*ws, hostWrite{p.Address, append([]byte(nil), p.Payload...)})
		}
		return p
	}))
	return ws
}

// devWrite posts data — not a copy: the SC takes the device's staging
// buffer itself — as one device MWr at addr, and reports whether the SC
// took it: false when it counted an auth failure or a filter drop.
func (d *dpRig) devWrite(addr uint64, data []byte) bool {
	p := pcie.NewMemWrite(d.dev.id, addr, nil)
	p.Payload, p.Length = data, uint32(len(data))
	before := d.sc.Stats()
	d.sc.HandleFromDevice(p)
	after := d.sc.Stats()
	return after.AuthFailures == before.AuthFailures && after.Filter.Dropped == before.Filter.Dropped
}

// pendingSpans reports how many regions hold staged, unsealed chunks.
func (d *dpRig) pendingSpans() int {
	d.sc.mu.Lock()
	defer d.sc.mu.Unlock()
	n := 0
	for _, r := range d.sc.sess.regions {
		if r.ws != nil {
			n++
		}
	}
	return n
}

// d2hView is what the SC's writes for one D2H region left in host
// memory: per chunk its ciphertext and tag record (nil: never written),
// and every progress counter published, in order.
type d2hView struct {
	ct   [][]byte
	recs []*TagRecord
	meta []uint64
}

// viewD2H sorts the SC's host writes into desc's ciphertext chunks, tag
// records and progress counters, failing the test on any other write —
// for a D2H region the SC writes nothing else. It also holds the
// metadata invariant at every publish: the counter never claims more
// chunks than have both their ciphertext and their tag record in host
// memory.
func viewD2H(t *testing.T, desc Descriptor, writes []hostWrite) d2hView {
	t.Helper()
	n := chunkCount(desc)
	v := d2hView{ct: make([][]byte, n), recs: make([]*TagRecord, n)}
	cs := uint64(desc.ChunkSize)
	backed := func() (k uint64) {
		for j := range v.ct {
			if uint64(len(v.ct[j])) == min(cs, desc.Len-uint64(j)*cs) && v.recs[j] != nil {
				k++
			}
		}
		return k
	}
	for _, w := range writes {
		switch {
		case desc.Contains(w.addr):
			// A chunk's ciphertext leaves in MaxPayload MWrs, in order.
			off := w.addr - desc.Base
			j, at := off/cs, off%cs
			if at == 0 {
				v.ct[j] = nil
			}
			if at != uint64(len(v.ct[j])) || uint64(len(w.body)) != min(pcie.MaxPayload, desc.Len-off, cs-at) {
				t.Fatalf("ciphertext write of %d bytes at region offset %d is off the chunk grid", len(w.body), off)
			}
			v.ct[j] = append(v.ct[j], w.body...)
		case w.addr >= desc.TagBase && w.addr < desc.TagBase+uint64(n)*TagRecordSize:
			off := w.addr - desc.TagBase
			if off%TagRecordSize != 0 || len(w.body)%TagRecordSize != 0 || off+uint64(len(w.body)) > uint64(n)*TagRecordSize {
				t.Fatalf("tag write of %d bytes at table offset %d is off the record grid", len(w.body), off)
			}
			for b, j := w.body, off/TagRecordSize; len(b) > 0; b, j = b[TagRecordSize:], j+1 {
				if binary.LittleEndian.Uint32(b) != hashStream(StreamD2H) {
					t.Fatalf("tag record for chunk %d names another stream", j)
				}
				rec := &TagRecord{Stream: StreamD2H, Chunk: binary.LittleEndian.Uint32(b[4:]), Epoch: binary.LittleEndian.Uint32(b[8:])}
				copy(rec.Tag[:], b[12:TagRecordSize])
				v.recs[j] = rec
			}
		case w.addr == burstMeta+uint64(desc.ID)*8 && len(w.body) == 8:
			count := binary.LittleEndian.Uint64(w.body)
			if k := backed(); count > k {
				t.Fatalf("metadata claims %d chunks; %d have ciphertext and tag in host memory", count, k)
			}
			v.meta = append(v.meta, count)
		default:
			t.Fatalf("SC wrote %d bytes at %#x, outside region %d's chunks, tag table and counter", len(w.body), w.addr, desc.ID)
		}
	}
	return v
}

// opens reports whether chunk j of the view opens, under the SC's D2H
// key and the chunk's AAD, to exactly pt. Each chunk is opened by a
// fresh replica, so chunks open in any order.
func (d *dpRig) opens(desc Descriptor, v d2hView, j int, pt []byte) bool {
	rec := v.recs[j]
	if v.ct[j] == nil || rec == nil {
		return false
	}
	rx, err := d.keys.Stream(StreamD2H)
	if err != nil {
		return false
	}
	var aad [8]byte
	desc.PutAAD(&aad, uint32(j))
	got, err := rx.Open(&secmem.Sealed{Counter: rec.Chunk, Epoch: rec.Epoch,
		Ciphertext: v.ct[j], Tag: rec.Tag}, aad[:])
	return err == nil && bytes.Equal(got, pt)
}

// chunkOf slices chunk j out of a region's plaintext.
func chunkOf(data []byte, j int) []byte {
	return data[j*ChunkSize : min((j+1)*ChunkSize, len(data))]
}

// deviceStaging copies data into an arena buffer, as a device stages
// its MWr payloads when the SC recycles them.
func deviceStaging(data []byte) []byte {
	b := arena.Get(len(data))
	copy(b, data)
	return b
}

func burstData(n int, seed byte) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*31) ^ seed
	}
	return data
}

// TestEncryptWriteBurst: one device write of a whole region — a single
// chunk, 16 chunks, or chunks ending in a partial one at the region's
// tail — is sealed chunk by chunk into host memory: every chunk opens to
// its bytes, the counter ends at the chunk count, and the span seals at
// the metadata cadence (8 chunks a batch).
func TestEncryptWriteBurst(t *testing.T) {
	for _, c := range []struct {
		name  string
		n     int
		spans uint64
	}{
		{"one chunk", ChunkSize, 1},
		{"16 chunks", pcie.MaxReadReq, 2},
		{"partial tail chunk", 2*ChunkSize + 128, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := newDPRig(t)
			d.sc.EnableDatapathRecycling()
			desc := d.d2hRegion(t, 9, ctlMem+0x4000, ctlMem+0x8000, c.n)
			writes := d.recordHostWrites()
			data := burstData(c.n, 0x3c)
			if !d.devWrite(desc.Base, deviceStaging(data)) {
				t.Fatal("burst refused")
			}
			v := viewD2H(t, desc, *writes)
			k := chunkCount(desc)
			for j := 0; j < k; j++ {
				if !d.opens(desc, v, j, chunkOf(data, j)) {
					t.Fatalf("chunk %d does not open to its bytes", j)
				}
			}
			st := d.sc.Stats()
			if st.EncryptedChunks != uint64(k) || st.BatchedD2HSpans != c.spans || v.meta[len(v.meta)-1] != uint64(k) {
				t.Fatalf("%d chunks sealed in %d spans, counter %v; want %d in %d, ending at %d",
					st.EncryptedChunks, st.BatchedD2HSpans, v.meta, k, c.spans, k)
			}
		})
	}
}

// TestEncryptWriteBurstRejectedWhole: a burst whose geometry is wrong
// anywhere — start off the chunk grid, end past the region or in the
// next one, a partial chunk short of the region's tail, more than one
// MaxReadReq, or no bytes — is refused as a whole: one auth failure,
// nothing staged, nothing written to host memory, not even the chunks
// that would have fit.
func TestEncryptWriteBurstRejectedWhole(t *testing.T) {
	for _, c := range []struct {
		name      string
		regionLen int
		off, n    int
		next      bool // a second region starts where the first ends
	}{
		{"unaligned start", 4 * ChunkSize, 128, 2 * ChunkSize, false},
		{"past the region end", 2 * ChunkSize, 0, 4 * ChunkSize, false},
		{"straddles two regions", 2 * ChunkSize, 0, 4 * ChunkSize, true},
		{"partial chunk before the tail", 4 * ChunkSize, 0, ChunkSize + 44, false},
		{"over MaxReadReq", 2 * pcie.MaxReadReq, 0, pcie.MaxReadReq + ChunkSize, false},
		{"empty", 4 * ChunkSize, 0, 0, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := newDPRig(t)
			desc := d.d2hRegion(t, 9, ctlMem+0x4000, ctlMem+0x8000, c.regionLen)
			if c.next {
				d.d2hRegion(t, 10, desc.Base+desc.Len, ctlMem+0xa000, c.regionLen)
			}
			writes := d.recordHostWrites()
			d.devWrite(desc.Base+uint64(c.off), burstData(c.n, 1))
			st := d.sc.Stats()
			if st.AuthFailures != 1 || st.EncryptedChunks != 0 || d.pendingSpans() != 0 || len(*writes) != 0 {
				t.Fatalf("%d auth failures, %d chunks sealed, %d spans pending, %d host writes; want 1, 0, 0, 0",
					st.AuthFailures, st.EncryptedChunks, d.pendingSpans(), len(*writes))
			}
		})
	}
}

// TestEncryptWriteBurstMatchesChunkWrites: under the same key, a region
// written in bursts — 16 chunks, then 4 ending in a partial one — and
// the same region written one chunk per MWr put the same writes on the
// host segment, byte for byte and in the same order, and seal in the
// same batches.
func TestEncryptWriteBurstMatchesChunkWrites(t *testing.T) {
	key, nonce := secmem.FreshKey(), secmem.FreshNonce()
	const n = pcie.MaxReadReq + 3*ChunkSize + 100
	data := burstData(n, 0xa5)
	run := func(size int) ([]hostWrite, uint64) {
		d := newDPRig(t)
		d.useD2HKey(t, key, nonce)
		desc := d.d2hRegion(t, 9, ctlMem+0x4000, ctlMem+0x8000, n)
		writes := d.recordHostWrites()
		for off := 0; off < n; off += size {
			if !d.devWrite(desc.Base+uint64(off), data[off:min(off+size, n)]) {
				t.Fatalf("write of %d bytes at %d refused", size, off)
			}
		}
		return *writes, d.sc.Stats().BatchedD2HSpans
	}
	bursts, burstSpans := run(pcie.MaxReadReq)
	chunks, chunkSpans := run(ChunkSize)
	if len(bursts) != len(chunks) || burstSpans != chunkSpans {
		t.Fatalf("%d host writes in %d sealed spans from bursts, %d in %d from single chunks",
			len(bursts), burstSpans, len(chunks), chunkSpans)
	}
	for i := range bursts {
		if bursts[i].addr != chunks[i].addr || !bytes.Equal(bursts[i].body, chunks[i].body) {
			t.Fatalf("host write %d: %#x/%d bytes from bursts, %#x/%d from single chunks",
				i, bursts[i].addr, len(bursts[i].body), chunks[i].addr, len(chunks[i].body))
		}
	}
}

// TestEncryptWriteBurstSealFaultZeroesStaging: a seal that fails under a
// burst stops it where it stands — one auth failure, the chunks sealed
// before the fault in host memory and counted, nothing after it — and
// the burst's staging buffer goes back to the arena zeroed, whether the
// fault hit the span holding its last chunk, an earlier one, or the
// pending span a sequence break had to seal first.
func TestEncryptWriteBurstSealFaultZeroesStaging(t *testing.T) {
	for _, c := range []struct {
		name    string
		pending bool // chunk 0 is staged alone first; the burst starts at chunk 8
		sealed  int  // chunks sealed before the fault
	}{
		{"first span", false, 0},
		{"second span", false, 8},
		{"pending span at a break", true, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := newDPRig(t)
			d.sc.EnableDatapathRecycling()
			desc := d.d2hRegion(t, 9, ctlMem+0x4000, ctlMem+0x8000, 2*pcie.MaxReadReq)
			writes := d.recordHostWrites()
			var lone []byte
			first := 0
			if c.pending {
				lone = deviceStaging(burstData(ChunkSize, 7))
				if !d.devWrite(desc.Base, lone) || d.pendingSpans() != 1 {
					t.Fatal("lone chunk not staged")
				}
				first = 8
			}
			stream, err := d.sc.Params().Stream(StreamD2H)
			if err != nil {
				t.Fatal(err)
			}
			calls := 0
			stream.SetFaultHook(func(string) error {
				if calls++; calls > c.sealed {
					return errors.New("injected seal fault")
				}
				return nil
			})
			burst := deviceStaging(burstData(pcie.MaxReadReq, 9))
			if d.devWrite(desc.Base+uint64(first*ChunkSize), burst) {
				t.Fatal("burst accepted through a seal fault")
			}
			for name, b := range map[string][]byte{"burst": burst, "lone chunk": lone} {
				if !bytes.Equal(b[:cap(b)], make([]byte, cap(b))) {
					t.Fatalf("%s staging buffer not zeroed", name)
				}
			}
			v := viewD2H(t, desc, *writes)
			for j, ct := range v.ct {
				if (ct != nil) != (j < c.sealed) {
					t.Fatalf("chunk %d: ciphertext written %v, want %v", j, ct != nil, j < c.sealed)
				}
			}
			if st := d.sc.Stats(); st.AuthFailures != 1 || st.EncryptedChunks != uint64(c.sealed) ||
				d.sc.D2HProgress(desc.ID) != uint64(c.sealed) || d.pendingSpans() != 0 {
				t.Fatalf("%d auth failures, %d chunks sealed, progress %d, %d spans pending; want 1, %d, %d, 0",
					st.AuthFailures, st.EncryptedChunks, d.sc.D2HProgress(desc.ID), d.pendingSpans(), c.sealed, c.sealed)
			}
		})
	}
}

// TestEncryptWriteBurstDropNeverOverclaims: with one of a 48-chunk
// region's three bursts lost on the internal segment, the progress
// counter never claims a chunk whose ciphertext and tag record are not
// in host memory (viewD2H checks it at every publish), stops at the 32
// chunks that arrived — so the region never reads complete — and none
// of the lost burst's chunks has anything in host memory.
func TestEncryptWriteBurstDropNeverOverclaims(t *testing.T) {
	const bursts = 3
	for lost := 0; lost < bursts; lost++ {
		t.Run(fmt.Sprintf("burst %d lost", lost), func(t *testing.T) {
			d := newDPRig(t)
			desc := d.d2hRegion(t, 9, ctlMem+0x4000, ctlMem+0x8000, bursts*pcie.MaxReadReq)
			writes := d.recordHostWrites()
			data := burstData(bursts*pcie.MaxReadReq, 0x77)
			for b := 0; b < bursts; b++ {
				if b != lost && !d.devWrite(desc.Base+uint64(b*pcie.MaxReadReq), data[b*pcie.MaxReadReq:][:pcie.MaxReadReq]) {
					t.Fatalf("burst %d refused", b)
				}
			}
			v := viewD2H(t, desc, *writes)
			for j := range v.ct {
				inLost := j/spanChunks == lost
				if written := v.ct[j] != nil || v.recs[j] != nil; written == inLost {
					t.Fatalf("chunk %d: written %v", j, written)
				}
				if !inLost && !d.opens(desc, v, j, chunkOf(data, j)) {
					t.Fatalf("chunk %d does not open to its bytes", j)
				}
			}
			if got := v.meta[len(v.meta)-1]; got != 2*spanChunks || d.sc.D2HProgress(desc.ID) != got {
				t.Fatalf("counter ends at %d, progress %d; want %d", got, d.sc.D2HProgress(desc.ID), 2*spanChunks)
			}
		})
	}
}

// seeHostWrites records the SC's writes from now on at the rig's host
// memory: a copy of each, for viewD2H, and the payload the SC handed
// over, to see which buffer it is a slot of. No tap is added, so the SC
// keeps recycling.
func (d *dpRig) seeHostWrites() (writes *[]hostWrite, payloads *[][]byte) {
	writes, payloads = new([]hostWrite), new([][]byte)
	d.hostEP.seen = func(p *pcie.Packet) {
		if p.Requester == d.sc.DeviceID() {
			*writes = append(*writes, hostWrite{p.Address, append([]byte(nil), p.Payload...)})
			*payloads = append(*payloads, p.Payload)
		}
	}
	return writes, payloads
}

// TestD2HSpanSealsIntoOneHostBuffer: with the recycling loop closed, a
// 64 KiB result's ciphertext leaves in one host-write buffer per sealed
// span — 32 buffers, not 256: chunk j of a span goes out as the j-th
// ChunkSize slot of its span's buffer, its capacity clipped to the slot,
// and every chunk opens to its bytes.
func TestD2HSpanSealsIntoOneHostBuffer(t *testing.T) {
	d := newDPRig(t)
	d.sc.EnableDatapathRecycling()
	const n = 16 * pcie.MaxReadReq
	desc := d.d2hRegion(t, 9, ctlMem+0x10000, ctlMem+0x30000, n)
	writes, payloads := d.seeHostWrites()
	data := burstData(n, 0x5a)
	for off := 0; off < n; off += pcie.MaxReadReq {
		if !d.devWrite(desc.Base+uint64(off), deviceStaging(data[off:off+pcie.MaxReadReq])) {
			t.Fatalf("burst at %d refused", off)
		}
	}
	k := chunkCount(desc)
	slots := make([]uintptr, k)
	for i, w := range *writes {
		if p := (*payloads)[i]; desc.Contains(w.addr) {
			if cap(p) != len(p) {
				t.Fatalf("chunk at %#x: %d-byte payload with capacity %d", w.addr, len(p), cap(p))
			}
			slots[(w.addr-desc.Base)/ChunkSize] = uintptr(unsafe.Pointer(unsafe.SliceData(p)))
		}
	}
	for j, at := range slots {
		first := j - j%metaPublishEvery
		if want := slots[first] + uintptr((j-first)*ChunkSize); at != want {
			t.Fatalf("chunk %d is not slot %d of its span's host-write buffer", j, j-first)
		}
	}
	v := viewD2H(t, desc, *writes)
	for j := 0; j < k; j++ {
		if !d.opens(desc, v, j, chunkOf(data, j)) {
			t.Fatalf("chunk %d does not open to its bytes", j)
		}
	}
	if got := d.sc.Stats().BatchedD2HSpans; got != uint64(k/metaPublishEvery) {
		t.Fatalf("%d spans sealed, want %d", got, k/metaPublishEvery)
	}
}

// TestD2HSpanBufferHeldOnceTapped: a tap attached while a span's chunks
// go out keeps the later ones — slots of that span's host-write buffer,
// which came from the arena. The buffer then never goes back: whatever
// the arena hands out next is scribbled on, and every slot the tap kept
// still holds the ciphertext it saw.
func TestD2HSpanBufferHeldOnceTapped(t *testing.T) {
	d := newDPRig(t)
	d.sc.EnableDatapathRecycling()
	desc := d.d2hRegion(t, 9, ctlMem+0x10000, ctlMem+0x30000, pcie.MaxReadReq)
	type kept struct{ slot, seen []byte }
	var keep []kept
	tap := pcie.TapFunc(func(p *pcie.Packet) *pcie.Packet {
		if desc.Contains(p.Address) {
			keep = append(keep, kept{p.Payload, append([]byte(nil), p.Payload...)})
		}
		return p
	})
	d.hostEP.seen = func(p *pcie.Packet) {
		if p.Address == desc.Base+3*ChunkSize {
			d.host.AddTap(tap)
		}
	}
	if !d.devWrite(desc.Base, deviceStaging(burstData(pcie.MaxReadReq, 6))) {
		t.Fatal("burst refused")
	}
	if len(keep) < metaPublishEvery {
		t.Fatalf("the tap kept %d chunks, want the first span's last ones and the second span's", len(keep))
	}
	for i := 0; i < 8; i++ {
		b := arena.Get(pcie.MaxReadReq)
		for j := range b {
			b[j] = 0xAB
		}
	}
	for i, k := range keep {
		if !bytes.Equal(k.slot, k.seen) {
			t.Fatalf("kept chunk %d changed after its span's buffer was retired", i)
		}
	}
}

// --- one record per live region ------------------------------------------------

// release drops region id with the ring's release op.
func (d *dpRig) release(id uint32) {
	d.submit(ringEntry{op: RingOpRelease, arg: uint64(id)})
}

// TestReinstalledRegionCountsFromZero: a D2H region's progress count
// goes with its release. Reinstalled under the released ID, a one-chunk
// region publishes 1 after its one chunk — not the old count plus one,
// which would claim chunks not in host memory (viewD2H checks every
// publish).
func TestReinstalledRegionCountsFromZero(t *testing.T) {
	d := newDPRig(t)
	desc := d.d2hRegion(t, 9, ctlMem+0x4000, ctlMem+0x8000, 4*ChunkSize)
	if !d.devWrite(desc.Base, burstData(4*ChunkSize, 1)) || d.sc.D2HProgress(desc.ID) != 4 {
		t.Fatal("first region not written whole")
	}
	d.release(desc.ID)
	if d.sc.Regions() != 0 || d.sc.D2HProgress(desc.ID) != 0 {
		t.Fatalf("after release: %d regions, progress %d; want 0, 0", d.sc.Regions(), d.sc.D2HProgress(desc.ID))
	}
	again := d.d2hRegion(t, desc.ID, ctlMem+0x4000, ctlMem+0x8000, ChunkSize)
	writes := d.recordHostWrites()
	if !d.devWrite(again.Base, burstData(ChunkSize, 2)) {
		t.Fatal("reinstalled region refused its chunk")
	}
	if v := viewD2H(t, again, *writes); len(v.meta) != 1 || v.meta[0] != 1 || d.sc.D2HProgress(again.ID) != 1 {
		t.Fatalf("one chunk published %v, progress %d; want [1], 1", v.meta, d.sc.D2HProgress(again.ID))
	}
}

// TestInstallUnderLiveIDRejected: one ID names one live region. A
// second install under a live ID — elsewhere in memory, overlapping
// nothing — is one config reject, and the live region is the only one:
// a device write into the refused span finds no region.
func TestInstallUnderLiveIDRejected(t *testing.T) {
	d := newDPRig(t)
	install := func(desc Descriptor) {
		d.submit(ringEntry{op: RingOpDesc, data: d.sealed(t, desc.AppendMarshal(nil))})
	}
	live := Descriptor{ID: 9, Dir: DirD2H, Class: ActionWriteReadProtect,
		Base: ctlMem + 0x4000, Len: 4 * ChunkSize, TagBase: ctlMem + 0x8000, ChunkSize: ChunkSize}
	install(live)
	twin := live
	twin.Base, twin.TagBase = ctlMem+0x10000, ctlMem+0x12000
	rejects := d.sc.Stats().ConfigRejects
	install(twin)
	if got := d.sc.Stats().ConfigRejects - rejects; got != 1 || d.sc.Regions() != 1 {
		t.Fatalf("install under a live ID: %d config rejects, %d regions; want 1, 1", got, d.sc.Regions())
	}
	if d.devWrite(twin.Base, burstData(ChunkSize, 3)) || !d.devWrite(live.Base, burstData(ChunkSize, 4)) {
		t.Fatal("a device write found the refused region, or missed the live one")
	}
}

// TestReleaseInSealKeepsNoState: a D2H region released from its
// stream's fault hook while its second span seals is gone for good. The
// span's remaining ciphertext may still land in the region's memory,
// but no tag record and no progress counter is written after the
// release, and the SC keeps no count, tag span or write span for it.
func TestReleaseInSealKeepsNoState(t *testing.T) {
	d := newDPRig(t)
	desc := d.d2hRegion(t, 9, ctlMem+0x4000, ctlMem+0x8000, pcie.MaxReadReq)
	writes := d.recordHostWrites()
	stream, err := d.sc.Params().Stream(StreamD2H)
	if err != nil {
		t.Fatal(err)
	}
	calls, mark := 0, -1
	stream.SetFaultHook(func(string) error {
		// The hook runs once per chunk as a span's batch opens: call
		// metaPublishEvery+1 opens the second span's.
		if calls++; calls == metaPublishEvery+1 {
			d.release(desc.ID)
			mark = len(*writes)
		}
		return nil
	})
	d.devWrite(desc.Base, burstData(pcie.MaxReadReq, 5))
	if mark < 0 {
		t.Fatal("the second span never sealed")
	}
	for _, w := range (*writes)[mark:] {
		if !desc.Contains(w.addr) {
			t.Fatalf("after the release the SC wrote %d bytes at %#x", len(w.body), w.addr)
		}
	}
	if d.sc.Regions() != 0 || d.sc.D2HProgress(desc.ID) != 0 || d.pendingSpans() != 0 {
		t.Fatalf("released region kept state: %d regions, progress %d, %d spans pending",
			d.sc.Regions(), d.sc.D2HProgress(desc.ID), d.pendingSpans())
	}
}
