package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ccai/internal/pcie"
	"ccai/internal/secmem"
)

// The PCIe-SC's control BAR and submission ring receive attacker-writable
// bytes; every parser on that path must reject garbage without panicking.

func FuzzUnmarshalRule(f *testing.F) {
	f.Add(Rule{ID: 1, Mask: MatchKind | MatchAddr, Kind: pcie.MWr,
		AddrLo: 0x1000, AddrHi: 0x2000, Action: ActionWriteReadProtect}.Marshal())
	f.Add(make([]byte, RuleSize))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalRule(data)
		if err != nil {
			return
		}
		// Accepted rules round-trip.
		again, err := UnmarshalRule(r.Marshal())
		if err != nil || again != r {
			t.Fatalf("rule canonicalization unstable: %v / %v", again, err)
		}
		if r.Action < ActionDrop || r.Action > actionToL2 {
			t.Fatalf("invalid action %d accepted", r.Action)
		}
	})
}

func FuzzUnmarshalDescriptor(f *testing.F) {
	f.Add(Descriptor{ID: 1, Dir: DirH2D, Class: ActionWriteReadProtect,
		Base: 0x8000_0000, Len: 4096, ChunkSize: 256}.Marshal())
	f.Add(make([]byte, DescriptorSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := UnmarshalDescriptor(data)
		if err != nil {
			return
		}
		if d.ChunkSize == 0 || d.Len == 0 {
			t.Fatal("degenerate geometry accepted")
		}
		if d.Class != ActionWriteReadProtect && d.Class != ActionWriteProtect {
			t.Fatalf("non-protect class %v accepted", d.Class)
		}
	})
}

func FuzzUnmarshalBlob(f *testing.F) {
	key, nonce := secmem.FreshKey(), secmem.FreshNonce()
	s, _ := secmem.NewStream(key, nonce)
	sealed, _ := s.Seal([]byte("config payload"), nil)
	f.Add(MarshalBlob(sealed))
	f.Add(make([]byte, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := UnmarshalBlob(data)
		if err != nil {
			return
		}
		// Structural invariant: the declared length matched the frame.
		if len(b.Ciphertext) != len(data)-12-secmem.TagSize {
			t.Fatal("length accounting broken")
		}
	})
}

func FuzzUnmarshalRekeyCommand(f *testing.F) {
	f.Add(RekeyCommand{Stream: StreamH2D, Key: secmem.FreshKey(), Nonce: secmem.FreshNonce()}.Marshal())
	f.Add([]byte{3, 'h', '2'})
	f.Fuzz(func(t *testing.T, data []byte) {
		rc, err := UnmarshalRekeyCommand(data)
		if err != nil {
			return
		}
		again, err := UnmarshalRekeyCommand(rc.Marshal())
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if again.Stream != rc.Stream || len(again.Key) != len(rc.Key) || len(again.Nonce) != len(rc.Nonce) {
			t.Fatal("rekey command canonicalization unstable")
		}
	})
}

// FuzzControllerControlWindow drives arbitrary bytes at the SC's control
// BAR: nothing may panic and no rule or region may install. The BAR
// decodes nine registers; everywhere else — the offsets sealed blobs,
// positioned tags and the guarded write's MAC record once had among them
// — a write is a config reject.
func FuzzControllerControlWindow(f *testing.F) {
	for _, off := range []uint16{0x010, 0x018, 0x040, 0x048, 0x100, 0x200, 0x300} {
		f.Add(off, []byte("garbage"))
	}
	f.Add(uint16(0x080), make([]byte, TagRecordSize*2)) // where the tag window was
	arm := binary.LittleEndian.AppendUint64(nil, ArmPosition(3, 5))
	arm = TagRecord{Stream: StreamH2D, Chunk: 9, Epoch: 0}.AppendMarshal(arm)
	f.Add(uint16(0x0c0), arm)
	f.Add(uint16(RegRingDoorbell), []byte{3})
	f.Add(uint16(0x020), []byte{1}) // where the direct region release was
	f.Add(uint16(RegTeardown), []byte{1})
	f.Fuzz(func(t *testing.T, off uint16, payload []byte) {
		keys := secmem.NewKeyStore()
		bar := pcie.Region{Base: 0xd010_0000, Size: SCBarSize}
		sc := NewController(pcie.MakeID(1, 0, 0), bar, keys)
		_ = keys.Install(StreamConfig, secmem.FreshKey(), secmem.FreshNonce())
		_ = sc.Params().Activate(StreamConfig)
		tvm := pcie.MakeID(0, 1, 0)
		unit := &MuxUnit{Ctrl: sc, Bar: bar, Window: pcie.Region{Base: 0xd000_0000, Size: 0x1000},
			XPU: pcie.MakeID(2, 0, 0), TVM: tvm}
		sc.Attach(pcie.NewBus("internal"), unit.Window, pcie.NewBus("host"))
		mux := NewMux(sc.DeviceID())
		if err := mux.AddUnit(unit); err != nil {
			t.Fatal(err)
		}

		mux.Handle(pcie.NewMemWrite(tvm, bar.Base+uint64(off)%SCBarSize, payload))
		if l1, l2 := sc.Filter().RuleCount(); l1 != 0 || l2 != 0 || sc.Regions() != 0 {
			t.Fatal("fuzzed bytes installed a filter rule or a region")
		}
	})
}

// FuzzControllerRing fuzzes the one way sealed configuration, positioned
// tags and notifies have in: raw slot bytes laid down at the head of a
// trusted SC's submission ring, and the doorbell's tail. Nothing may
// panic, and every input must end one of three ways — consumed up to the
// tail (with whatever rejects its entries earned), refused with the
// desync status word raised and the head where it was, or nothing
// published at all — never with a rule, a region or a key epoch the
// fuzzer did not seal (it holds no key, so: none).
func FuzzControllerRing(f *testing.F) {
	const firstSeq = 1 // the rig's own window install took sequence 0
	add := func(tail uint64, entries ...ringEntry) {
		var slots []byte
		for i, e := range entries {
			slots = append(slots, e.slot(firstSeq+uint32(i))...)
		}
		f.Add(slots, tail)
	}
	rec := TagRecord{Stream: StreamH2D, Chunk: 4242}.Marshal()
	// The forged entries of the ported security cells: unsealed rule,
	// descriptor and rekey command, misaimed and in-window arms.
	add(firstSeq+1, ringEntry{op: RingOpRule, data: Rule{ID: 99, Action: ActionPassThrough}.Marshal()})
	add(firstSeq+1, ringEntry{op: RingOpDesc, data: Descriptor{ID: 9, Dir: DirH2D, Class: ActionWriteReadProtect,
		Base: ctlMem, Len: 4096, ChunkSize: ChunkSize}.Marshal()})
	add(firstSeq+1, ringEntry{op: RingOpRekey, data: RekeyCommand{Stream: StreamH2D,
		Key: secmem.FreshKey(), Nonce: secmem.FreshNonce()}.Marshal()})
	add(firstSeq+3,
		ringEntry{op: RingOpTags, arg: ArmPosition(5, 64), data: rec},
		ringEntry{op: RingOpTags, arg: ArmPosition(1005, 0), data: rec},
		ringEntry{op: RingOpTags, arg: ArmPosition(5, 1), data: rec})
	add(firstSeq+1, ringEntry{op: RingOpRelease, arg: 5})
	add(firstSeq+1, ringEntry{op: RingOpGuarded, arg: ctlWin + 0x10, data: make([]byte, 8)})
	add(firstSeq+1, ringEntry{op: RingOpGuarded, arg: ctlWin + 0x10,
		data: TagRecord{Stream: StreamMMIO}.AppendMarshal(make([]byte, 8))})
	// Run records no producer wrote: length 0, past the region, past one
	// read request.
	add(firstSeq+1, ringEntry{op: RingOpTags, data: append(append(
		TagRecord{Stream: StreamA3Run, Chunk: RunKey(5, 0)}.Marshal(),
		TagRecord{Stream: StreamA3Run, Chunk: RunKey(5, 1), Epoch: 1 << 20}.Marshal()...),
		TagRecord{Stream: StreamA3Run, Chunk: RunKey(5, 2), Epoch: MaxRunSlots + 1}.Marshal()...)})
	// Framing: a sequence skew, an oversized length, opcodes 0 and 8, a
	// tail behind the head and one past the ring.
	f.Add(ringEntry{op: RingOpNotify}.slot(firstSeq+1), uint64(firstSeq+1))
	oversized := ringEntry{op: RingOpTags}.slot(firstSeq)
	binary.LittleEndian.PutUint16(oversized[2:], RingMaxData+1)
	f.Add(oversized, uint64(firstSeq+1))
	add(firstSeq+1, ringEntry{op: 0})
	add(firstSeq+1, ringEntry{op: RingOpGuarded + 1})
	add(0, ringEntry{op: RingOpNotify})
	add(firstSeq+ctlRingSlots+1, ringEntry{op: RingOpNotify})
	f.Fuzz(func(t *testing.T, slots []byte, tail uint64) {
		d := newDPRig(t)
		d.installWindow(t, 5, ctlMem+0x4000, 4)
		l1, l2 := d.sc.Filter().RuleCount()
		before := d.sc.sess.ringHead
		if before != firstSeq || d.sc.Regions() != 1 {
			t.Fatalf("rig: head %d, %d regions", before, d.sc.Regions())
		}

		d.publish(slots, tail)

		head := d.sc.sess.ringHead
		desync := len(d.hostMem[ctlRing+8]) == 8 && binary.LittleEndian.Uint64(d.hostMem[ctlRing+8]) == RingStatusDesync
		if head != tail && (head != before || !desync) {
			t.Fatalf("head %d → %d for tail %d, desync %v: neither consumed nor refused", before, head, tail, desync)
		}
		if a1, a2 := d.sc.Filter().RuleCount(); a1 != l1 || a2 != l2 {
			t.Fatal("fuzzed ring entries installed a filter rule")
		}
		if d.sc.Regions() > 1 {
			t.Fatal("fuzzed ring entries installed a region")
		}
		for _, name := range []string{StreamH2D, StreamD2H} {
			if s, err := d.sc.Params().Stream(name); err != nil || s.Epoch() != 0 {
				t.Fatalf("fuzzed ring entries rotated %s", name)
			}
		}
	})
}

// FuzzDeviceWriteBurst posts one device MWr — any offset from a live A2
// D2H region's base, up to 8 KiB of payload — at the SC. Nothing may
// panic, and the write ends one of two ways. Refused: one auth failure
// or filter drop, nothing staged, nothing on the host segment. Taken:
// once the rest of the region is written chunk by chunk (the chunks
// after the burst, then those before it), every chunk the burst carried
// sits in host memory as the ciphertext and tag record that open to its
// bytes. Either way the SC's host writes are only ciphertext chunks, tag
// records and progress counters (viewD2H), and no plaintext chunk of the
// burst appears in any of them.
func FuzzDeviceWriteBurst(f *testing.F) {
	const cs = ChunkSize
	f.Add(int64(0), uint16(16*cs), burstData(16*cs, 1))
	f.Add(int64(0), uint16(2*cs+128), burstData(2*cs+128, 2))
	f.Add(int64(4*cs), uint16(24*cs), burstData(16*cs, 3))
	f.Add(int64(0), uint16(24*cs), burstData(3*cs, 4))
	f.Add(int64(cs/2), uint16(16*cs), make([]byte, 2*cs))
	f.Add(int64(0), uint16(4*cs), make([]byte, 3*cs+1))
	f.Add(int64(0), uint16(32*cs), make([]byte, 17*cs))
	f.Add(int64(-cs), uint16(4*cs), make([]byte, cs))
	f.Add(int64(ctlMemN), uint16(4*cs), make([]byte, cs))
	f.Fuzz(func(t *testing.T, off int64, regionLen uint16, payload []byte) {
		payload = payload[:min(len(payload), 8<<10)]
		d := newDPRig(t)
		// As on a platform: the device stages its writes in the arena and
		// the SC gives them back zeroed once sealed.
		d.sc.EnableDatapathRecycling()
		n := int(regionLen)%(32*cs) + 1
		desc := d.d2hRegion(t, 9, ctlMem+0x10000, ctlMem+0x20000, n)
		writes := d.recordHostWrites()
		taken := d.devWrite(desc.Base+uint64(off), deviceStaging(payload))

		end := off + int64(len(payload))
		valid := off >= 0 && off%cs == 0 && len(payload) > 0 && len(payload) <= pcie.MaxReadReq &&
			end <= int64(n) && (len(payload)%cs == 0 || end == int64(n))
		if taken != valid {
			t.Fatalf("write of %d bytes at offset %d into %d: taken %v, valid %v", len(payload), off, n, taken, valid)
		}
		if !taken {
			if len(*writes) != 0 || d.pendingSpans() != 0 {
				t.Fatalf("refused write left %d host writes, %d spans pending", len(*writes), d.pendingSpans())
			}
			return
		}
		first, last := int(off/cs), int((end-1)/cs)
		fill := func(j int) []byte { return bytes.Repeat([]byte{byte(j)}, int(min(cs, int64(n)-int64(j*cs)))) }
		for _, span := range [][2]int{{last + 1, chunkCount(desc)}, {0, first}} {
			for j := span[0]; j < span[1]; j++ {
				if !d.devWrite(desc.Base+uint64(j*cs), deviceStaging(fill(j))) {
					t.Fatalf("fill chunk %d refused", j)
				}
			}
		}
		v := viewD2H(t, desc, *writes)
		for j := first; j <= last; j++ {
			pt := payload[(j-first)*cs : min((j-first+1)*cs, len(payload))]
			if !d.opens(desc, v, j, pt) {
				t.Fatalf("chunk %d of the burst does not open to its bytes", j)
			}
			if len(pt) < 32 {
				continue // too short to tell from chance
			}
			for _, w := range *writes {
				if bytes.Contains(w.body, pt) {
					t.Fatalf("chunk %d's plaintext on the host segment at %#x", j, w.addr)
				}
			}
		}
		if got := v.meta[len(v.meta)-1]; got != uint64(chunkCount(desc)) {
			t.Fatalf("region of %d chunks ends with the counter at %d", chunkCount(desc), got)
		}
	})
}

// FuzzDecryptRead aims one device read — any offset from an A2 H2D
// region's base, any length — at a region of up to 64 chunks staged
// under any ChunkSize, with every tag queued. Nothing may panic, and the
// read ends one of two ways. Served: its geometry is valid (chunk-aligned
// start, 1 to MaxReadReq bytes, inside the region, at most 16 chunks)
// and it ends on a chunk boundary or at the region's end; the device
// gets exactly those plaintext bytes, after one host fetch. Refused: one
// auth failure or filter drop and nothing served — with no host fetch
// and no tag spent when the geometry is invalid, and after one fetch
// when a valid read ends inside a chunk, whose tag then fails.
func FuzzDecryptRead(f *testing.F) {
	// add seeds a read of length bytes at off from a region of region
	// bytes in chunks of chunk.
	add := func(off int64, length, chunk, region int) {
		f.Add(off, uint16(length), uint16(chunk-1), uint16(region-1))
	}
	const cs = ChunkSize
	add(0, 16*cs, cs, 16*cs)
	add(4*cs, cs, cs, 8*cs)
	add(cs, cs+128, cs, 2*cs+128)
	add(0, cs+1, cs, 4*cs)
	add(cs/2, cs, cs, 4*cs)
	add(0, 0, cs, 4*cs)
	add(0, 2*pcie.MaxReadReq, cs, 32*cs)
	add(6*cs, 3*cs, cs, 8*cs)
	add(0, 17*64, 64, 32*64)
	add(0, 16*64, 64, 32*64)
	add(0, 300, 5000, 300)
	add(-cs, cs, cs, 4*cs)
	add(ctlMemN, cs, cs, 4*cs)
	f.Fuzz(func(t *testing.T, off int64, length, chunkSize, regionLen uint16) {
		const base = ctlMem + 0x10000
		d := newDPRig(t)
		cs := int64(chunkSize) + 1
		n := int64(regionLen)%min(64*cs, 32<<10) + 1
		data := burstData(int(n), byte(chunkSize))
		d.stageA2(t, 7, base, data, uint32(cs))
		fetches, before, depth := d.countDataFetches(), d.sc.Stats(), d.sc.Tags().Depth()

		got := d.devRead(base+uint64(off), uint32(length))

		after := d.sc.Stats()
		refusals := after.AuthFailures + after.Filter.Dropped - before.AuthFailures - before.Filter.Dropped
		end, k := off+int64(length), (int64(length)+cs-1)/cs
		valid := off >= 0 && off%cs == 0 && length > 0 && length <= pcie.MaxReadReq && end <= n && k <= spanChunks
		switch {
		case valid && (int64(length)%cs == 0 || end == n):
			if !bytes.Equal(got, data[off:end]) || *fetches != 1 || refusals != 0 {
				t.Fatalf("read of %d B at %d of %d (chunk %d): served %d B (want the plaintext), %d fetches, %d refusals",
					length, off, n, cs, len(got), *fetches, refusals)
			}
		case valid:
			if got != nil || *fetches != 1 || after.AuthFailures != before.AuthFailures+1 {
				t.Fatalf("read of %d B at %d of %d (chunk %d) ending inside a chunk: served %d B, %d fetches, %d auth failures",
					length, off, n, cs, len(got), *fetches, after.AuthFailures-before.AuthFailures)
			}
		default:
			if got != nil || *fetches != 0 || refusals != 1 || d.sc.Tags().Depth() != depth {
				t.Fatalf("read of %d B at %d of %d (chunk %d): served %d B, %d fetches, %d refusals, %d tags spent; want none, none, 1, none",
					length, off, n, cs, len(got), *fetches, refusals, depth-d.sc.Tags().Depth())
			}
		}
	})
}

// FuzzVerifiedRead aims one device read — any offset from an A3 region's
// base, any length — at a 64-slot command ring with a script of queued run
// records. A record op is three bytes: first slot, run length − 1, flags:
// the low two bits make the length the record claims the run's, one more,
// one less or zero, and bit 7 flips a byte of the run in host memory after
// its MAC was taken. Nothing may panic, and the read ends one of three
// ways. Served: the newest record at the read's first slot claims exactly
// the read's slots, its MAC verifies over the host's bytes, and those bytes
// are what the device gets, with one host fetch. Fetched and refused: such
// a record's MAC does not verify — one fetch, one auth failure. Refused
// unfetched: anything else — one auth failure or filter drop, no fetch.
func FuzzVerifiedRead(f *testing.F) {
	f.Add(int64(0), uint16(3*64), []byte{0, 2, 0})
	f.Add(int64(0), uint16(2*64), []byte{0, 2, 0})
	f.Add(int64(0), uint16(5*64), []byte{0, 2, 0, 3, 1, 0})
	f.Add(int64(3*64), uint16(2*64), []byte{0, 2, 0, 3, 1, 0})
	f.Add(int64(0), uint16(64*64), []byte{0, 63, 0})
	f.Add(int64(0), uint16(3*64), []byte{0, 2, 0x81})
	f.Add(int64(0), uint16(3*64), []byte{0, 2, 1})
	f.Add(int64(0), uint16(3*64), []byte{0, 2, 0, 0, 2, 0x80})
	f.Add(int64(32), uint16(3*64), []byte{0, 2, 0})
	f.Add(int64(62*64), uint16(3*64), []byte{62, 2, 0})
	f.Add(int64(-64), uint16(64), []byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, off int64, length uint16, script []byte) {
		const slots = 64
		a := newA3Rig(t, slots)
		type posted struct {
			first uint32
			tag   [secmem.TagSize]byte
			claim uint32
		}
		var recs []posted
		for i := 0; i+3 <= len(script) && i < 3*16; i += 3 {
			first := uint32(script[i]) % slots
			n := min(uint32(script[i+1])%slots+1, slots-first)
			flags := script[i+2]
			claim := [...]uint32{n, n + 1, n - 1, 0}[flags&3]
			a.post(first, n, claim)
			rec, _ := a.sc.Tags().Peek(StreamA3Run, RunKey(a.desc.ID, first))
			recs = append(recs, posted{first, rec.Tag, claim})
			if flags&0x80 != 0 {
				a.slots[first+uint32(flags>>2&0x1f)%n][flags&0x3f] ^= 0x40
				a.sync()
			}
		}

		// The oracle: the read's run, and the newest record naming its slot.
		k := uint32(length) / 64
		aligned := off >= 0 && off%64 == 0 && length%64 == 0 && k >= 1 && off/64+int64(k) <= slots
		var rec *posted
		for i := range recs {
			if aligned && recs[i].first == uint32(off/64) {
				rec = &recs[i]
			}
		}
		want := []byte(nil)
		candidate := rec != nil && rec.claim == k
		if candidate {
			first := uint32(off / 64)
			var hdr [16]byte
			PutRunMACHeader(&hdr, a.desc.ID, first, k, k*64)
			bytesNow := bytes.Join(a.slots[first:first+k], nil)
			if mac := secmem.MAC(a.mmioKy, hdr[:], bytesNow); bytes.Equal(mac[:secmem.TagSize], rec.tag[:]) {
				want = bytesNow
			}
		}

		before := a.sc.Stats()
		got := a.readAt(uint64(off), uint64(length))
		after := a.sc.Stats()
		refusals := after.AuthFailures + after.Filter.Dropped - before.AuthFailures - before.Filter.Dropped
		switch {
		case want != nil:
			if !bytes.Equal(got, want) || a.fetches != 1 || refusals != 0 || after.VerifiedChunks != uint64(k) {
				t.Fatalf("read of %d B at %d: served %d B (want the %d verified), %d fetches, %d refusals, %d verified slots",
					length, off, len(got), len(want), a.fetches, refusals, after.VerifiedChunks)
			}
		case candidate:
			if got != nil || a.fetches != 1 || after.AuthFailures != before.AuthFailures+1 || after.VerifiedChunks != 0 {
				t.Fatalf("read of %d B at %d against a run that fails its MAC: served %d B, %d fetches, %d auth failures",
					length, off, len(got), a.fetches, after.AuthFailures-before.AuthFailures)
			}
		default:
			if got != nil || a.fetches != 0 || refusals != 1 || after.VerifiedChunks != 0 {
				t.Fatalf("read of %d B at %d: served %d B, %d fetches, %d refusals; want none, none, 1",
					length, off, len(got), a.fetches, refusals)
			}
		}
	})
}
