package core

import (
	"bytes"
	"encoding/binary"
	"slices"
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
		Base: 0x8000_0000, Len: 4096, ChunkSize: 256}.AppendMarshal(nil))
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
// published at all (a tail at or behind the head: re-reaped, no status
// raised) — never with a rule, a region or a key epoch the fuzzer did
// not seal (it holds no config key, so: none). The seeds carry seals
// under the rigs' fixed ring-seal key, so theirs reach dispatch; a
// mutated seed's seal no longer checks.
func FuzzControllerRing(f *testing.F) {
	const first = 1 // the rig's own window install took ring slot 0
	keys := ctlSealKeys(f)
	add := func(tail uint64, entries ...ringEntry) {
		var slots []byte
		for _, e := range entries {
			slots = append(slots, e.slot()...)
		}
		if tail == first+uint64(len(entries)) {
			slots, tail = sealSpan(keys, slots, first)
		}
		f.Add(slots, doorbell(slots, tail))
	}
	run := func(n uint32, body int) []byte {
		return append(binary.LittleEndian.AppendUint32(nil, n), make([]byte, body)...)
	}
	rec := TagRecord{Stream: StreamH2D, Chunk: 4242}.AppendMarshal(nil)
	// The forged entries of the ported security cells: unsealed rule,
	// descriptor and rekey command, misaimed and in-window arms.
	add(first+1, ringEntry{op: RingOpRule, data: Rule{ID: 99, Action: ActionPassThrough}.Marshal()})
	add(first+1, ringEntry{op: RingOpDesc, data: Descriptor{ID: 9, Dir: DirH2D, Class: ActionWriteReadProtect,
		Base: ctlMem, Len: 4096, ChunkSize: ChunkSize}.AppendMarshal(nil)})
	add(first+1, ringEntry{op: RingOpRekey, data: RekeyCommand{Stream: StreamH2D,
		Key: secmem.FreshKey(), Nonce: secmem.FreshNonce()}.Marshal()})
	add(first+3,
		ringEntry{op: RingOpTags, arg: ArmPosition(5, 64), data: rec},
		ringEntry{op: RingOpTags, arg: ArmPosition(1005, 0), data: rec},
		ringEntry{op: RingOpTags, arg: ArmPosition(5, 1), data: rec})
	add(first+1, ringEntry{op: RingOpRelease, arg: 5})
	add(first+1, ringEntry{op: RingOpGuarded, arg: ctlWin + 0x10, data: make([]byte, 8)})
	add(first+1, ringEntry{op: RingOpGuarded, arg: ctlWin + 0x10})
	// Run entries: one the A3 region holds, and the refused — one
	// positioned at the window, a non-A3 region, and a run longer than
	// MaxRunSlots.
	add(first+1, ringEntry{op: RingOpRun, arg: ArmPosition(7, 0), data: run(3, 3)})
	add(first+1, ringEntry{op: RingOpRun, arg: ArmPosition(5, 1), data: run(1, 64)})
	add(first+1, ringEntry{op: RingOpRun, arg: ArmPosition(7, 0), data: run(MaxRunSlots+1, MaxRunSlots+1)})
	// Doorbell ends the SC refuses: one that cuts the seal, 0 (a bare
	// tail) and one past the slot.
	notify, tail := sealSpan(keys, ringEntry{op: RingOpNotify, arg: 5}.slot(), first)
	f.Add(notify, doorbell(notify, tail)-1<<RingTailBits)
	f.Add(notify, tail)
	f.Add(notify, RingDoorbell(tail, RingSlotSize+1))
	// Tag entries the SC refuses: no position (arg 0), a position past
	// the window's table, one at the D2H region, and a re-arm of the
	// slot the device consumed under another counter.
	add(first+1, ringEntry{op: RingOpTags, data: rec})
	add(first+1, ringEntry{op: RingOpTags, arg: ArmPosition(5, 4), data: rec})
	add(first+1, ringEntry{op: RingOpTags, arg: ArmPosition(6, 0), data: rec})
	add(first+1, ringEntry{op: RingOpTags, arg: ArmPosition(5, 0), data: rec})
	// A stale slot from the previous lap: a notify sealed where it sits,
	// one lap of the ring earlier (modulo 2^64), which the seal refuses.
	// Framing: an oversized length, opcodes 0 and 8 and a tail past the
	// ring; and a stale doorbell, its tail behind the head, which is
	// re-reaped.
	lapBack := uint64(first)
	lapBack -= ctlRingSlots
	stale, _ := sealSpan(keys, ringEntry{op: RingOpNotify}.slot(), lapBack)
	f.Add(stale, doorbell(stale, first+1))
	oversized := ringEntry{op: RingOpTags}.slot()
	binary.LittleEndian.PutUint16(oversized[2:], RingMaxData+1)
	f.Add(oversized, doorbell(oversized, first+1))
	add(first+1, ringEntry{op: 0})
	add(first+1, ringEntry{op: RingOpRun + 1})
	add(0, ringEntry{op: RingOpNotify})
	add(first+ctlRingSlots+1, ringEntry{op: RingOpNotify})
	// Packed slots: a well-framed chain of an arm, a notify and a
	// release, then chains broken each way the SC refuses — a more bit
	// with no room left for a header, a sub-entry running past the slot
	// or edited after the seal, an unknown flag bit, op 0 behind a more
	// bit.
	chain := []ringEntry{{op: RingOpTags, arg: ArmPosition(5, 1), data: rec}, {op: RingOpNotify, arg: 5}, {op: RingOpRelease, arg: 5}}
	second := RingEntryHdrSize + len(rec) // the notify's header
	broken := func(edit func(s []byte)) {
		s, tail := sealSpan(keys, packed(chain...), first)
		edit(s)
		f.Add(s, doorbell(s, tail))
	}
	broken(func([]byte) {})
	broken(func(s []byte) {
		copy(s, packed(chain[0], ringEntry{op: RingOpRule, data: make([]byte, RingSlotSize-second-RingEntryHdrSize-8)}))
		s[second+1] |= RingFlagMore
	})
	broken(func(s []byte) { binary.LittleEndian.PutUint16(s[second+2:], RingMaxData) })
	broken(func(s []byte) { s[second+4] ^= 1 })
	broken(func(s []byte) { s[second+1] |= 0x40 })
	broken(func(s []byte) { clear(s[second+RingEntryHdrSize:]) })
	// Seals that do not check: none, one with an entry behind it, a wrong
	// tag, a tag over another (head, tail), and a span sealed for another
	// lap of the ring (the SC's head is first, not first+2^32).
	sealAt := second + 2*RingEntryHdrSize // behind the notify and the release
	f.Add(packed(chain...), doorbell(packed(chain...), first+1))
	broken(func(s []byte) {
		s[sealAt+1] |= RingFlagMore
		PutRingEntry((*[RingEntryHdrSize]byte)(s[sealAt+RingSealSize:]), RingOpNotify, 0, 5)
	})
	broken(func(s []byte) { s[sealAt+RingEntryHdrSize] ^= 1 })
	reseal := func(head, tail uint64) {
		broken(func(s []byte) {
			nonce := make([]byte, secmem.GCMNonceSize)
			PutRingSealNonce(nonce, head, tail)
			_ = keys.GMAC(KeyRingSeal, nonce, s[:sealAt+RingEntryHdrSize], s[sealAt+RingEntryHdrSize:][:secmem.TagSize])
		})
	}
	reseal(first-1, first+1)
	reseal(first+1<<32, first+1+1<<32)
	f.Fuzz(func(t *testing.T, slots []byte, db uint64) {
		d := newDPRig(t)
		w := d.installWindow(t, 5, ctlMem+0x4000, 4)
		// Slot 0 armed and consumed, a D2H region beside the window, and an
		// A3 region of one-byte slots.
		d.postTags(w.ID, 0, d.sealSlot(t, w, 0, bytes.Repeat([]byte{7}, 32)))
		if _, ok := d.readSlot(w, 0); !ok || !d.sc.install(Descriptor{ID: 6, Dir: DirD2H, Class: ActionWriteReadProtect,
			Base: ctlMem + 0x8000, Len: ChunkSize, ChunkSize: ChunkSize}) || !d.sc.install(Descriptor{ID: 7, Dir: DirH2D,
			Class: ActionWriteProtect, Base: ctlMem + 0x9000, Len: 2 * MaxRunSlots, ChunkSize: 1}) {
			t.Fatal("rig: slot 0 unread, or the D2H or A3 region refused")
		}
		l1, l2 := d.sc.Filter().RuleCount()
		before := d.sc.sess.ringHead
		if before != first || d.sc.Regions() != 3 {
			t.Fatalf("rig: head %d, %d regions", before, d.sc.Regions())
		}

		d.ring(slots, db)
		tail := db & (1<<RingTailBits - 1)

		head := d.sc.sess.ringHead
		desync := len(d.hostMem[ctlRing+8]) == 8 && binary.LittleEndian.Uint64(d.hostMem[ctlRing+8]) == RingStatusDesync
		stale := tail < before // re-reaped: the head where it was, no status raised
		if stale && (head != before || desync) || !stale && head != tail && (head != before || !desync) {
			t.Fatalf("head %d → %d for tail %d, desync %v: neither consumed, refused nor re-reaped", before, head, tail, desync)
		}
		if a1, a2 := d.sc.Filter().RuleCount(); a1 != l1 || a2 != l2 {
			t.Fatal("fuzzed ring entries installed a filter rule")
		}
		if d.sc.Regions() > 3 {
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
// D2H region's base, up to 8 KiB of payload — at the SC, the region in
// ChunkSize chunks or, when bulk, in MaxReadReq chunks. Nothing may
// panic, and the write ends one of two ways. Refused: one auth failure
// or filter drop, nothing staged, nothing on the host segment. Taken:
// once the rest of the region is written chunk by chunk (the chunks
// after the burst, then those before it), every chunk the burst carried
// sits in host memory as the ciphertext and tag record that open to its
// bytes. Either way the SC's host writes are only ciphertext chunks, in
// MaxPayload MWrs, tag records and progress counters (viewD2H), and no
// plaintext chunk of the burst appears in any of them.
func FuzzDeviceWriteBurst(f *testing.F) {
	const cs, big = ChunkSize, pcie.MaxReadReq
	f.Add(int64(0), uint16(16*cs), burstData(16*cs, 1), false)
	f.Add(int64(0), uint16(2*cs+128), burstData(2*cs+128, 2), false)
	f.Add(int64(4*cs), uint16(24*cs), burstData(16*cs, 3), false)
	f.Add(int64(0), uint16(24*cs), burstData(3*cs, 4), false)
	f.Add(int64(cs/2), uint16(16*cs), make([]byte, 2*cs), false)
	f.Add(int64(0), uint16(4*cs), make([]byte, 3*cs+1), false)
	f.Add(int64(0), uint16(32*cs), make([]byte, 17*cs), false)
	f.Add(int64(-cs), uint16(4*cs), make([]byte, cs), false)
	f.Add(int64(ctlMemN), uint16(4*cs), make([]byte, cs), false)
	// Bulk chunks: one whole, one at the region's tail, one mid-chunk.
	f.Add(int64(big), uint16(4*big), burstData(big, 5), true)
	f.Add(int64(2*big), uint16(2*big+300), burstData(300, 6), true)
	f.Add(int64(big/2), uint16(4*big), burstData(big, 7), true)
	f.Fuzz(func(t *testing.T, off int64, regionLen uint16, payload []byte, bulk bool) {
		payload = payload[:min(len(payload), 8<<10)]
		cs := int64(ChunkSize)
		if bulk {
			cs = pcie.MaxReadReq
		}
		d := newDPRig(t)
		// As on a platform: the device stages its writes in the arena and
		// the SC gives them back zeroed once sealed.
		d.sc.EnableDatapathRecycling()
		n := int(int64(regionLen)%(32*cs)) + 1
		desc := d.d2hRegionIn(t, 9, ctlMem+0x10000, ctlMem+0x50000, n, uint32(cs))
		writes := d.recordHostWrites()
		taken := d.devWrite(desc.Base+uint64(off), deviceStaging(payload))

		end := off + int64(len(payload))
		valid := off >= 0 && off%cs == 0 && len(payload) > 0 && len(payload) <= pcie.MaxReadReq &&
			end <= int64(n) && (int64(len(payload))%cs == 0 || end == int64(n))
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
		fill := func(j int) []byte { return bytes.Repeat([]byte{byte(j)}, int(min(cs, int64(n)-int64(j)*cs))) }
		for _, span := range [][2]int{{last + 1, chunkCount(desc)}, {0, first}} {
			for j := span[0]; j < span[1]; j++ {
				if !d.devWrite(desc.Base+uint64(int64(j)*cs), deviceStaging(fill(j))) {
					t.Fatalf("fill chunk %d refused", j)
				}
			}
		}
		v := viewD2H(t, desc, *writes)
		for j := first; j <= last; j++ {
			pt := payload[int64(j-first)*cs : min(int64(j-first+1)*cs, int64(len(payload)))]
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
// read ends one of two ways. Served: its geometry is valid (1 to
// MaxReadReq bytes, inside the region, the chunks it touches at most 16
// and, when they are more than MaxReadReq bytes, each at most
// MaxReadReq); the device gets exactly those plaintext bytes, after the
// host fetches of the touched chunks — one, or one per MaxReadReq of
// whole chunks, the last taking the rest when it fits. Refused: one auth
// failure or filter drop and nothing served, with no host fetch and no
// tag spent.
func FuzzDecryptRead(f *testing.F) {
	// add seeds a read of length bytes at off from a region of region
	// bytes in chunks of chunk.
	add := func(off int64, length, chunk, region int) {
		f.Add(off, uint16(length), uint16(chunk-1), uint16(region-1))
	}
	const cs, big = ChunkSize, pcie.MaxReadReq
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
	// Bulk regions' chunks: whole, inside one, across two, to the tail.
	add(big, big, big, 8*big)
	add(1024, 1024, big, 4*big)
	add(big/2, big, big, 4*big)
	add(3*big-100, 200, big, 3*big+100)
	add(100, 3000, 3000, 9000)
	f.Fuzz(func(t *testing.T, off int64, length, chunkSize, regionLen uint16) {
		const base = ctlMem + 0x10000
		d := newDPRig(t)
		cs := int64(chunkSize) + 1
		n := int64(regionLen)%min(64*cs, 32<<10) + 1
		data := burstData(int(n), byte(chunkSize))
		d.stageA2(t, 7, base, data, uint32(cs))
		fetches, before, depth := d.countDataFetches(), d.sc.Stats(), d.sc.PendingTags()

		got := d.devRead(base+uint64(off), uint32(length))

		after := d.sc.Stats()
		refusals := after.AuthFailures + after.Filter.Dropped - before.AuthFailures - before.Filter.Dropped
		end := off + int64(length)
		if off >= 0 && length > 0 && length <= pcie.MaxReadReq && end <= n {
			lo, hi := off/cs*cs, min((end+cs-1)/cs*cs, n)
			if (hi-lo+cs-1)/cs <= spanChunks && (cs <= pcie.MaxReadReq || hi-lo <= pcie.MaxReadReq) {
				want := 1
				if over := hi - lo - pcie.MaxReadReq; over > 0 {
					per := pcie.MaxReadReq / cs * cs
					want += int((over + per - 1) / per) // fetches of per bytes until the rest fits one
				}
				if !bytes.Equal(got, data[off:end]) || *fetches != want || refusals != 0 {
					t.Fatalf("read of %d B at %d of %d (chunk %d): served %d B (want the plaintext), %d fetches (want %d), %d refusals",
						length, off, n, cs, len(got), *fetches, want, refusals)
				}
				return
			}
		}
		if got != nil || *fetches != 0 || refusals != 1 || d.sc.PendingTags() != depth {
			t.Fatalf("read of %d B at %d of %d (chunk %d): served %d B, %d fetches, %d refusals, %d tags spent; want none, none, 1, none",
				length, off, n, cs, len(got), *fetches, refusals, depth-d.sc.PendingTags())
		}
	})
}

// FuzzVerifiedRead aims one device read — any offset from an A3 region's
// base, any length — at a 64-slot command ring with a script of run
// entries. An op is three bytes: first slot, run length − 1, flags: the
// low two bits make the length the entries name the run's, one more, one
// less or zero, and bit 7 flips a byte of the run in host memory after
// its entries went out. A run goes on at slot 0 past the ring's end. A
// reference written from region.hold's rules predicts the runs the SC
// holds and their bytes. Nothing may panic, and the read ends one of two
// ways, with no host fetch either way. Served: a whole held run starts at
// the read's first slot and the read is its first, to the run's end or
// the ring's, and the device gets the bytes its entries carried.
// Refused: anything else — one auth failure or filter drop.
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
	f.Add(int64(62*64), uint16(2*64), []byte{62, 2, 0})
	f.Add(int64(0), uint16(64), []byte{0, 2, 0, 62, 2, 0})
	f.Add(int64(-64), uint16(64), []byte{0, 0, 0})
	f.Add(int64(0), uint16(4*64), []byte{0, 2, 1, 3, 0, 1})
	f.Fuzz(func(t *testing.T, off int64, length uint16, script []byte) {
		const slots = 64
		a := newA3Rig(t, slots)
		type refRun struct {
			first, n uint32
			data     []byte
		}
		var held []refRun
		hold := func(slot, claim uint32, body []byte) {
			k := uint32(len(body)) / 64
			last := len(held) - 1
			if claim == 0 || claim > min(MaxRunSlots, slots, pcie.MaxReadReq/64) {
				return
			}
			if last < 0 || uint32(len(held[last].data))/64 == held[last].n || held[last].n != claim ||
				(held[last].first+uint32(len(held[last].data))/64)%slots != slot {
				if k > claim {
					return
				}
				held = slices.DeleteFunc(held, func(h refRun) bool {
					return (slot+slots-h.first)%slots < h.n || (h.first+slots-slot)%slots < claim
				})
				held = append(held, refRun{first: slot, n: claim})
				last = len(held) - 1
			}
			if uint32(len(held[last].data))/64+k <= claim {
				held[last].data = append(held[last].data, body...)
			}
		}
		for i := 0; i+3 <= len(script) && i < 3*16; i += 3 {
			first := uint32(script[i]) % slots
			n := uint32(script[i+1])%slots + 1
			flags := script[i+2]
			claim := [...]uint32{n, n + 1, n - 1, 0}[flags&3]
			a.post(first, n, claim)
			for _, e := range runEntries(a.desc.ID, first, n, claim, a.slots) {
				hold(uint32(e.arg), claim, e.data[RunHdrSize:])
			}
			if flags&0x80 != 0 {
				a.slots[(first+uint32(flags>>2&0x1f)%n)%slots][flags&0x3f] ^= 0x40
				a.sync()
			}
		}

		// The oracle: the whole held run at the read's first slot, its
		// first read of the read's length.
		k := uint32(length) / 64
		var want []byte
		if off >= 0 && off%64 == 0 && length%64 == 0 && k >= 1 && off/64+int64(k) <= slots {
			for _, h := range held {
				if h.first == uint32(off/64) && min(h.n, slots-h.first) == k && uint32(len(h.data)) == h.n*64 {
					want = h.data[:k*64]
				}
			}
		}

		before := a.sc.Stats()
		got := a.readAt(uint64(off), uint64(length))
		after := a.sc.Stats()
		refusals := after.AuthFailures + after.Filter.Dropped - before.AuthFailures - before.Filter.Dropped
		if want != nil {
			if !bytes.Equal(got, want) || a.fetches != 0 || refusals != 0 || after.VerifiedChunks != uint64(k) {
				t.Fatalf("read of %d B at %d: served %d B (want the %d held), %d fetches, %d refusals, %d verified slots",
					length, off, len(got), len(want), a.fetches, refusals, after.VerifiedChunks)
			}
		} else if got != nil || a.fetches != 0 || refusals != 1 || after.VerifiedChunks != 0 {
			t.Fatalf("read of %d B at %d: served %d B, %d fetches, %d refusals; want none, none, 1",
				length, off, len(got), a.fetches, refusals)
		}
	})
}
