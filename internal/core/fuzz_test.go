package core

import (
	"encoding/binary"
	"testing"

	"ccai/internal/pcie"
	"ccai/internal/secmem"
)

// The PCIe-SC's configuration windows receive attacker-writable bytes;
// every parser on that path must reject garbage without panicking.

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

// FuzzControllerControlWindow drives arbitrary bytes at the SC's
// configuration surface end to end: nothing may panic, and no rule may
// install without a valid seal.
func FuzzControllerControlWindow(f *testing.F) {
	f.Add(uint16(RegRuleWindow), []byte("garbage"))
	f.Add(uint16(RegDescWindow), make([]byte, 64))
	f.Add(uint16(RegRekeyWindow), make([]byte, 40))
	f.Add(uint16(RegTagWindow), make([]byte, TagRecordSize*2))
	// Positioned tag uploads: a well-formed arm for a window that does
	// not exist, a short position word, and a ragged record tail.
	arm := binary.LittleEndian.AppendUint64(nil, ArmPosition(3, 5))
	arm = TagRecord{Stream: StreamH2D, Chunk: 9, Epoch: 0}.AppendMarshal(arm)
	f.Add(uint16(RegTagArm), arm)
	f.Add(uint16(RegTagArm), arm[:5])
	f.Add(uint16(RegTagArm), arm[:len(arm)-3])
	f.Fuzz(func(t *testing.T, off uint16, payload []byte) {
		keys := secmem.NewKeyStore()
		sc := NewController(pcie.MakeID(1, 0, 0), pcie.Region{Base: 0xd010_0000, Size: SCBarSize}, keys)
		_ = keys.Install(StreamConfig, secmem.FreshKey(), secmem.FreshNonce())
		_ = sc.Params().Activate(StreamConfig)
		tvm := pcie.MakeID(0, 1, 0)
		sc.SetAuthorizedTVM(tvm)

		addr := 0xd010_0000 + uint64(off)%SCBarSize
		sc.Handle(pcie.NewMemWrite(tvm, addr, payload))
		// Ring every doorbell after the write.
		for _, db := range []uint64{RegRuleDoorbell, RegDescDoorbell, RegRekeyDoorbell} {
			sc.Handle(pcie.NewMemWrite(tvm, 0xd010_0000+db, []byte{1, 0, 0, 0, 0, 0, 0, 0}))
		}
		l1, l2 := sc.Filter().RuleCount()
		if l1 != 0 || l2 != 0 {
			t.Fatal("fuzzed bytes installed a filter rule")
		}
	})
}
