package pcie

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestIDPacking(t *testing.T) {
	id := MakeID(0x3a, 0x1f, 0x7)
	if id.Bus() != 0x3a || id.Device() != 0x1f || id.Function() != 0x7 {
		t.Fatalf("round trip failed: %v", id)
	}
	if s := id.String(); s != "3a:1f.7" {
		t.Fatalf("String() = %q", s)
	}
}

func TestKindProperties(t *testing.T) {
	withData := map[Kind]bool{MRd: false, MWr: true, Cpl: false, CplD: true, CfgRd: false, CfgWr: true, Msg: false, MsgD: true}
	for k, want := range withData {
		if k.HasPayload() != want {
			t.Errorf("%v.HasPayload() = %v, want %v", k, k.HasPayload(), want)
		}
	}
}

func roundTrip(t *testing.T, p *Packet) *Packet {
	t.Helper()
	wire := p.SerializeInto(nil)
	q, err := Unmarshal(wire)
	if err != nil {
		t.Fatalf("Unmarshal(%v): %v", p, err)
	}
	return q
}

func TestMarshalRoundTripMemWrite(t *testing.T) {
	payload := []byte("confidential model weights fragment")
	p := NewMemWrite(MakeID(0, 2, 0), 0x1_0000_2000, payload)
	q := roundTrip(t, p)
	if q.Kind != MWr || q.Address != p.Address || q.Requester != p.Requester {
		t.Fatalf("header mismatch: %v vs %v", q, p)
	}
	if !bytes.Equal(q.Payload, payload) {
		t.Fatalf("payload mismatch: %q", q.Payload)
	}
}

func TestMarshalRoundTripMemRead32bit(t *testing.T) {
	p := NewMemRead(MakeID(1, 0, 0), 0xfee0_0000, 64, 9)
	q := roundTrip(t, p)
	if q.Kind != MRd || q.Address != p.Address || q.Length != 64 || q.Tag != 9 {
		t.Fatalf("mismatch: %+v", q.Header)
	}
}

func TestMarshalRoundTripCompletion(t *testing.T) {
	req := NewMemRead(MakeID(0, 1, 0), 0x9000, 16, 3)
	cpl := NewCompletion(req, MakeID(2, 0, 0), CplSuccess, []byte("0123456789abcdef"))
	q := roundTrip(t, cpl)
	if q.Kind != CplD || q.Requester != req.Requester || q.Tag != 3 || q.Status != CplSuccess {
		t.Fatalf("completion mismatch: %+v", q.Header)
	}
	if q.Completer != MakeID(2, 0, 0) {
		t.Fatalf("completer = %v", q.Completer)
	}
}

func TestMarshalRoundTripURCompletion(t *testing.T) {
	req := NewMemRead(MakeID(0, 1, 0), 0x9000, 16, 3)
	cpl := NewCompletion(req, MakeID(2, 0, 0), CplUR, nil)
	q := roundTrip(t, cpl)
	if q.Kind != Cpl || q.Status != CplUR {
		t.Fatalf("UR completion mismatch: %+v", q.Header)
	}
}

func TestMarshalRoundTripMessage(t *testing.T) {
	p := &Packet{Header: Header{Kind: MsgD, Requester: MakeID(2, 0, 0), Address: 0x42, Length: 3}, Payload: []byte{1, 2, 3}}
	q := roundTrip(t, p)
	if q.Kind != MsgD || q.Address != 0x42 || !bytes.Equal(q.Payload, []byte{1, 2, 3}) {
		t.Fatalf("message mismatch: %v", q)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		make([]byte, 15),
		append(make([]byte, 12), 0xff, 0xff, 0xff, 0xff), // bogus type bits
	}
	for i, c := range cases {
		if i == 3 {
			c[0] = 0xff
		}
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestUnmarshalRejectsTruncatedPayload(t *testing.T) {
	p := NewMemWrite(MakeID(0, 2, 0), 0x1000, make([]byte, 64))
	wire := p.SerializeInto(nil)
	// Remove payload bytes but keep the trailer.
	trunc := append(append([]byte(nil), wire[:20]...), wire[len(wire)-4:]...)
	if _, err := Unmarshal(trunc); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

// Property: arbitrary memory writes round-trip byte-for-byte.
func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(addr uint64, tag uint8, payload []byte) bool {
		if len(payload) == 0 || len(payload) > MaxPayload {
			return true // vacuous
		}
		p := NewMemWrite(MakeID(0, 3, 1), addr, payload)
		p.Tag = tag
		q, err := Unmarshal(p.SerializeInto(nil))
		if err != nil {
			return false
		}
		return q.Address == addr && q.Tag == tag && bytes.Equal(q.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPacketCloneIsDeep(t *testing.T) {
	p := NewMemWrite(MakeID(0, 1, 0), 0x100, []byte{1, 2, 3})
	p.Role = RoleD2HData
	q := p.Clone()
	q.Payload[0] = 99
	if p.Payload[0] != 1 || q.Role != RoleD2HData {
		t.Fatal("Clone aliased the original or lost its role")
	}
}

// --- fabric tests --------------------------------------------------------

type echoDevice struct {
	id  ID
	mem map[uint64][]byte
	got []*Packet
}

func newEchoDevice(id ID) *echoDevice {
	return &echoDevice{id: id, mem: make(map[uint64][]byte)}
}

func (d *echoDevice) DeviceID() ID { return d.id }
func (d *echoDevice) Handle(p *Packet) *Packet {
	d.got = append(d.got, p)
	switch p.Kind {
	case MWr:
		d.mem[p.Address] = append([]byte(nil), p.Payload...)
		return nil
	case MRd:
		data, ok := d.mem[p.Address]
		if !ok {
			data = make([]byte, p.Length)
		}
		return NewCompletion(p, d.id, CplSuccess, data)
	}
	return nil
}

func TestBusRoutesByAddress(t *testing.T) {
	// A claim binds to its owner's endpoint when the routing snapshot is
	// built, whichever of Attach and Claim comes first.
	for _, claimFirst := range []bool{false, true} {
		b := NewBus("host")
		d1 := newEchoDevice(MakeID(1, 0, 0))
		d2 := newEchoDevice(MakeID(2, 0, 0))
		if !claimFirst {
			b.Attach(d1)
			b.Attach(d2)
		}
		if err := b.Claim(d1.id, Region{Base: 0x1000, Size: 0x1000, Name: "d1"}); err != nil {
			t.Fatal(err)
		}
		if err := b.Claim(d2.id, Region{Base: 0x2000, Size: 0x1000, Name: "d2"}); err != nil {
			t.Fatal(err)
		}
		if claimFirst {
			if cpl := b.Route(NewMemRead(MakeID(0, 0, 0), 0x1234, 3, 1)); cpl == nil || cpl.Status != CplUR {
				t.Fatalf("claim-first: read before attach = %v, want UR", cpl)
			}
			b.Attach(d1)
			b.Attach(d2)
		}

		b.Route(NewMemWrite(MakeID(0, 0, 0), 0x1234, []byte("one")))
		b.Route(NewMemWrite(MakeID(0, 0, 0), 0x2234, []byte("two")))
		if string(d1.mem[0x1234]) != "one" || string(d2.mem[0x2234]) != "two" {
			t.Fatalf("claim-first=%v: writes routed to wrong devices", claimFirst)
		}

		cpl := b.Route(NewMemRead(MakeID(0, 0, 0), 0x1234, 3, 1))
		if cpl == nil || cpl.Status != CplSuccess || string(cpl.Payload) != "one" {
			t.Fatalf("claim-first=%v: read completion = %v", claimFirst, cpl)
		}
	}
}

func TestBusUnclaimedReadGetsUR(t *testing.T) {
	b := NewBus("host")
	cpl := b.Route(NewMemRead(MakeID(0, 0, 0), 0xdead0000, 4, 0))
	if cpl == nil || cpl.Status != CplUR {
		t.Fatalf("expected UR, got %v", cpl)
	}
	// Posted writes to nowhere vanish without error.
	if got := b.Route(NewMemWrite(MakeID(0, 0, 0), 0xdead0000, []byte{1})); got != nil {
		t.Fatalf("posted write returned %v", got)
	}
}

func TestBusRejectsOverlappingClaims(t *testing.T) {
	b := NewBus("host")
	if err := b.Claim(MakeID(1, 0, 0), Region{Base: 0x1000, Size: 0x1000, Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := b.Claim(MakeID(2, 0, 0), Region{Base: 0x1800, Size: 0x1000, Name: "b"}); err == nil {
		t.Fatal("overlap accepted")
	}
}

func TestBusTapObservesAndDrops(t *testing.T) {
	b := NewBus("host")
	d := newEchoDevice(MakeID(1, 0, 0))
	b.Attach(d)
	if err := b.Claim(d.id, Region{Base: 0x1000, Size: 0x1000}); err != nil {
		t.Fatal(err)
	}
	seen := 0
	b.AddTap(TapFunc(func(p *Packet) *Packet {
		seen++
		if p.Kind == MWr && p.Address == 0x1500 {
			return nil // delete this one
		}
		return p
	}))
	b.Route(NewMemWrite(MakeID(0, 0, 0), 0x1500, []byte("drop me")))
	b.Route(NewMemWrite(MakeID(0, 0, 0), 0x1600, []byte("keep me")))
	if seen != 2 {
		t.Fatalf("tap saw %d packets, want 2", seen)
	}
	if _, dropped := d.mem[0x1500]; dropped {
		t.Fatal("dropped packet still delivered")
	}
	if string(d.mem[0x1600]) != "keep me" {
		t.Fatal("kept packet lost")
	}
}

func TestBusDetach(t *testing.T) {
	for _, claimFirst := range []bool{false, true} {
		b := NewBus("host")
		d := newEchoDevice(MakeID(1, 0, 0))
		if !claimFirst {
			b.Attach(d)
		}
		if err := b.Claim(d.id, Region{Base: 0x1000, Size: 0x100}); err != nil {
			t.Fatal(err)
		}
		if claimFirst {
			b.Attach(d)
		}
		b.Detach(d.id)
		if _, ok := b.Owner(0x1000); ok {
			t.Fatalf("claim-first=%v: claim survived detach", claimFirst)
		}
		if cpl := b.Route(NewMemRead(MakeID(0, 0, 0), 0x1000, 4, 0)); cpl == nil || cpl.Status != CplUR {
			t.Fatalf("claim-first=%v: detached device still reachable", claimFirst)
		}
		// Attaching the same ID again does not revive the old claims.
		again := newEchoDevice(d.id)
		b.Attach(again)
		if _, ok := b.Owner(0x1000); ok {
			t.Fatalf("claim-first=%v: re-attach revived a detached claim", claimFirst)
		}
		if cpl := b.Route(NewMemRead(MakeID(0, 0, 0), 0x1000, 4, 0)); cpl == nil || cpl.Status != CplUR {
			t.Fatalf("claim-first=%v: re-attached device reachable through a detached claim", claimFirst)
		}
		if len(d.got)+len(again.got) != 0 {
			t.Fatalf("claim-first=%v: %d packets reached a detached claim", claimFirst, len(d.got)+len(again.got))
		}
	}
}

// --- link tests ----------------------------------------------------------

func TestLinkBandwidthByGeneration(t *testing.T) {
	// Gen4 x16: 16 GT/s * 16 / 8 bits * 128/130 ≈ 31.5 GB/s raw.
	cfg := LinkConfig{Gen: Gen4, Lanes: 16}
	got := cfg.RawBandwidth()
	want := 16e9 / 8 * 16 * 128.0 / 130.0
	if diff := got - want; diff < -1 || diff > 1 {
		t.Fatalf("RawBandwidth = %g, want %g", got, want)
	}
	if Gen3.GTps() != 8 || Gen5.GTps() != 32 {
		t.Fatal("generation rates wrong")
	}
}

func TestWireBytesChargesHeaders(t *testing.T) {
	// 1024 bytes = 4 packets of 256 -> 4 headers.
	if got := WireBytes(1024, 0); got != 1024+4*HeaderOverhead {
		t.Fatalf("WireBytes = %d", got)
	}
	// Extra companion packets cost a header each.
	if got := WireBytes(1024, 4); got != 1024+8*HeaderOverhead {
		t.Fatalf("WireBytes with extras = %d", got)
	}
	// Non-multiple sizes round packets up.
	if got := WireBytes(257, 0); got != 257+2*HeaderOverhead {
		t.Fatalf("WireBytes(257) = %d", got)
	}
}

// --- config space tests ---------------------------------------------------

func TestConfigSpaceIdentity(t *testing.T) {
	c := NewConfigSpace(0x10de, 0x20b0, 0x030200) // NVIDIA A100-ish
	if c.Read32(CfgVendorID) != 0x20b0_10de {
		t.Fatal("identity mismatch")
	}
}

func TestConfigSpaceBARRoundTrip(t *testing.T) {
	c := NewConfigSpace(1, 2, 0)
	// A 64-bit BAR is two config words: low (type bits clear) then high.
	bar := func(n uint16) uint64 {
		off := CfgBAR0 + 4*n
		return uint64(c.Read32(off+4))<<32 | uint64(c.Read32(off)&^0xf)
	}
	c.SetBAR(0, 0x38_0000_0000)
	if got := bar(0); got != 0x38_0000_0000 {
		t.Fatalf("BAR0 = %#x", got)
	}
	c.SetBAR(2, 0xf000_0000)
	if got := bar(2); got != 0xf000_0000 {
		t.Fatalf("BAR2 = %#x", got)
	}
}

func TestConfigSpaceBusMaster(t *testing.T) {
	c := NewConfigSpace(1, 2, 0)
	master := func() bool { return c.Read32(CfgCommand)&CmdBusMaster != 0 }
	if master() {
		t.Fatal("bus master set at reset")
	}
	c.EnableMaster(true)
	if !master() {
		t.Fatal("EnableMaster(true) ignored")
	}
	c.EnableMaster(false)
	if master() {
		t.Fatal("EnableMaster(false) ignored")
	}
}
