package pcie

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

// Tests for the smaller surface: stringers, config DW access,
// tap-on-completion behaviour and broadcast messages.

func TestStringers(t *testing.T) {
	if !strings.Contains(Gen4.String(), "16GT/s") {
		t.Errorf("Gen4 = %q", Gen4)
	}
	lc := LinkConfig{Gen: Gen3, Lanes: 8}
	if lc.String() != "8GT/s x8" {
		t.Errorf("LinkConfig = %q", lc)
	}
	w := NewMemWrite(MakeID(0, 1, 0), 0x1000, []byte{1})
	if !strings.Contains(w.String(), "MWr") {
		t.Errorf("packet string = %q", w)
	}
	cpl := NewCompletion(NewMemRead(MakeID(0, 1, 0), 0x1000, 4, 2), MakeID(2, 0, 0), CplSuccess, []byte{1, 2, 3, 4})
	if !strings.Contains(cpl.String(), "SC") {
		t.Errorf("completion string = %q", cpl)
	}
	if CplUR.String() != "UR" || CplCA.String() != "CA" {
		t.Error("status strings wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind has empty string")
	}
}

// TestWireSize: on the link model a 100-byte write is its payload plus
// one header, and a read request one header alone.
func TestWireSize(t *testing.T) {
	if got := WireBytes(100, 0); got != 100+HeaderOverhead {
		t.Fatalf("write wire size = %d", got)
	}
	if got := WireBytes(0, 1); got != HeaderOverhead {
		t.Fatalf("read wire size = %d", got)
	}
}

func TestConfigSpaceDWAccess(t *testing.T) {
	c := NewConfigSpace(0x10de, 0x20b0, 0)
	c.Write32(0x40, 0xdeadbeef)
	if c.Read32(0x40) != 0xdeadbeef {
		t.Fatal("DW round trip failed")
	}
	// Unaligned offsets snap to the DW.
	if c.Read32(0x42) != 0xdeadbeef {
		t.Fatal("offset alignment broken")
	}
}

// TestBusNameAndEndpoints: every attached endpoint is reachable by its
// ID, and a second attach under a live ID names the bus in its panic.
func TestBusNameAndEndpoints(t *testing.T) {
	b := NewBus("segment-x")
	d1, d3 := newEchoDevice(MakeID(1, 0, 0)), newEchoDevice(MakeID(3, 0, 0))
	b.Attach(d3)
	b.Attach(d1)
	for _, d := range []*echoDevice{d1, d3} {
		b.Route(&Packet{Header: Header{Kind: CfgRd, Requester: MakeID(0, 1, 0), Completer: d.id, Length: 4}})
		if len(d.got) != 1 {
			t.Fatalf("endpoint %v unreachable by ID", d.id)
		}
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "segment-x") {
			t.Fatalf("duplicate attach: %v", r)
		}
	}()
	b.Attach(newEchoDevice(MakeID(1, 0, 0)))
}

func TestBusDuplicateAttachPanics(t *testing.T) {
	b := NewBus("x")
	b.Attach(newEchoDevice(MakeID(1, 0, 0)))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate attach did not panic")
		}
	}()
	b.Attach(newEchoDevice(MakeID(1, 0, 0)))
}

func TestTapSeesCompletions(t *testing.T) {
	b := NewBus("x")
	d := newEchoDevice(MakeID(1, 0, 0))
	b.Attach(d)
	if err := b.Claim(d.id, Region{Base: 0x1000, Size: 0x1000}); err != nil {
		t.Fatal(err)
	}
	d.mem[0x1000] = []byte("payload")
	var kinds []Kind
	b.AddTap(TapFunc(func(p *Packet) *Packet {
		kinds = append(kinds, p.Kind)
		return p
	}))
	b.Route(NewMemRead(MakeID(0, 0, 0), 0x1000, 7, 0))
	if len(kinds) != 2 || kinds[0] != MRd || kinds[1] != CplD {
		t.Fatalf("tap saw %v, want [MRd CplD]", kinds)
	}
}

func TestTapCanDropCompletions(t *testing.T) {
	b := NewBus("x")
	d := newEchoDevice(MakeID(1, 0, 0))
	b.Attach(d)
	if err := b.Claim(d.id, Region{Base: 0x1000, Size: 0x1000}); err != nil {
		t.Fatal(err)
	}
	b.AddTap(TapFunc(func(p *Packet) *Packet {
		if p.Kind == CplD {
			return nil
		}
		return p
	}))
	if cpl := b.Route(NewMemRead(MakeID(0, 0, 0), 0x1000, 4, 0)); cpl != nil {
		t.Fatal("dropped completion delivered")
	}
}

func TestClearTaps(t *testing.T) {
	b := NewBus("x")
	hits := 0
	b.AddTap(TapFunc(func(p *Packet) *Packet { hits++; return p }))
	b.ClearTaps()
	b.Route(NewMemWrite(MakeID(0, 0, 0), 0x1000, []byte{1}))
	if hits != 0 {
		t.Fatal("cleared tap still fired")
	}
}

func TestBroadcastMessageReachesAll(t *testing.T) {
	b := NewBus("x")
	d1 := newEchoDevice(MakeID(1, 0, 0))
	d2 := newEchoDevice(MakeID(2, 0, 0))
	sender := MakeID(0, 5, 0)
	b.Attach(d1)
	b.Attach(d2)
	msg := &Packet{Header: Header{Kind: Msg, Requester: sender, Address: 0x19}} // no completer: broadcast
	b.Route(msg)
	if len(d1.got) != 1 || len(d2.got) != 1 {
		t.Fatalf("broadcast delivery: %d/%d", len(d1.got), len(d2.got))
	}
}

func TestLinkPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-lane link accepted")
		}
	}()
	NewLink("bad", LinkConfig{Gen: Gen4, Lanes: 0})
}

func TestEnumerate(t *testing.T) {
	b := NewBus("host")
	// A device with real config space.
	cfg := NewConfigSpace(0x10de, 0x20b0, 0)
	devID := MakeID(2, 0, 0)
	b.Attach(&cfgEndpoint{id: devID, cfg: cfg})
	// An endpoint without config space (bridge-like).
	b.Attach(newEchoDevice(MakeID(0, 0, 0)))

	// The lspci scan's one read: vendor and device identity, routed by
	// the completer ID.
	rd := &Packet{Header: Header{Kind: CfgRd, Requester: MakeID(0, 1, 0), Completer: devID, Address: CfgVendorID, Length: 4}}
	cpl := b.Route(rd)
	if cpl == nil || cpl.Status != CplSuccess || len(cpl.Payload) != 4 {
		t.Fatalf("identity read: %v", cpl)
	}
	if v, d := binary.LittleEndian.Uint16(cpl.Payload), binary.LittleEndian.Uint16(cpl.Payload[2:]); v != 0x10de || d != 0x20b0 {
		t.Fatalf("identity = %04x:%04x", v, d)
	}
}

type cfgEndpoint struct {
	id  ID
	cfg *ConfigSpace
}

func (c *cfgEndpoint) DeviceID() ID { return c.id }
func (c *cfgEndpoint) Handle(p *Packet) *Packet {
	if p.Kind == CfgRd {
		buf := make([]byte, 4)
		v := c.cfg.Read32(uint16(p.Address))
		buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		return NewCompletion(p, c.id, CplSuccess, buf)
	}
	return NewCompletion(p, c.id, CplUR, nil)
}
