package attack

import (
	"bytes"
	"testing"

	"ccai/internal/pcie"
)

func wr(addr uint64, payload []byte) *pcie.Packet {
	return pcie.NewMemWrite(pcie.MakeID(0, 1, 0), addr, payload)
}

func TestSnooperRecordsAndFindsSecrets(t *testing.T) {
	s := NewSnooper()
	secret := []byte("classified-weights")
	s.Tap(wr(0x1000, append([]byte("prefix "), secret...)))
	s.Tap(wr(0x2000, []byte("nothing here")))
	if len(s.Packets()) != 2 {
		t.Fatalf("packets = %d", len(s.Packets()))
	}
	if !s.SawPlaintext(secret) {
		t.Fatal("missed embedded secret")
	}
	if s.SawPlaintext([]byte("absent")) {
		t.Fatal("false positive")
	}
	if s.PayloadBytes() != 25+12 {
		t.Fatalf("payload bytes = %d", s.PayloadBytes())
	}
	s.Reset()
	if len(s.Packets()) != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestSnooperCapturesCopies(t *testing.T) {
	s := NewSnooper()
	p := wr(0x1000, []byte{1, 2, 3})
	s.Tap(p)
	p.Payload[0] = 99 // victim mutates after transit
	if s.Packets()[0].Payload[0] != 1 {
		t.Fatal("snooper shares storage with live packet")
	}
}

func TestTampererFlipsMatchingPayloads(t *testing.T) {
	tm := &Tamperer{Match: func(p *pcie.Packet) bool { return p.Address == 0x1000 }, Count: 1}
	victim := wr(0x1000, []byte{0, 0, 0, 0})
	out := tm.Tap(victim)
	if bytes.Equal(out.Payload, victim.Payload) {
		t.Fatal("payload unchanged")
	}
	if out == victim {
		t.Fatal("tamperer mutated the original in place")
	}
	// Count limit: second matching packet passes untouched.
	again := tm.Tap(wr(0x1000, []byte{0, 0, 0, 0}))
	for _, b := range again.Payload {
		if b != 0 {
			t.Fatal("count limit ignored")
		}
	}
	// Non-matching address untouched.
	other := tm.Tap(wr(0x2000, []byte{0}))
	if other.Payload[0] != 0 {
		t.Fatal("non-matching packet modified")
	}
	if tm.Tampered() != 1 {
		t.Fatalf("tampered = %d", tm.Tampered())
	}
}

func TestTampererSkipsPayloadless(t *testing.T) {
	tm := &Tamperer{}
	rd := pcie.NewMemRead(pcie.MakeID(0, 1, 0), 0x1000, 64, 0)
	if got := tm.Tap(rd); got != rd {
		t.Fatal("payload-less packet touched")
	}
}

func TestRedirectorRewritesAddress(t *testing.T) {
	r := &Redirector{Match: func(p *pcie.Packet) bool { return p.Kind == pcie.MWr }, NewDst: 0xbad0}
	out := r.Tap(wr(0x1000, []byte{1}))
	if out.Address != 0xbad0 {
		t.Fatalf("address = %#x", out.Address)
	}
}

func TestDropperDeletesUpToCount(t *testing.T) {
	d := &Dropper{Count: 2}
	if d.Tap(wr(0x1, []byte{1})) != nil {
		t.Fatal("first packet survived")
	}
	if d.Tap(wr(0x2, []byte{2})) != nil {
		t.Fatal("second packet survived")
	}
	if d.Tap(wr(0x3, []byte{3})) == nil {
		t.Fatal("third packet dropped beyond count")
	}
}

func TestRecorderReplaysIntoBus(t *testing.T) {
	bus := pcie.NewBus("host")
	sink := &countingEndpoint{id: pcie.MakeID(2, 0, 0)}
	bus.Attach(sink)
	if err := bus.Claim(sink.id, pcie.Region{Base: 0x1000, Size: 0x1000}); err != nil {
		t.Fatal(err)
	}
	rec := &Recorder{Match: func(p *pcie.Packet) bool { return p.Kind == pcie.MWr }}
	bus.AddTap(rec)

	bus.Route(wr(0x1000, []byte("original")))
	if len(rec.Captured) != 1 {
		t.Fatalf("captured = %d", len(rec.Captured))
	}
	before := sink.writes
	rec.Replay(bus)
	// Replay traverses the tap again, so the recorder grows too; the
	// endpoint must have seen the duplicate.
	if sink.writes != before+1 {
		t.Fatalf("endpoint writes = %d, want %d", sink.writes, before+1)
	}
}

type countingEndpoint struct {
	id     pcie.ID
	writes int
}

func (c *countingEndpoint) DeviceID() pcie.ID { return c.id }
func (c *countingEndpoint) Handle(p *pcie.Packet) *pcie.Packet {
	if p.Kind == pcie.MWr {
		c.writes++
	}
	if p.Kind == pcie.MRd {
		return pcie.NewCompletion(p, c.id, pcie.CplSuccess, make([]byte, p.Length))
	}
	return nil
}

func TestRogueRequesterUsesItsID(t *testing.T) {
	bus := pcie.NewBus("host")
	sink := &countingEndpoint{id: pcie.MakeID(2, 0, 0)}
	bus.Attach(sink)
	if err := bus.Claim(sink.id, pcie.Region{Base: 0x1000, Size: 0x1000}); err != nil {
		t.Fatal(err)
	}
	var seen pcie.ID
	bus.AddTap(pcie.TapFunc(func(p *pcie.Packet) *pcie.Packet {
		if p.Kind == pcie.MRd {
			seen = p.Requester
		}
		return p
	}))
	rogue := &RogueRequester{ID: pcie.MakeID(7, 0, 3), Bus: bus}
	cpl := rogue.Read(0x1000, 16)
	if cpl == nil || cpl.Status != pcie.CplSuccess {
		t.Fatal("read through empty bus failed")
	}
	if seen != rogue.ID {
		t.Fatalf("requester on wire = %v", seen)
	}
	rogue.Write(0x1000, []byte{1})
	if sink.writes != 1 {
		t.Fatal("rogue write lost")
	}
}
