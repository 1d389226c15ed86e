package trace

import (
	"bytes"
	"testing"
	"testing/quick"

	"ccai/internal/pcie"
	"ccai/internal/sim"
)

func TestCaptureRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	packets := []*pcie.Packet{
		pcie.NewMemWrite(pcie.MakeID(0, 1, 0), 0x1000, []byte("first payload")),
		pcie.NewMemRead(pcie.MakeID(2, 0, 0), 0x8000_0000, 256, 7),
		&pcie.Packet{Header: pcie.Header{Kind: pcie.MsgD, Requester: pcie.MakeID(2, 0, 0), Address: 0x19, Length: 2}, Payload: []byte{1, 2}},
	}
	for i, p := range packets {
		if err := w.Write(Record{At: sim.Time(i) * sim.Microsecond, Packet: p}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 3 {
		t.Fatalf("count = %d", w.Count())
	}

	recs, err := ReadCapture(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	for i, rec := range recs {
		if rec.At != sim.Time(i)*sim.Microsecond {
			t.Fatalf("record %d timestamp = %v", i, rec.At)
		}
		if rec.Packet.Kind != packets[i].Kind || rec.Packet.Address != packets[i].Address {
			t.Fatalf("record %d header mismatch", i)
		}
		if !bytes.Equal(rec.Packet.Payload, packets[i].Payload) {
			t.Fatalf("record %d payload mismatch", i)
		}
	}
}

func TestCaptureRejectsGarbage(t *testing.T) {
	if _, err := ReadCapture(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("short header accepted")
	}
	bad := make([]byte, 8)
	if _, err := ReadCapture(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Valid header, truncated record.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	_ = w.Write(Record{Packet: pcie.NewMemWrite(pcie.MakeID(0, 1, 0), 0x1, []byte{1})})
	_ = w.Flush()
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadCapture(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestCaptureTapStampsAndPasses(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(42 * sim.Millisecond)
	tap := &CaptureTap{W: w, Clock: func() sim.Time { return now }}
	p := pcie.NewMemWrite(pcie.MakeID(0, 1, 0), 0x1000, []byte("x"))
	if got := tap.Tap(p); got != p {
		t.Fatal("tap must pass packets through")
	}
	_ = w.Flush()
	recs, err := ReadCapture(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].At != now {
		t.Fatalf("recs = %+v", recs)
	}
}

// Property: arbitrary memory writes survive the capture round trip.
func TestCaptureRoundTripProperty(t *testing.T) {
	f := func(addr uint64, payload []byte, at uint32) bool {
		if len(payload) == 0 || len(payload) > pcie.MaxPayload {
			return true
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		p := pcie.NewMemWrite(pcie.MakeID(0, 3, 1), addr, payload)
		if err := w.Write(Record{At: sim.Time(at), Packet: p}); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		recs, err := ReadCapture(&buf)
		if err != nil || len(recs) != 1 {
			return false
		}
		return recs[0].At == sim.Time(at) &&
			recs[0].Packet.Address == addr &&
			bytes.Equal(recs[0].Packet.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
