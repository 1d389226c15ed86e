package pcie

import (
	"bytes"
	"testing"

	"ccai/internal/arena"
)

// FuzzUnmarshal hardens the TLP parser against arbitrary wire bytes —
// the Packet Filter calls it on attacker-influenced input, so it must
// never panic and must either reject or round-trip consistently.
func FuzzUnmarshal(f *testing.F) {
	// Seed with valid packets of every kind.
	seeds := []*Packet{
		NewMemWrite(MakeID(0, 1, 0), 0x1000, []byte("seed payload")),
		NewMemWrite(MakeID(0, 1, 0), 0x1_0000_0000, bytes.Repeat([]byte{7}, 256)),
		NewMemRead(MakeID(2, 0, 0), 0xfee0_0000, 64, 3),
		&Packet{Header: Header{Kind: MsgD, Requester: MakeID(2, 0, 0), Address: 0x19, Length: 1}, Payload: []byte{1}},
		NewCompletion(NewMemRead(MakeID(0, 1, 0), 0x10, 4, 1), MakeID(2, 0, 0), CplSuccess, []byte{1, 2, 3, 4}),
		NewCompletion(NewMemRead(MakeID(0, 1, 0), 0x10, 4, 1), MakeID(2, 0, 0), CplUR, nil),
	}
	for _, p := range seeds {
		f.Add(p.SerializeInto(nil))
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Unmarshal(data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Accepted packets must re-marshal and re-parse to the same
		// header and payload (canonicalization stability).
		again, err := Unmarshal(p.SerializeInto(nil))
		if err != nil {
			t.Fatalf("re-parse of accepted packet failed: %v", err)
		}
		if again.Kind != p.Kind || again.Requester != p.Requester || again.Address != p.Address {
			t.Fatalf("unstable canonicalization: %v vs %v", again, p)
		}
		if !bytes.Equal(again.Payload, p.Payload) {
			t.Fatal("payload not stable across re-marshal")
		}
	})
}

// FuzzSerializeInto proves the zero-alloc serializer is byte-identical
// to Marshal for every parseable packet — including when writing into a
// dirty recycled buffer, where any byte the encoder forgets to
// overwrite (or zero, for the DW padding) would leak the previous
// occupant's bytes onto the wire.
func FuzzSerializeInto(f *testing.F) {
	seeds := []*Packet{
		NewMemWrite(MakeID(0, 1, 0), 0x1000, []byte("seed payload")),
		NewMemWrite(MakeID(0, 1, 0), 0x1_0000_0000, bytes.Repeat([]byte{7}, 256)),
		NewMemWrite(MakeID(0, 1, 0), 0x2000, []byte{1, 2, 3}), // non-DW-aligned: exercises padding
		NewMemRead(MakeID(2, 0, 0), 0xfee0_0000, 64, 3),
		&Packet{Header: Header{Kind: MsgD, Requester: MakeID(2, 0, 0), Address: 0x19, Length: 1}, Payload: []byte{1}},
		NewCompletion(NewMemRead(MakeID(0, 1, 0), 0x10, 4, 1), MakeID(2, 0, 0), CplSuccess, []byte{1, 2, 3, 4}),
		NewCompletion(NewMemRead(MakeID(0, 1, 0), 0x10, 4, 1), MakeID(2, 0, 0), CplUR, nil),
	}
	for _, p := range seeds {
		f.Add(p.SerializeInto(nil))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Unmarshal(data)
		if err != nil {
			return
		}
		want := p.SerializeInto(nil)
		if n := p.MarshalSize(); n != len(want) {
			t.Fatalf("MarshalSize = %d, Marshal produced %d bytes", n, len(want))
		}
		// A recycled buffer full of garbage must yield identical bytes.
		dirty := bytes.Repeat([]byte{0xa5}, len(want)+16)
		got := p.SerializeInto(dirty)
		if !bytes.Equal(got, want) {
			t.Fatalf("SerializeInto into dirty buffer diverged:\n got %x\nwant %x", got, want)
		}
		if &got[0] != &dirty[0] {
			t.Fatal("SerializeInto ignored a buffer with sufficient capacity")
		}
		// An undersized buffer must fall back to a fresh allocation —
		// never a partial write into the short slice.
		short := make([]byte, 0, len(want)-1)
		got = p.SerializeInto(short)
		if !bytes.Equal(got, want) {
			t.Fatal("SerializeInto fallback allocation diverged from Marshal")
		}
	})
}

// TestSerializeIntoArenaDiscipline documents and enforces the intended
// arena protocol (trace capture uses it): Get a buffer sized by
// MarshalSize, serialize, consume the bytes, Put. The serialized view
// aliases the arena buffer, so once released it must no longer be
// referenced — anything copied out before the Put must be immune to the
// buffer's next occupant scribbling over it.
func TestSerializeIntoArenaDiscipline(t *testing.T) {
	p := NewMemWrite(MakeID(0, 1, 0), 0x4000, []byte("arena-staged tlp payload"))
	want := p.SerializeInto(nil)

	buf := arena.Get(p.MarshalSize())
	wire := p.SerializeInto(buf)
	if &wire[0] != &buf[0] {
		t.Fatal("serializer did not use the arena buffer")
	}
	kept := append([]byte(nil), wire...) // consumer copies before release
	arena.Put(buf)

	// Reuse the class: the next Get may hand back the same backing array
	// and overwrite it. The retained copy must be unaffected, and a
	// Marshal (nil dst) must never alias pooled memory.
	next := arena.Get(p.MarshalSize())
	for i := range next {
		next[i] = 0xee
	}
	if !bytes.Equal(kept, want) {
		t.Fatal("copy taken before release was corrupted by arena reuse")
	}
	fresh := p.SerializeInto(nil)
	if &fresh[0] == &next[0] {
		t.Fatal("Marshal aliased a pooled arena buffer")
	}
	if !bytes.Equal(fresh, want) {
		t.Fatal("Marshal diverged after arena churn")
	}
	arena.Put(next)
}
