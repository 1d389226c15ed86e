package pcie_test

// Table-driven TLP edge cases: packets at the structural boundaries the
// wire format and the Packet Filter must handle without ever defaulting
// open. External test package so the fail-closed assertions can run the
// real L1 filter (internal/core) against each packet.

import (
	"bytes"
	"testing"

	"ccai/internal/core"
	"ccai/internal/pcie"
)

// edgeFilter builds a minimal L1 screen admitting DMA writes from tvm
// into [winLo, winHi) and dropping everything else — the fail-closed
// default (action A1) the edge cases must land in.
func edgeFilter(tvm pcie.ID, winLo, winHi uint64) *core.Filter {
	f := core.NewFilter()
	f.InstallL1(core.Rule{
		ID:        1,
		Mask:      core.MatchKind | core.MatchRequester | core.MatchAddr,
		Kind:      pcie.MWr,
		Requester: tvm,
		AddrLo:    winLo,
		AddrHi:    winHi,
		Action:    core.ActionPassThrough,
	})
	return f
}

func TestTLPEdgeCases(t *testing.T) {
	tvm := pcie.MakeID(0, 1, 0)
	const winLo, winHi = 0x8000_0000, 0x8000_1000 // one 4KB page

	cases := []struct {
		name string
		pkt  *pcie.Packet
		// wantDrop: the L1 filter must classify this packet A1.
		wantDrop bool
		// breakWire mutates the marshaled bytes; Unmarshal must then
		// reject them (nil means the wire image is left intact).
		breakWire func([]byte) []byte
	}{
		{
			name:     "zero-length payload write",
			pkt:      pcie.NewMemWrite(tvm, winLo, []byte{}),
			wantDrop: false,
		},
		{
			name:     "max-payload boundary write",
			pkt:      pcie.NewMemWrite(tvm, winLo, bytes.Repeat([]byte{0xa5}, pcie.MaxPayload)),
			wantDrop: false,
		},
		{
			name:     "one past max payload",
			pkt:      pcie.NewMemWrite(tvm, winLo, bytes.Repeat([]byte{0x5a}, pcie.MaxPayload+1)),
			wantDrop: false, // legal TLP; chunking is the link's job
		},
		{
			name: "4KB-crossing DMA write",
			// Starts inside the window, runs past the page: the masked
			// address match admits it (address is in range) but the
			// payload would spill — exactly the shape the SC's handlers
			// must bound-check; at the filter layer it still classifies
			// by header address only.
			pkt:      pcie.NewMemWrite(tvm, winHi-0x40, bytes.Repeat([]byte{0x77}, 0x80)),
			wantDrop: false,
		},
		{
			name:     "DMA write starting past the window",
			pkt:      pcie.NewMemWrite(tvm, winHi, []byte{1, 2, 3, 4}),
			wantDrop: true,
		},
		{
			name:     "sub-DW write with odd length",
			pkt:      pcie.NewMemWrite(tvm, winLo+4, []byte{0xde, 0xad, 0xbe}),
			wantDrop: false,
		},
		{
			name:     "64-bit-address write uses 4DW header",
			pkt:      pcie.NewMemWrite(tvm, 0x1_0000_0000, []byte{9, 9, 9, 9}),
			wantDrop: true, // outside the window
		},
		{
			name:     "foreign requester same window",
			pkt:      pcie.NewMemWrite(pcie.MakeID(3, 0, 0), winLo, []byte{1}),
			wantDrop: true,
		},
		{
			name: "truncated header",
			pkt:  pcie.NewMemWrite(tvm, winLo, []byte{1, 2, 3, 4}),
			breakWire: func(b []byte) []byte {
				return b[:8] // cut mid-header
			},
		},
		{
			name: "payload cut below length field",
			pkt:  pcie.NewMemWrite(tvm, winLo, bytes.Repeat([]byte{0xcc}, 64)),
			breakWire: func(b []byte) []byte {
				// Keep the trailer but remove payload DWs.
				cut := append([]byte(nil), b[:20]...)
				return append(cut, b[len(b)-4:]...)
			},
		},
		{
			name: "exact length exceeds DW length",
			pkt:  pcie.NewMemWrite(tvm, winLo, []byte{1, 2, 3, 4}),
			breakWire: func(b []byte) []byte {
				out := append([]byte(nil), b...)
				out[len(out)-1] = 0xff // inflate trailer byte count
				return out
			},
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			wire := tc.pkt.SerializeInto(nil)

			if tc.breakWire != nil {
				if _, err := pcie.Unmarshal(tc.breakWire(wire)); err == nil {
					t.Fatalf("Unmarshal accepted malformed wire bytes")
				}
				// Anything the parser rejects never reaches Classify;
				// the SC drops it on the floor, which is A1 by
				// construction. Nothing more to assert.
				return
			}

			got, err := pcie.Unmarshal(wire)
			if err != nil {
				t.Fatalf("round-trip failed: %v", err)
			}
			if got.Kind != tc.pkt.Kind || got.Address != tc.pkt.Address ||
				got.Requester != tc.pkt.Requester || got.Length != tc.pkt.Length {
				t.Fatalf("header fields mangled: got %v want %v", got, tc.pkt)
			}
			if !bytes.Equal(got.Payload, tc.pkt.Payload) {
				t.Fatalf("payload mangled: %d bytes -> %d bytes", len(tc.pkt.Payload), len(got.Payload))
			}

			f := edgeFilter(tvm, winLo, winHi)
			v := f.Classify(got)
			if tc.wantDrop && v.Action != core.ActionDrop {
				t.Fatalf("filter defaulted open: verdict %+v", v)
			}
			if !tc.wantDrop && v.Action == core.ActionDrop {
				t.Fatalf("filter dropped a legal edge-case packet: verdict %+v", v)
			}
		})
	}
}
