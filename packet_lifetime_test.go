package ccai

import (
	"bytes"
	"sync"
	"testing"

	"ccai/internal/pcie"
	"ccai/internal/xpu"
)

// retainingTap keeps every packet it is shown, pointer and all — what
// the benchmark's count chassis, the trace recorder and the attack
// recorders do — together with a deep copy taken at that moment.
type retainingTap struct {
	mu   sync.Mutex
	seen []retainedPacket
}

type retainedPacket struct {
	p       *pcie.Packet
	header  pcie.Header
	payload []byte
}

func (rt *retainingTap) Tap(p *pcie.Packet) *pcie.Packet {
	rt.mu.Lock()
	rt.seen = append(rt.seen, retainedPacket{p: p, header: p.Header, payload: append([]byte(nil), p.Payload...)})
	rt.mu.Unlock()
	return p
}

// check fails if any retained packet no longer reads as it did when the
// tap saw it: its struct or its payload went back to a pool and was
// handed out again.
func (rt *retainingTap) check(t *testing.T, bus string) {
	t.Helper()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if len(rt.seen) == 0 {
		t.Fatalf("%s tap saw no packet: the check is vacuous", bus)
	}
	for i, r := range rt.seen {
		if r.p.Header != r.header {
			t.Fatalf("%s bus, retained packet %d of %d: header now %+v, was %+v — the struct was recycled under a tap",
				bus, i, len(rt.seen), r.p.Header, r.header)
		}
		if !bytes.Equal(r.p.Payload, r.payload) {
			t.Fatalf("%s bus, retained packet %d of %d (%v): payload changed after the tap saw it — recycled under a tap",
				bus, i, len(rt.seen), r.p)
		}
	}
}

// TestPacketRecyclingRespectsTaps pins who may take a *pcie.Packet
// back (DESIGN.md §10). Untapped, a steady-state 64 KiB protected task
// returns every packet struct it used, so the packet arenas allocate no
// block. With a tap attached mid-run to the host bus, the internal bus
// or both — after the recycling loops have been running — nothing a tap
// retained is ever recycled, including packets one agent built and the
// SC relayed onto the tapped segment.
func TestPacketRecyclingRespectsTaps(t *testing.T) {
	input := make([]byte, 64<<10)
	for i := range input {
		input[i] = byte(i*7 + 3)
	}
	task := Task{Input: input, Kernel: KernelXOR, Param: 0x5a}
	run := func(t *testing.T, p *Platform, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			out, err := p.RunTask(task)
			if err != nil {
				t.Fatalf("task %d: %v", i, err)
			}
			checkXOR(t, input, out)
		}
	}
	for _, tc := range []struct {
		name           string
		host, internal bool
	}{
		{"untapped", false, false},
		{"host-tap", true, false},
		{"internal-tap", false, true},
		{"both-taps", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := protectedPlatform(t, xpu.A100)
			run(t, p, 4) // warm-up: free lists filled, loops closed
			before := pcie.ArenaBlocks()
			run(t, p, 10)
			if got := pcie.ArenaBlocks() - before; got != 0 {
				t.Fatalf("10 steady-state 64 KiB tasks on untapped buses allocated %d packet blocks, want 0", got)
			}
			var hostTap, internalTap retainingTap
			if tc.host {
				p.Host.AddTap(&hostTap)
			}
			if tc.internal {
				p.Internal.AddTap(&internalTap)
			}
			run(t, p, 20)
			if tc.host {
				hostTap.check(t, "host")
			}
			if tc.internal {
				internalTap.check(t, "internal")
			}
		})
	}
}
