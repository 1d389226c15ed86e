// Package attack implements the adversary of the paper's threat model
// (§2.2) as reusable bus instruments: a snooper that records everything
// crossing a PCIe segment, tamperers that flip payload bits or rewrite
// headers, a replayer/reorderer/dropper for transmission-integrity
// attacks, and rogue requesters standing in for a malicious host,
// unauthorized TVM, or compromised peripheral. The RQ2 security tests
// aim these at the platform and assert that every one is defeated.
package attack

import (
	"bytes"
	"sync"

	"ccai/internal/pcie"
)

// Snooper records every packet crossing a bus segment — the PCIe bus
// snooping attack ([72] in the paper). It never modifies traffic. All
// methods are safe for concurrent use: a snooper on a shared segment
// sees traffic from every tenant pipeline at once.
type Snooper struct {
	mu      sync.Mutex
	packets []*pcie.Packet
}

// NewSnooper returns an empty recorder.
func NewSnooper() *Snooper { return &Snooper{} }

// Tap implements pcie.Tap.
func (s *Snooper) Tap(p *pcie.Packet) *pcie.Packet {
	q := p.Clone()
	s.mu.Lock()
	s.packets = append(s.packets, q)
	s.mu.Unlock()
	return p
}

// Packets returns a snapshot of everything captured. A test seam: the
// protocol model judges each op's host-segment packets through it.
func (s *Snooper) Packets() []*pcie.Packet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*pcie.Packet(nil), s.packets...)
}

// Reset clears the capture buffer. A test seam: the protocol model
// clears the capture between the ops it judges.
func (s *Snooper) Reset() {
	s.mu.Lock()
	s.packets = nil
	s.mu.Unlock()
}

// SawPlaintext reports whether any captured payload contains the given
// byte sequence — the confidentiality oracle: if a secret substring is
// visible on the untrusted segment, protection failed.
func (s *Snooper) SawPlaintext(secret []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.packets {
		if len(p.Payload) > 0 && bytes.Contains(p.Payload, secret) {
			return true
		}
	}
	return false
}

// PayloadBytes reports total payload bytes captured.
func (s *Snooper) PayloadBytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, p := range s.packets {
		n += len(p.Payload)
	}
	return n
}

// Tamperer flips bits in payloads matching a predicate, modelling an
// in-flight data-corruption attack on the PCIe fabric.
type Tamperer struct {
	// Match selects victim packets; nil matches every payload-bearing
	// packet.
	Match func(p *pcie.Packet) bool
	// Count limits how many packets to corrupt (0 = unlimited).
	Count int

	mu       sync.Mutex
	tampered int
}

// Tap implements pcie.Tap.
func (t *Tamperer) Tap(p *pcie.Packet) *pcie.Packet {
	if len(p.Payload) == 0 {
		return p
	}
	if t.Match != nil && !t.Match(p) {
		return p
	}
	t.mu.Lock()
	if t.Count > 0 && t.tampered >= t.Count {
		t.mu.Unlock()
		return p
	}
	t.tampered++
	t.mu.Unlock()
	q := p.Clone()
	q.Payload[len(q.Payload)/2] ^= 0x80
	return q
}

// Tampered reports how many packets were corrupted.
func (t *Tamperer) Tampered() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tampered
}

// Redirector rewrites the target address of matching packets — the
// "route packets carrying sensitive data to unexpected TVMs or other
// peripherals" attack (§8.2).
type Redirector struct {
	Match  func(p *pcie.Packet) bool
	NewDst uint64
}

// Tap implements pcie.Tap.
func (r *Redirector) Tap(p *pcie.Packet) *pcie.Packet {
	if r.Match != nil && !r.Match(p) {
		return p
	}
	q := p.Clone()
	q.Address = r.NewDst
	return q
}

// Dropper deletes matching packets in flight.
type Dropper struct {
	Match func(p *pcie.Packet) bool
	Count int

	mu      sync.Mutex
	dropped int
}

// Tap implements pcie.Tap.
func (d *Dropper) Tap(p *pcie.Packet) *pcie.Packet {
	if d.Match != nil && !d.Match(p) {
		return p
	}
	d.mu.Lock()
	if d.Count > 0 && d.dropped >= d.Count {
		d.mu.Unlock()
		return p
	}
	d.dropped++
	d.mu.Unlock()
	return nil
}

// Recorder captures packets matching a predicate for later replay.
// Captured may be read directly only once the bus is quiescent; Tap is
// safe under concurrent traffic.
type Recorder struct {
	Match    func(p *pcie.Packet) bool
	Captured []*pcie.Packet

	mu sync.Mutex
}

// Tap implements pcie.Tap.
func (r *Recorder) Tap(p *pcie.Packet) *pcie.Packet {
	if r.Match == nil || r.Match(p) {
		q := p.Clone()
		r.mu.Lock()
		r.Captured = append(r.Captured, q)
		r.mu.Unlock()
	}
	return p
}

// Replay re-injects every captured packet into the bus, as a physical
// adversary with bus access would.
func (r *Recorder) Replay(bus *pcie.Bus) []*pcie.Packet {
	var completions []*pcie.Packet
	for _, p := range r.Captured {
		if cpl := bus.Route(p.Clone()); cpl != nil {
			completions = append(completions, cpl)
		}
	}
	return completions
}

// RogueRequester forges packets from an arbitrary requester ID — a
// malicious peripheral, the untrusted host OS, or an unauthorized TVM.
// It imitates a driver's register traffic, and its packets carry the
// roles of the packets they imitate: a register read, a guarded write.
type RogueRequester struct {
	ID  pcie.ID
	Bus *pcie.Bus
}

// Read attempts a memory read; the returned completion exposes whether
// the fabric (filter / IOMMU) let it through.
func (r *RogueRequester) Read(addr uint64, n uint32) *pcie.Packet {
	return r.Bus.Route(pcie.NewMemRead(r.ID, addr, n, 0).WithRole(pcie.RoleRegRead))
}

// Write attempts a posted memory write.
func (r *RogueRequester) Write(addr uint64, data []byte) {
	r.Bus.Route(pcie.NewMemWrite(r.ID, addr, data).WithRole(pcie.RoleGuardedWrite))
}
