package pcie

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Endpoint is anything that terminates TLPs: an xPU device model, the
// PCIe-SC, or the host bridge. Handle consumes a request and returns a
// completion when the protocol requires one (MRd, CfgRd/CfgWr) and nil
// for posted transactions. Implementations must not retain p.
type Endpoint interface {
	// DeviceID reports the endpoint's requester/completer ID.
	DeviceID() ID
	// Handle processes one inbound TLP.
	Handle(p *Packet) *Packet
}

// Region describes a memory-space claim (a BAR window) owned by an
// endpoint.
type Region struct {
	Base uint64
	Size uint64
	Name string
}

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr uint64) bool {
	return addr >= r.Base && addr < r.Base+r.Size
}

// End reports the first address past the region.
func (r Region) End() uint64 { return r.Base + r.Size }

// Bus routes TLPs between endpoints: memory requests by address (BAR
// claims), completions and config requests by ID. It stands in for the
// root complex + switch hierarchy; ccAI's PCIe-SC presents itself to the
// host Bus as a single endpoint and owns a private downstream Bus to the
// xPU ("internal PCIe" in Figure 3).
//
// Routing is safe for concurrent use and reentrant: endpoints routinely
// Route on the same bus from inside Handle (a doorbell write triggers
// device DMA upstream), so Route must never block on topology locks.
// The routing tables live in an immutable snapshot swapped atomically
// by the mutators (copy-on-write); Route reads the current snapshot
// lock-free. Each snapshot binds every claim to its owner's endpoint
// when it is built, so address routing hashes nothing. Topology changes
// are assembly-time operations and do not need to be atomic with
// in-flight packets.
type Bus struct {
	name  string
	mu    sync.Mutex // serializes topology mutations (snapshot rebuilds)
	state atomic.Pointer[busState]

	// everTapped latches the first AddTap call for the lifetime of the
	// bus. Taps may retain or duplicate any packet they see, so payload
	// recycling (returning routed payload buffers to an arena pool) is
	// only sound on a bus no tap has ever observed. The flag is sticky
	// on purpose: ClearTaps cannot un-retain packets a tap already saw.
	everTapped atomic.Bool
}

// busState is one immutable routing snapshot.
type busState struct {
	endpoints []Endpoint
	claims    []claim // ascending by base
	taps      []Tap
}

type claim struct {
	region Region
	owner  ID
	// ep is the owner's endpoint, bound when the snapshot is built; nil
	// while the owner is not attached.
	ep Endpoint
}

// Tap observes and may transform packets crossing a bus segment. A tap
// returning nil drops the packet (modelling deletion attacks). Taps run
// in installation order.
type Tap interface {
	Tap(p *Packet) *Packet
}

// TapFunc adapts a function to the Tap interface.
type TapFunc func(p *Packet) *Packet

// Tap implements the Tap interface.
func (f TapFunc) Tap(p *Packet) *Packet { return f(p) }

// NewBus returns an empty bus segment with a diagnostic name.
func NewBus(name string) *Bus {
	b := &Bus{name: name}
	b.state.Store(&busState{})
	return b
}

// mutate rebuilds the routing snapshot under the topology lock, then
// binds every claim to its owner's endpoint in the new snapshot.
func (b *Bus) mutate(fn func(s *busState) error) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	old := b.state.Load()
	next := &busState{
		endpoints: append([]Endpoint(nil), old.endpoints...),
		claims:    append([]claim(nil), old.claims...),
		taps:      append([]Tap(nil), old.taps...),
	}
	if err := fn(next); err != nil {
		return err
	}
	for i := range next.claims {
		next.claims[i].ep = next.endpoint(next.claims[i].owner)
	}
	b.state.Store(next)
	return nil
}

// endpoint finds the attached endpoint with the given ID. Endpoints are
// few (a bridge, an SC or a device and its peers), so a scan beats a
// hash.
func (s *busState) endpoint(id ID) Endpoint {
	for _, e := range s.endpoints {
		if e.DeviceID() == id {
			return e
		}
	}
	return nil
}

// Attach registers an endpoint for ID-routed traffic; claims its ID
// already holds route to it from now on.
func (b *Bus) Attach(e Endpoint) {
	err := b.mutate(func(s *busState) error {
		id := e.DeviceID()
		if s.endpoint(id) != nil {
			return fmt.Errorf("pcie: duplicate endpoint %v on bus %s", id, b.name)
		}
		s.endpoints = append(s.endpoints, e)
		return nil
	})
	if err != nil {
		panic(err.Error())
	}
}

// Detach removes an endpoint and all its memory claims. A test seam:
// the platform never detaches, and TestBusDetach and the churn test
// race it against the lock-free Route.
func (b *Bus) Detach(id ID) {
	_ = b.mutate(func(s *busState) error {
		eps := s.endpoints[:0]
		for _, e := range s.endpoints {
			if e.DeviceID() != id {
				eps = append(eps, e)
			}
		}
		s.endpoints = eps
		kept := s.claims[:0]
		for _, c := range s.claims {
			if c.owner != id {
				kept = append(kept, c)
			}
		}
		s.claims = kept
		return nil
	})
}

// Claim routes memory requests targeting the region to the owner ID.
// Overlapping claims are rejected: address decode must be unambiguous.
func (b *Bus) Claim(owner ID, r Region) error {
	if r.Size == 0 {
		return fmt.Errorf("pcie: empty claim %q", r.Name)
	}
	return b.mutate(func(s *busState) error {
		for _, c := range s.claims {
			if r.Base < c.region.End() && c.region.Base < r.End() {
				return fmt.Errorf("pcie: claim %q overlaps %q", r.Name, c.region.Name)
			}
		}
		s.claims = append(s.claims, claim{region: r, owner: owner})
		sort.Slice(s.claims, func(i, j int) bool { return s.claims[i].region.Base < s.claims[j].region.Base })
		return nil
	})
}

// AddTap installs a bus observer/mutator (snooping or tampering point).
func (b *Bus) AddTap(t Tap) {
	b.everTapped.Store(true)
	_ = b.mutate(func(s *busState) error {
		s.taps = append(s.taps, t)
		return nil
	})
}

// Untapped reports whether no tap has ever been installed on this bus.
// It is the payload-recycling gate: a routed payload may be returned to
// a buffer pool only if Untapped() still holds AFTER Route returned —
// a tap installed later never saw the packet, so the check-after-route
// is race-free even though installation is concurrent. Endpoints must
// not retain request packets (see Endpoint), so on an untapped bus the
// routing initiator or terminal consumer is provably the last holder.
func (b *Bus) Untapped() bool { return !b.everTapped.Load() }

// ClearTaps removes all observers.
func (b *Bus) ClearTaps() {
	_ = b.mutate(func(s *busState) error {
		s.taps = nil
		return nil
	})
}

// Owner resolves the endpoint claiming addr, if any. A test seam:
// TestPlatformHostSideIsMux checks the chassis's host windows belong to
// the Mux, and TestBusDetach that no claim outlives its endpoint.
func (b *Bus) Owner(addr uint64) (ID, bool) {
	if c := b.state.Load().claimAt(addr); c != nil {
		return c.owner, true
	}
	return 0, false
}

func (s *busState) claimAt(addr uint64) *claim {
	// Claims are few (BAR windows); linear scan over sorted slice.
	for i := range s.claims {
		if s.claims[i].region.Contains(addr) {
			return &s.claims[i]
		}
	}
	return nil
}

// Route delivers one TLP to its destination endpoint, applying taps in
// order on the request and again on the returning completion (both
// cross the same physical wire), and returns the completion produced
// (nil for posted writes or dropped packets). Routing failures yield UR
// completions for non-posted requests, exactly as real fabric would.
func (b *Bus) Route(p *Packet) *Packet {
	s := b.state.Load()
	cpl := s.route(p)
	if cpl == nil {
		return nil
	}
	for _, t := range s.taps {
		cpl = t.Tap(cpl)
		if cpl == nil {
			return nil // completion deleted in flight
		}
	}
	return cpl
}

func (s *busState) route(p *Packet) *Packet {
	for _, t := range s.taps {
		p = t.Tap(p)
		if p == nil {
			return nil // deleted in flight
		}
	}
	var dst Endpoint
	switch p.Kind {
	case MRd, MWr:
		if c := s.claimAt(p.Address); c != nil {
			dst = c.ep
		}
	case Cpl, CplD:
		dst = s.endpoint(p.Requester) // completions route back by requester ID
	case CfgRd, CfgWr, Msg, MsgD:
		dst = s.endpoint(p.Completer)
		if dst == nil && (p.Kind == Msg || p.Kind == MsgD) {
			// Broadcast-style message with no target: deliver to all.
			for _, e := range s.endpoints {
				if e.DeviceID() != p.Requester {
					e.Handle(p.Clone())
				}
			}
			return nil
		}
	}
	if dst == nil {
		return s.unsupported(p)
	}
	return dst.Handle(p)
}

func (s *busState) unsupported(p *Packet) *Packet {
	if p.Kind == MWr || p.Kind == Msg || p.Kind == MsgD || p.Kind == Cpl || p.Kind == CplD {
		return nil // posted / completion: silently dropped
	}
	return NewCompletion(p, 0, CplUR, nil)
}
