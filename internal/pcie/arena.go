package pcie

import (
	"sync"
	"sync/atomic"
)

// packetBlock is how many Packet structs one arena block holds.
const packetBlock = 64

// PacketArena hands out Packet structs for hot paths that emit one
// packet per 256-byte chunk (device DMA engines, the SC's encrypt/tag
// planes, the host bridge's completions). Structs are carved from
// blocks of 64 and come back through Release, so a steady-state
// transfer allocates no packet at all. The zero value is ready to use.
//
// Who may give a struct back (DESIGN.md §10): only a packet's last
// holder, and only when no tap can have kept a pointer to it. Endpoints
// never retain request packets, so after Route returns the last holder
// of a request is the agent that routed it, and the last holder of a
// completion is the requester it was returned to. Taps may retain
// anything they see, so the holder checks Bus.Untapped on the bus it
// routed over AFTER Route returned (the gate that already governs
// payload recycling), and an agent that relays a packet onto a second
// bus pins it (Pin) when that bus turns out to be tapped. A packet that
// is never released is simply left to the collector, which is what
// every packet on a tapped bus gets.
type PacketArena struct {
	// hot holds the struct released last: an agent that takes a packet,
	// routes it and releases it — the shape of every DMA loop — gets the
	// same struct back for one atomic swap each way, without the lock.
	hot   atomic.Pointer[Packet]
	mu    sync.Mutex
	block []Packet
	free  []*Packet
}

// arenaBlocks counts the blocks every PacketArena in the process has
// allocated.
var arenaBlocks atomic.Uint64

// ArenaBlocks reports how many 64-packet blocks all PacketArenas
// together have allocated so far — flat across a steady-state workload
// whose packets all come back, which is how a test sees that they do.
// A test seam: TestPacketRecyclingRespectsTaps holds it flat.
func ArenaBlocks() uint64 { return arenaBlocks.Load() }

func (a *PacketArena) take() *Packet {
	if p := a.hot.Swap(nil); p != nil {
		p.home = a
		return p
	}
	a.mu.Lock()
	var p *Packet
	if n := len(a.free); n > 0 {
		p = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		if len(a.block) == 0 {
			a.block = make([]Packet, packetBlock)
			arenaBlocks.Add(1)
		}
		p = &a.block[0]
		a.block = a.block[1:]
	}
	a.mu.Unlock()
	p.home = a
	return p
}

// Release returns p to the arena it was carved from and reports whether
// it did. It refuses — false, p untouched — a packet that no arena owns
// (built by a New* constructor, pinned by a relay, or released already),
// so callers also use the verdict to decide whether p's payload may go
// back to its buffer pool. The caller must be p's last holder (see
// PacketArena) and must not touch p afterwards.
func Release(p *Packet) bool {
	if p == nil || p.home == nil {
		return false
	}
	a := p.home
	*p = Packet{}
	if a.hot.CompareAndSwap(nil, p) {
		return true
	}
	a.mu.Lock()
	a.free = append(a.free, p)
	a.mu.Unlock()
	return true
}

// Pin takes p out of recycling for good: Release will refuse it and it
// is left to the collector like a freshly allocated packet. An agent
// that relays a packet it did not build onto another bus pins it when,
// after that Route returned, the bus has a tap — the tap may have kept
// the pointer, and the packet's builder cannot see that bus.
func Pin(p *Packet) {
	if p != nil {
		p.home = nil
	}
}

// MemWrite builds a memory-write packet of the given role whose payload
// ownership transfers to the packet (no defensive copy).
func (a *PacketArena) MemWrite(role Role, req ID, addr uint64, payload []byte) *Packet {
	p := a.take()
	p.Header = Header{Kind: MWr, Requester: req, Address: addr, Length: uint32(len(payload))}
	p.Payload = payload
	p.Role = role
	return p
}

// MemRead builds a memory-read request packet of the given role.
func (a *PacketArena) MemRead(role Role, req ID, addr uint64, length uint32, tag uint8) *Packet {
	p := a.take()
	p.Header = Header{Kind: MRd, Requester: req, Address: addr, Length: length, Tag: tag}
	p.Payload = nil
	p.Role = role
	return p
}

// CompletionOwned builds a completion for req, of req's role, with
// ownership of payload transferring to the packet (no defensive copy).
// The payload must never be a pooled buffer its builder might reuse
// while a bus tap still holds the routed packet.
func (a *PacketArena) CompletionOwned(req *Packet, completer ID, status CplStatus, payload []byte) *Packet {
	p := a.take()
	p.Header = Header{
		Kind:      Cpl,
		Requester: req.Requester,
		Completer: completer,
		Tag:       req.Tag,
		Status:    status,
	}
	if payload != nil {
		p.Kind = CplD
		p.Length = uint32(len(payload))
	}
	p.Payload = payload
	p.Role = req.Role
	return p
}
