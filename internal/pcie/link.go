package pcie

import (
	"fmt"

	"ccai/internal/sim"
)

// Gen identifies a PCIe generation, which fixes the per-lane signalling
// rate and line encoding.
type Gen int

const (
	// Gen3 signals at 8 GT/s with 128b/130b encoding.
	Gen3 Gen = 3
	// Gen4 signals at 16 GT/s with 128b/130b encoding.
	Gen4 Gen = 4
	// Gen5 signals at 32 GT/s with 128b/130b encoding.
	Gen5 Gen = 5
)

// GTps reports the generation's per-lane transfer rate in GT/s.
func (g Gen) GTps() float64 {
	switch g {
	case Gen3:
		return 8
	case Gen4:
		return 16
	case Gen5:
		return 32
	}
	panic(fmt.Sprintf("pcie: unknown generation %d", g))
}

func (g Gen) String() string { return fmt.Sprintf("Gen%d (%gGT/s)", int(g), g.GTps()) }

// encodingEfficiency is the 128b/130b line-code payload fraction used by
// Gen3 and later.
const encodingEfficiency = 128.0 / 130.0

// LinkConfig describes one PCIe link's physical shape.
type LinkConfig struct {
	Gen   Gen
	Lanes int
	// PropagationDelay is the one-way flight latency of a TLP across the
	// link (board trace + retimer + SerDes). Typical server boards sit
	// near 150–500 ns.
	PropagationDelay sim.Time
}

// RawBandwidth reports the link's post-encoding raw byte rate per
// direction in bytes/second, before TLP framing overhead.
func (c LinkConfig) RawBandwidth() float64 {
	return c.Gen.GTps() * 1e9 / 8 * float64(c.Lanes) * encodingEfficiency
}

func (c LinkConfig) String() string {
	return fmt.Sprintf("%gGT/s x%d", c.Gen.GTps(), c.Lanes)
}

// Link is one PCIe link of a given shape. The cost model prices traffic
// analytically (internal/bench); a Link answers only the latency of a
// minimal non-posted transaction on it.
type Link struct {
	cfg LinkConfig
}

// NewLink builds a link with the given configuration. The name is not
// kept.
func NewLink(name string, cfg LinkConfig) *Link {
	if cfg.Lanes <= 0 {
		panic("pcie: link needs at least one lane")
	}
	return &Link{cfg: cfg}
}

// WireBytes reports the total on-link size of transferring n payload
// bytes as a stream of TLPs with maximum payload per packet, plus
// extraPackets additional header-only packets (ccAI tag/metadata
// companions).
func WireBytes(n int64, extraPackets int64) int64 {
	if n < 0 {
		panic("pcie: negative transfer size")
	}
	packets := (n + MaxPayload - 1) / MaxPayload
	return n + (packets+extraPackets)*HeaderOverhead
}

// RoundTrip reports the latency of a minimal non-posted transaction
// (request out, completion back) on an idle link — the basis of MMIO
// read cost: a header's serialization at the raw rate plus the flight
// delay, each way.
func (l *Link) RoundTrip() sim.Time {
	perPkt := sim.Time(float64(HeaderOverhead) / l.cfg.RawBandwidth() * float64(sim.Second))
	return 2 * (perPkt + l.cfg.PropagationDelay)
}
