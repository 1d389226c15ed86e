package pcie_test

import (
	"testing"

	"ccai/internal/pcie"
	"ccai/internal/sim"
	"ccai/internal/xpu"
)

// TestLinkRoundTripPositive pins the MMIO round trip of every fleet
// device's link: a 24-byte header serialized at the raw rate plus the
// flight delay, each way. The benchmark's modelled MMIO read cost is
// this value.
func TestLinkRoundTripPositive(t *testing.T) {
	want := map[string]sim.Time{"A100": 500, "T4": 502, "RTX4090Ti": 500, "S60": 500, "N150d": 600}
	for _, p := range xpu.Fleet() {
		if got := pcie.NewLink(p.Name, p.Link).RoundTrip(); got != want[p.Name] {
			t.Errorf("%s (%v, %v one way): round trip %d ns, want %d", p.Name, p.Link, p.Link.PropagationDelay, got, want[p.Name])
		}
	}
}
