// Package trace captures and summarizes PCIe traffic crossing a bus
// segment. It backs cmd/ccai-trace and the evaluation's traffic
// accounting: per-kind packet counts, payload volumes, per-requester
// breakdowns, and an entropy probe that distinguishes ciphertext-like
// payloads from structured plaintext — a quick visual check that the
// protected path really carries no cleartext.
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"ccai/internal/pcie"
)

// Recorder is a pcie.Tap accumulating traffic statistics. It is safe
// for concurrent use.
type Recorder struct {
	mu sync.Mutex

	byKind      map[pcie.Kind]*kindStats
	byRequester map[pcie.ID]*requesterStats
	packets     uint64
	payload     uint64

	// keep optionally retains full packets for inspection.
	keep     bool
	retained []*pcie.Packet
	limit    int
}

type kindStats struct {
	count   uint64
	payload uint64
}

// requesterStats is one requester's traffic volume: packets and the
// payload bytes they carried (posted writes and completions; requests
// without payload count packets only).
type requesterStats struct {
	count   uint64
	payload uint64
}

// NewRecorder returns a statistics-only recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		byKind:      make(map[pcie.Kind]*kindStats),
		byRequester: make(map[pcie.ID]*requesterStats),
	}
}

// Retain makes the recorder keep up to limit full packets.
func (r *Recorder) Retain(limit int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keep = true
	r.limit = limit
}

// Tap implements pcie.Tap.
func (r *Recorder) Tap(p *pcie.Packet) *pcie.Packet {
	r.mu.Lock()
	defer r.mu.Unlock()
	ks := r.byKind[p.Kind]
	if ks == nil {
		ks = &kindStats{}
		r.byKind[p.Kind] = ks
	}
	ks.count++
	ks.payload += uint64(len(p.Payload))
	rs := r.byRequester[p.Requester]
	if rs == nil {
		rs = &requesterStats{}
		r.byRequester[p.Requester] = rs
	}
	rs.count++
	rs.payload += uint64(len(p.Payload))
	r.packets++
	r.payload += uint64(len(p.Payload))
	if r.keep && len(r.retained) < r.limit {
		r.retained = append(r.retained, p.Clone())
	}
	return p
}

// Packets reports total packets observed.
func (r *Recorder) Packets() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.packets
}

// PayloadBytes reports total payload bytes observed.
func (r *Recorder) PayloadBytes() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.payload
}

// Retained returns the kept packets. A test seam: the telemetry leak
// check scans what the host segment carried.
func (r *Recorder) Retained() []*pcie.Packet {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*pcie.Packet(nil), r.retained...)
}

// Summary renders the per-kind and per-requester breakdown.
func (r *Recorder) Summary(name string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "segment %q: %d packets, %d payload bytes\n", name, r.packets, r.payload)

	kinds := make([]pcie.Kind, 0, len(r.byKind))
	for k := range r.byKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		ks := r.byKind[k]
		fmt.Fprintf(&b, "  %-5s %8d pkts %12d bytes\n", k, ks.count, ks.payload)
	}

	reqs := make([]pcie.ID, 0, len(r.byRequester))
	for id := range r.byRequester {
		reqs = append(reqs, id)
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i] < reqs[j] })
	for _, id := range reqs {
		rs := r.byRequester[id]
		fmt.Fprintf(&b, "  requester %v: %d pkts %12d bytes\n", id, rs.count, rs.payload)
	}
	if r.keep && len(r.retained) > 0 {
		fmt.Fprintf(&b, "  payload entropy: %.2f bits/byte (ciphertext ~8.0)\n", payloadEntropy(r.retained))
	}
	return b.String()
}

// payloadEntropy estimates the mean Shannon entropy (bits/byte) over the
// packets' payloads. AES-GCM ciphertext sits near 8.0; structured
// plaintext (code, text, tensors of small values) sits well below.
func payloadEntropy(pkts []*pcie.Packet) float64 {
	var hist [256]int
	total := 0
	for _, p := range pkts {
		for _, b := range p.Payload {
			hist[b]++
			total++
		}
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range hist {
		if c == 0 {
			continue
		}
		f := float64(c) / float64(total)
		h -= f * math.Log2(f)
	}
	return h
}
