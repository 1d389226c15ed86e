package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ccai/internal/obsv"
	"ccai/internal/pcie"
	"ccai/internal/secmem"
)

// StreamID names a protected data stream managed by the De/Encryption
// Parameters Manager. The Adaptor and PCIe-SC agree on stream names
// during trust establishment.
const (
	// StreamH2D protects host→device payloads (inputs, weights, code).
	StreamH2D = "h2d"
	// StreamD2H protects device→host payloads (results).
	StreamD2H = "d2h"
	// StreamConfig protects Packet Filter policy updates (§4.1
	// "dynamic and secure configuration").
	StreamConfig = "config"
	// KeyRingSeal keys the GMAC that seals every published span of the
	// submission ring (ring.go): raw key material with no stream context,
	// and a key of its own, not the config stream's. The seal is the one
	// check on everything A3 a submission carries — its guarded writes
	// and its command runs.
	KeyRingSeal = "ring-seal"
)

// ErrNoStream reports a protected packet arriving before its stream's
// parameters were installed.
var ErrNoStream = errors.New("core: no de/encryption parameters for stream")

// ErrStreamHashCollision reports an Activate whose stream name collides
// with an already-active stream (or a reserved one) under the 32-bit
// wire hash. Tag packets carry only the hash, so admitting both
// names would make their records ambiguous; the manager fails closed
// and rejects the second stream.
var ErrStreamHashCollision = errors.New("core: stream name hash collides with an active stream")

// ParamsManager is the De/Encryption Parameters Manager control panel
// (§4.2): it owns the per-stream cryptographic parameters (key, the
// 12-byte-nonce/4-byte-counter IV state) and hands out the secmem
// streams the AES engine uses. Each logical transfer region binds to
// one stream context. All methods are safe for concurrent use.
type ParamsManager struct {
	// mu serializes the writers: Activate, Rekey, DestroyAll and
	// SetObserver. hub and track are guarded by it.
	mu   sync.Mutex
	keys *secmem.KeyStore
	// active is the live stream contexts, each with its 32-bit wire hash
	// worked out once for Activate's collision check. A writer publishes
	// a new slice under mu and never changes a published one, so Stream
	// and Active read it with no lock. Activation rejects collisions, so
	// each hash names at most one stream.
	active atomic.Pointer[[]activeStream]

	// hub/track propagate observability to streams activated later.
	hub   *obsv.Hub
	track string
}

// activeStream is one live stream context and its wire hash.
type activeStream struct {
	name   string
	hash   uint32
	stream *secmem.Stream
}

// streams is the published table of live stream contexts.
func (pm *ParamsManager) streams() []activeStream { return *pm.active.Load() }

// SetObserver instruments existing streams and records the hub so
// streams activated afterwards inherit it.
func (pm *ParamsManager) SetObserver(h *obsv.Hub, track string) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	pm.hub = h
	pm.track = track
	for _, a := range pm.streams() {
		a.stream.SetObserver(h, track, a.name)
	}
}

// NewParamsManager builds a manager over a key store (the PCIe-SC's
// trust-module storage).
func NewParamsManager(keys *secmem.KeyStore) *ParamsManager {
	pm := &ParamsManager{keys: keys}
	pm.active.Store(new([]activeStream))
	return pm
}

// wellKnownStreams are the platform's fixed stream names. No other name
// may activate with a colliding hash.
var wellKnownStreams = []string{StreamH2D, StreamD2H, StreamConfig}

// Activate instantiates the stream context for a named stream from
// installed key material. A name whose 32-bit wire hash collides with
// an already-active stream (or a reserved name) is
// rejected: tag packets identify streams by hash alone, and two live
// streams sharing one hash could cross-match each other's tags.
func (pm *ParamsManager) Activate(name string) error {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	h := hashStream(name)
	for _, known := range wellKnownStreams {
		if name != known && h == hashStream(known) {
			return fmt.Errorf("%w: %q vs reserved %q (hash %#x)",
				ErrStreamHashCollision, name, known, h)
		}
	}
	old := pm.streams()
	for _, a := range old {
		if a.name != name && a.hash == h {
			return fmt.Errorf("%w: %q vs active %q (hash %#x)",
				ErrStreamHashCollision, name, a.name, h)
		}
	}
	s, err := pm.keys.Stream(name)
	if err != nil {
		return err
	}
	s.SetObserver(pm.hub, pm.track, name)
	next := make([]activeStream, 0, len(old)+1)
	for _, a := range old {
		if a.name != name {
			next = append(next, a)
		}
	}
	next = append(next, activeStream{name: name, hash: h, stream: s})
	pm.active.Store(&next)
	return nil
}

// Stream returns the active context for name.
func (pm *ParamsManager) Stream(name string) (*secmem.Stream, error) {
	for _, a := range pm.streams() {
		if a.name == name {
			return a.stream, nil
		}
	}
	return nil, fmt.Errorf("%w %q", ErrNoStream, name)
}

// Rekey replaces a stream's parameters (IV-exhaustion mitigation, §6).
func (pm *ParamsManager) Rekey(name string, key, nonce []byte) error {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	s, err := pm.Stream(name)
	if err != nil {
		return err
	}
	if err := pm.keys.Install(name, key, nonce); err != nil {
		return err
	}
	return s.Rekey(key, nonce)
}

// DestroyAll drops every context and zeroizes key material (teardown).
func (pm *ParamsManager) DestroyAll() {
	pm.mu.Lock()
	pm.active.Store(new([]activeStream))
	pm.mu.Unlock()
	pm.keys.DestroyAll()
}

// Active reports how many stream contexts are live. A test seam for
// sliceHygiene and the protocol model: a torn-down slice holds none.
func (pm *ParamsManager) Active() int {
	return len(pm.streams())
}

// --- Authentication Tag Manager -------------------------------------------

// TagRecord is one authentication-tag record: the GCM tag, IV counter
// and key epoch of a protected chunk, and the stream it was sealed
// under. On the wire these arrive as companion tag packets — ring tag
// entries positioned at their region — and the SC keeps each on its
// region's tag table until a read of the chunk matches it (§4.2).
type TagRecord struct {
	Stream string
	Chunk  uint32
	Epoch  uint32
	Tag    [secmem.TagSize]byte
}

// TagRecordSize is the serialized tag-packet payload size.
const TagRecordSize = 4 + 4 + 4 + secmem.TagSize // stream hash, chunk, epoch, tag

// AppendMarshal appends the record's tag-packet encoding to buf and
// returns the extended slice; callers assemble multi-record tag packets
// into reused buffers.
func (t TagRecord) AppendMarshal(buf []byte) []byte {
	var zero [TagRecordSize]byte
	off := len(buf)
	buf = append(buf, zero[:]...)
	binary.LittleEndian.PutUint32(buf[off+0:], hashStream(t.Stream))
	binary.LittleEndian.PutUint32(buf[off+4:], t.Chunk)
	binary.LittleEndian.PutUint32(buf[off+8:], t.Epoch)
	copy(buf[off+12:], t.Tag[:])
	return buf
}

func hashStream(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// --- xPU environment guard --------------------------------------------------

// MMIOCheck is one environment-verification predicate on a guarded
// register: A3 traffic targeting Reg must satisfy Valid before being
// forwarded (e.g. the xPU page-table base must point into the measured
// region, §4 "checking the correctness of the xPU page table
// register").
type MMIOCheck struct {
	Reg   uint64 // BAR0-relative register offset
	Valid func(value uint64) bool
}

// EnvGuard is the xPU environment guard (§4.2): it validates guarded
// MMIO writes during computing and cleans the device on teardown.
// All methods are safe for concurrent use.
type EnvGuard struct {
	// mu serializes AddCheck.
	mu sync.Mutex
	// checks is the installed predicates. AddCheck publishes a new slice
	// under mu and never changes a published one, so VerifyMMIO scans it
	// with no lock.
	checks atomic.Pointer[[]MMIOCheck]
}

// NewEnvGuard returns a guard with no checks installed.
func NewEnvGuard() *EnvGuard {
	g := &EnvGuard{}
	g.checks.Store(new([]MMIOCheck))
	return g
}

// AddCheck installs a register predicate.
func (g *EnvGuard) AddCheck(c MMIOCheck) {
	g.mu.Lock()
	defer g.mu.Unlock()
	next := append(slices.Clip(*g.checks.Load()), c)
	g.checks.Store(&next)
}

// VerifyMMIO validates a BAR0-relative register write; a false return
// means the write must be blocked. Unguarded registers pass.
func (g *EnvGuard) VerifyMMIO(reg uint64, value uint64) bool {
	for _, c := range *g.checks.Load() {
		if c.Reg == reg && !c.Valid(value) {
			return false
		}
	}
	return true
}

// CleanCmd describes how the guard resets the device: a soft
// environment-reset MMIO when supported, otherwise a cold boot.
type CleanCmd struct {
	Soft bool
	Reg  uint64
	Val  uint64
}

// CleanPlan decides the teardown reset strategy for a device that does
// or does not support software reset.
func (g *EnvGuard) CleanPlan(softResetSupported bool, resetReg, softVal, coldVal uint64) CleanCmd {
	if softResetSupported {
		return CleanCmd{Soft: true, Reg: resetReg, Val: softVal}
	}
	return CleanCmd{Soft: false, Reg: resetReg, Val: coldVal}
}

// ChunkSize is the smallest protection granularity the Adaptor uses:
// one TLP payload (Max_Payload_Size), the slot of a step window and the
// chunk of a step channel's output region. Each chunk consumes one IV
// counter and one tag record. A region's own granularity is its
// descriptor's ChunkSize; bulk regions use MaxReadReq chunks.
const ChunkSize = pcie.MaxPayload
