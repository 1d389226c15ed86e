package obsv

import (
	"fmt"
	"sync/atomic"
)

// Security event kinds emitted through Hub.Event. They are the audit
// vocabulary of the telemetry plane: every trust-lifecycle transition
// an operator must be able to reconstruct after the fact. Kinds are
// metadata; details carry only names, counters and reasons — never
// payload or key bytes.
const (
	// EvAttest: a session established trust (device attestation + key
	// provisioning) for the first time.
	EvAttest = "attest"
	// EvRetrust: a previously torn-down session re-established trust
	// under a fresh generation (keys are re-derived, never reused).
	EvRetrust = "re-trust"
	// EvRekey: a protected stream rotated its key/IV material.
	EvRekey = "rekey"
	// EvFailClosed: the recovery ladder exhausted and the session was
	// torn down rather than weaken an invariant.
	EvFailClosed = "fail-closed"
	// EvRogue: the PCIe-SC filter dropped unauthorized traffic.
	EvRogue = "rogue-filtered"
	// EvSealSensor: a chassis physical-integrity sensor left its sealed
	// envelope.
	EvSealSensor = "seal-sensor"
	// EvSLOAlert / EvSLOClear: a rolling SLO burn-rate alert fired or
	// resolved.
	EvSLOAlert = "slo-alert"
	EvSLOClear = "slo-clear"
)

// EventSink receives security events; the telemetry plane's audit log
// implements it. Sinks must be safe for concurrent use.
type EventSink func(kind, tenant, detail string)

// Hub bundles the metrics registry and the span tracer that one
// platform's components share. A nil *Hub (observability off) hands out
// nil handles everywhere, so instrumentation sites never branch on
// enablement themselves.
type Hub struct {
	Metrics *Registry
	Tracer  *Tracer

	sink atomic.Pointer[EventSink]
}

// NewHub builds an enabled hub.
func NewHub() *Hub {
	return &Hub{Metrics: NewRegistry(), Tracer: NewTracer()}
}

// Reg returns the registry (nil when the hub is nil).
func (h *Hub) Reg() *Registry {
	if h == nil {
		return nil
	}
	return h.Metrics
}

// T returns the tracer (nil when the hub is nil).
func (h *Hub) T() *Tracer {
	if h == nil {
		return nil
	}
	return h.Tracer
}

// SetEventSink installs the security-event receiver (nil clears it).
// With no sink installed, Event/Eventf are a nil check — the audit
// stream costs nothing until a telemetry plane attaches.
func (h *Hub) SetEventSink(s EventSink) {
	if h == nil {
		return
	}
	if s == nil {
		h.sink.Store(nil)
		return
	}
	h.sink.Store(&s)
}

// EventsOn reports whether a sink is installed — hot paths use it to
// skip building detail strings.
func (h *Hub) EventsOn() bool {
	return h != nil && h.sink.Load() != nil
}

// Eventf is Event with deferred formatting: the detail string is only
// built when a sink is installed.
func (h *Hub) Eventf(kind, tenant, format string, args ...any) {
	if h == nil {
		return
	}
	if s := h.sink.Load(); s != nil {
		(*s)(kind, tenant, fmt.Sprintf(format, args...))
	}
}

// Canonical track names, one per pipeline stage owner. Keeping them
// here (rather than scattered string literals) is what lets the
// timeline tests assert full pipeline coverage.
const (
	TrackTask    = "task"
	TrackAdaptor = "tvm/adaptor"
	TrackDriver  = "tvm/driver"
	TrackSC      = "pcie-sc"
	TrackFilter  = "pcie-sc/filter"
	TrackCrypto  = "crypto"
	TrackXPU     = "xpu"
	TrackFault   = "fault"
	TrackSched   = "sched"
)
