package ccai

import (
	"ccai/internal/llm"
	"ccai/internal/telemetry"
	"ccai/internal/xpu"
)

// Option is one functional construction option for New and
// NewMultiPlatform; zero options means the defaults (A100, Vanilla,
// observability off).
type Option func(*config)

// WithXPU selects the device model (xpu.A100, xpu.H100, xpu.MI300,
// ...).
func WithXPU(p xpu.Profile) Option { return func(c *config) { c.XPU = p } }

// WithMode selects Vanilla or Protected operation.
func WithMode(m Mode) Option { return func(c *config) { c.Mode = m } }

// WithObserve enables the observability layer: the metrics registry
// and span tracer wired through every pipeline stage.
func WithObserve() Option { return func(c *config) { c.Observe = true } }

// WithTelemetry attaches the live telemetry plane: an HTTP server
// (Prometheus-text metrics with p50/p99 and exemplars, JSON snapshots,
// health, token-isolated per-tenant views), a hash-chained security
// audit log, and rolling-window SLO monitors with burn-rate alerts.
// Implies WithObserve. The zero Options binds loopback on an ephemeral
// port with a generated admin token — read it back via
// Telemetry().AdminToken().
func WithTelemetry(o telemetry.Options) Option {
	return func(c *config) { opts := o; c.Telemetry = &opts; c.Observe = true }
}

// WithGoldenFirmware sets the firmware measurement the PCIe-SC attests
// the xPU against — every tenant's xPU, on a MultiPlatform; empty means
// each profile's shipped firmware.
func WithGoldenFirmware(fw string) Option { return func(c *config) { c.GoldenFirmware = fw } }

// WithLLMEngine configures the chassis's continuous-batching inference
// engine (KV budget, session slots, dispatcher workers).
// Only NewMultiPlatform consumes it; zero fields keep engine defaults.
func WithLLMEngine(cfg llm.EngineConfig) Option {
	return func(c *config) { c.LLM = cfg }
}
