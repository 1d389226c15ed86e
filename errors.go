package ccai

import (
	"context"
	"errors"
	"fmt"

	"ccai/internal/llm"
	"ccai/internal/sched"
	"ccai/internal/secmem"
)

// The v2 error taxonomy: every failure the public API reports is
// rooted in one of these sentinels, wrapped with %w so errors.Is
// matches across package boundaries regardless of the tenant/context
// decoration a particular site adds. Callers branch on the sentinel,
// log the wrapped string.
var (
	// ErrNotTrusted is returned when a protected operation runs before
	// EstablishTrust, or after the session was torn down (fail-closed
	// recovery, Close).
	ErrNotTrusted = errors.New("ccai: trust not established")

	// ErrAttestFailed is returned when the PCIe-SC's software-based
	// firmware attestation (§6) rejects the xPU: keys are never
	// provisioned to a device that answers the challenge wrongly.
	ErrAttestFailed = errors.New("ccai: xPU firmware attestation failed")

	// ErrAuthFailure marks cryptographic authentication failures on the
	// protected datapath (GCM tag mismatch on collect, tampered chunk).
	// It aliases secmem.ErrAuth so errors already wrapping the engine's
	// sentinel match without re-wrapping.
	ErrAuthFailure = secmem.ErrAuth

	// ErrQueueFull is the scheduler's fail-fast backpressure signal: the
	// tenant's bounded ingress queue is at capacity and the request was
	// rejected at admission. It aliases the internal queue's sentinel.
	ErrQueueFull = sched.ErrQueueFull

	// ErrDeadlineExceeded is returned for a request whose context
	// deadline expired — at admission, while queued, or in flight. It
	// aliases context.DeadlineExceeded so errors.Is matches either
	// spelling.
	ErrDeadlineExceeded = context.DeadlineExceeded

	// ErrNoTenant is returned for a task addressed to a tenant index a
	// MultiPlatform does not have.
	ErrNoTenant = errors.New("ccai: no such tenant")

	// ErrEmptyInput is returned for a task with no input bytes.
	ErrEmptyInput = errors.New("ccai: empty task input")

	// ErrSchedulerClosed is returned by Submit after Drain or Shutdown:
	// the scheduler no longer admits work.
	ErrSchedulerClosed = errors.New("ccai: scheduler closed")

	// ErrObserveOff is returned by accessors that need the observability
	// layer when the platform was built without it. Metric and span
	// accessors themselves are nil-safe (see Observability) — only
	// exports that would otherwise produce an empty artifact error.
	ErrObserveOff = errors.New("ccai: observability not enabled (WithObserve)")

	// ErrSessionClosed is returned for operations on an InferenceSession
	// after Close — including Close racing an in-flight Prefill/Decode:
	// the session's KV region is gone and no step may touch it.
	ErrSessionClosed = errors.New("ccai: inference session closed")

	// ErrKVBudgetExceeded is returned at OpenSession when the session's
	// KV-cache reservation does not fit the engine budget (or the
	// per-session device window), and at Prefill when the prompt
	// overruns the reservation. It aliases the engine's sentinel so
	// errors already wrapping llm.ErrKVBudget match unchanged.
	ErrKVBudgetExceeded = llm.ErrKVBudget

	// ErrStreamAborted is returned (as the Err of the final
	// DecodeChunk, and by Prefill) when a decode stream dies before its
	// final chunk: consumer context cancelled, injected scheduler
	// cancel, or a step failing terminally mid-stream.
	ErrStreamAborted = errors.New("ccai: decode stream aborted")
)

// ctxErr decorates a context error; errors.Is still matches
// context.Canceled / ErrDeadlineExceeded through the wrap.
func ctxErr(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("ccai: request aborted: %w", err)
}
