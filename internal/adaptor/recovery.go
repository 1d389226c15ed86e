package adaptor

import (
	"errors"
	"fmt"

	"ccai/internal/core"
	"ccai/internal/obsv"
	"ccai/internal/pcie"
	"ccai/internal/secmem"
)

// maxRetries bounds the Adaptor's recovery behaviour: every retryable
// operation gets at most 1+maxRetries attempts. When attempts run out
// the Adaptor does not limp along — it reports the failure so the
// caller can fail closed (teardown through the environment guard),
// because a confidential session in an unknown state is worth less than
// no session.
const maxRetries = 4

// RecoveryStats counts fault-recovery activity. The fault matrix
// asserts on these to prove recovery actually exercised the injected
// path rather than silently passing.
type RecoveryStats struct {
	// Timeouts counts non-posted requests that saw no completion.
	Timeouts uint64
	// Retries counts re-issued requests (all causes).
	Retries uint64
	// Recovered counts operations that failed at least once and then
	// succeeded.
	Recovered uint64
	// StaleSuppressed counts completions discarded because their
	// transaction tag did not match the outstanding request.
	StaleSuppressed uint64
	// CryptoRetries counts crypto ops re-run after secmem.ErrTransient.
	CryptoRetries uint64
	// Reposts counts tag-table re-uploads after suspected tag loss.
	Reposts uint64
	// Resyncs is always 0. It counted re-alignments of an A3 write
	// sequence the ring no longer has (the span seal is its one
	// freshness check), and stays only for the readers that print it.
	Resyncs uint64
	// Exhausted counts operations that ran out of retries.
	Exhausted uint64
	// FailClosed counts fail-closed teardowns.
	FailClosed uint64
	// LastFailure describes the most recent fail-closed cause.
	LastFailure string
}

// Recovery reports a snapshot of the recovery counters.
func (a *Adaptor) Recovery() RecoveryStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rec
}

// readWithRetry issues a non-posted read with a fresh transaction tag
// per attempt, retrying on completion timeout and suppressing stale
// completions (tag mismatch) without accepting their data. A UR/CA
// completion is a definitive policy answer and is never retried.
// Callers hold a.mu.
func (a *Adaptor) readWithRetry(addr uint64) (*pcie.Packet, error) {
	// Non-posted ordering: a read must not pass writes still pending in
	// the submission ring.
	if err := a.flushRingLocked(); err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		tag := a.nextTag
		a.nextTag++
		a.io.MMIOReads++
		cpl := a.bus.Route(pcie.NewMemRead(a.id, addr, 8, tag).WithRole(pcie.RoleRegRead))
		if cpl != nil && cpl.Tag != tag {
			// A completion for a request we no longer have outstanding:
			// stale or duplicated in flight. Accepting it would hand the
			// caller another transaction's (possibly older) data, so it
			// is suppressed and the attempt treated as timed out.
			a.rec.StaleSuppressed++
			a.obs.tracer.Mark(siteStaleSuppress, keyAddr.Hex(addr))
			cpl = nil
		} else if cpl == nil || cpl.Status == pcie.CplSuccess && len(cpl.Payload) < 8 {
			// Lost, or cut short in flight: no register value to hand back.
			a.rec.Timeouts++
			cpl = nil
		}
		if cpl != nil {
			if cpl.Status != pcie.CplSuccess {
				return nil, fmt.Errorf("adaptor: read %#x rejected (%v)", addr, cpl.Status)
			}
			if attempt > 0 {
				a.rec.Recovered++
			}
			return cpl, nil
		}
		if attempt >= maxRetries {
			a.rec.Exhausted++
			return nil, fmt.Errorf("adaptor: read %#x: no completion after %d attempts", addr, attempt+1)
		}
		a.rec.Retries++
		a.obs.tracer.Mark(siteRetry, keyAddr.Hex(addr), keyAttempt.I64(int64(attempt+1)))
	}
}

// retryTransient runs one crypto operation, re-running it only on
// transient engine faults (op labels the retry instant: "seal" or
// "open"). secmem.ErrTransient fires before the stream consumes an IV
// counter, reserves a batch range, moves a watermark or hands a chunk
// to an emit callback, so a retry replays the identical operation with
// the SAME counters — a retransmit never reuses an IV because the
// failed attempt never allocated one. Auth and replay failures are
// security verdicts, not faults, and return at once. Callers hold a.mu.
func (a *Adaptor) retryTransient(op string, fn func() error) error {
	for attempt := 0; ; attempt++ {
		err := fn()
		if !errors.Is(err, secmem.ErrTransient) {
			if err == nil && attempt > 0 {
				a.rec.Recovered++
			}
			return err
		}
		if attempt >= maxRetries {
			a.rec.Exhausted++
			return err
		}
		a.rec.CryptoRetries++
		a.obs.tracer.Mark(siteCryptoRetry, keyOp.Str(obsv.Intern(op)))
	}
}

// sealWithRetry seals one record under the crypto-retry discipline.
func (a *Adaptor) sealWithRetry(s *secmem.Stream, pt, aad []byte) (sealed *secmem.Sealed, err error) {
	err = a.retryTransient("seal", func() error {
		sealed, err = s.Seal(pt, aad)
		return err
	})
	return sealed, err
}

// sealBatchIntoWithRetry drives the streaming seal pipeline into dst —
// a bounce buffer — under the same discipline: emit still observes every
// chunk exactly once, in submission order, and a transient fault leaves
// dst untouched.
func (a *Adaptor) sealBatchIntoWithRetry(s *secmem.Stream, dst []byte, pts, aads [][]byte, emit func(i int, chunk *secmem.Sealed) error) error {
	return a.retryTransient("seal", func() error { return s.SealBatchInto(dst, pts, aads, emit) })
}

// openBatchIntoWithRetry is the in-place batch decrypt twin; a failed
// batch leaves dst zeroed.
func (a *Adaptor) openBatchIntoWithRetry(s *secmem.Stream, dst []byte, sealed []secmem.Sealed, aads [][]byte) error {
	return a.retryTransient("open", func() error { return s.OpenBatchInto(dst, sealed, aads, nil) })
}

// RepostTags re-uploads a region's retained tag records after suspected
// tag-packet loss — for a step window, the positioned tags of the step
// armed last. The SC re-verifies already-consumed chunks through its
// duplicate-read cache, so reposting is idempotent and never weakens
// the replay discipline.
func (a *Adaptor) RepostTags(r *Region) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(r.Recs) == 0 {
		return
	}
	a.rec.Reposts++
	a.obs.tracer.Mark(siteRepostTags,
		keyRegion.U64(uint64(r.Desc.ID)), keyRecords.I64(int64(len(r.Recs))))
	var err error
	if r.Desc.Slotted {
		err = a.postArm(r)
	} else {
		err = a.postTags(r)
	}
	if err == nil {
		_ = a.flushRingLocked()
	}
}

// FailClosed tears the session down in response to unrecoverable
// faults: keys zeroized on both ends, device cleaned through the
// environment guard (via the SC teardown path). Confidentiality is
// preserved by construction — nothing that was protected becomes less
// protected because the session died.
//
// reason names the failure class and is recorded as a span attribute,
// so it must be one of a few fixed strings (the symbol table keeps
// every distinct one for the life of the process); what varies from
// one failure to the next — counts, status words — goes in detail as
// numeric attributes. RecoveryStats.LastFailure and the audit event
// keep both, rendered as text.
func (a *Adaptor) FailClosed(reason string, detail ...obsv.Attr) {
	a.mu.Lock()
	defer a.mu.Unlock()
	text := reason
	for _, d := range detail {
		text += " " + d.Key + "=" + d.Val()
	}
	a.rec.FailClosed++
	a.rec.LastFailure = text
	a.obs.tracer.Instant(obsv.TrackAdaptor, "recovery.fail_closed",
		append([]obsv.Attr{obsv.Str("reason", reason)}, detail...)...)
	a.hub.Eventf(obsv.EvFailClosed, "", "reason=%s", text)
	a.teardownLocked()
}

// InstallCryptoFault threads a transient-fault hook into every stream
// replica the Adaptor seals/opens with (fault-injection wiring).
func (a *Adaptor) InstallCryptoFault(fn func(op string) error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, s := range []*secmem.Stream{a.h2d, a.d2h, a.config} {
		if s != nil {
			s.SetFaultHook(fn)
		}
	}
}

// AuditIVs installs an (epoch, counter) observer on the Adaptor's
// seal-side streams — the oracle behind the "no IV reuse under any
// fault" matrix invariant.
func (a *Adaptor) AuditIVs(stream string, fn func(epoch, counter uint32)) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	s, err := a.streamLocked(stream)
	if err != nil {
		return err
	}
	s.SetIVAudit(fn)
	return nil
}

// ForceStreamCounter positions a stream's send counter (exhaustion and
// wraparound testing).
func (a *Adaptor) ForceStreamCounter(stream string, c uint32) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	s, err := a.streamLocked(stream)
	if err != nil {
		return err
	}
	s.ForceCounter(c)
	return nil
}

// streamLocked resolves a stream replica by name. Callers hold a.mu.
func (a *Adaptor) streamLocked(stream string) (*secmem.Stream, error) {
	var s *secmem.Stream
	switch stream {
	case core.StreamH2D:
		s = a.h2d
	case core.StreamD2H:
		s = a.d2h
	case core.StreamConfig:
		s = a.config
	}
	if s == nil {
		return nil, fmt.Errorf("adaptor: no stream replica %q", stream)
	}
	return s, nil
}
