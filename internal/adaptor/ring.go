package adaptor

import (
	"errors"
	"fmt"

	"ccai/internal/core"
	"ccai/internal/mem"
	"ccai/internal/obsv"
	"ccai/internal/pcie"
)

// Submission-ring producer (§5 batched I/O): the ring is the Adaptor's
// control path. Sealed rule/descriptor/rekey blobs, packed tag records,
// region releases, notifies and batched A3 guarded writes are appended
// to a ring the Adaptor owns in TVM memory, and each burst is published
// with a single MMIO doorbell carrying the new absolute tail: an
// operation costs a plain memory write plus its share of one doorbell,
// which is where the §5 I/O-reduction comes from. The SC consumes
// synchronously on the doorbell, DMA-writes its head back into the ring
// header, and raises the header status word on framing desync — which
// the producer treats as unrecoverable and fails closed.

// ErrRingDesync reports that the SC declared the submission ring
// inconsistent; the session has been torn down (fail closed).
var ErrRingDesync = errors.New("adaptor: submission ring desync; session torn down")

// ringSlots is the submission-ring depth. A 64 KiB staged transfer
// needs ~32 entries (2 descriptors, ~29 tag packets, 1 notify), so a
// whole task normally publishes with one doorbell and never wraps
// mid-burst.
const ringSlots = 64

// submitRing is the producer view: the ring buffer plus the absolute
// tail index and the count of entries not yet confirmed consumed.
type submitRing struct {
	buf      *mem.Buffer
	slots    uint64
	tail     uint64 // absolute index of the next entry to write
	pend     uint64 // entries published-or-pending since the last confirmed flush
	lastHead uint64 // highest SC head ever confirmed; regression = fail closed
}

// ringPush appends one entry. If the ring is full the pending burst is
// flushed first (the SC consumes synchronously, so one flush always
// frees every slot). Plain memory writes only — the bus is not
// touched. Callers hold a.mu.
func (a *Adaptor) ringPush(op uint8, arg uint64, payload []byte) error {
	r := a.ring
	if r == nil {
		return errNoSession
	}
	if len(payload) > core.RingMaxData {
		return fmt.Errorf("adaptor: ring entry payload %d exceeds %d", len(payload), core.RingMaxData)
	}
	if r.pend == r.slots {
		if err := a.flushRingLocked(); err != nil {
			return err
		}
	}
	slot := r.tail % r.slots
	dst := r.buf.Bytes()[core.RingHdrSize+slot*core.RingSlotSize:][:core.RingSlotSize]
	var hdr [core.RingEntryHdrSize]byte
	core.PutRingEntry(&hdr, op, uint16(len(payload)), uint32(r.tail), arg)
	copy(dst, hdr[:])
	copy(dst[core.RingEntryHdrSize:], payload)
	if slot < core.RingMirrorSlots {
		// Keep the mirror tail identical, so the SC can read a wrapping
		// burst in one contiguous run.
		copy(r.buf.Bytes()[core.RingHdrSize+(r.slots+slot)*core.RingSlotSize:], dst)
	}
	r.tail++
	r.pend++
	a.obs.ringEntries.Inc()
	return nil
}

// flushRingLocked publishes the pending burst: one doorbell MMIO write
// with the absolute tail, then the ring header is inspected for the
// outcome. A raised status word means the SC saw corrupted framing —
// that is not retryable, the session fails closed. A head that did not
// reach the tail means the doorbell (or the SC's span fetch) was lost;
// the doorbell is re-issued under the standard retry ladder, which is
// safe because the SC consumes [head, tail) idempotently from its own
// head. Callers hold a.mu. A nil or empty ring is a no-op.
func (a *Adaptor) flushRingLocked() error {
	r := a.ring
	if r == nil || r.pend == 0 {
		return nil
	}
	a.obs.ringFlushes.Inc()
	delay := a.policy.Backoff
	for attempt := 0; ; attempt++ {
		a.obs.ringDoorbells.Inc()
		a.mmioWrite64(pcie.RoleRingDoorbell, core.RegRingDoorbell, r.tail)
		if status, err := a.space.ReadUint64(r.buf.Base() + 8); err == nil && status != 0 {
			a.rec.FailClosed++
			a.rec.LastFailure = "submission ring desync"
			a.obs.tracer.Mark(siteFailClosed, keyReason.Str(symRingDesync))
			a.hub.Eventf(obsv.EvFailClosed, "", "reason=ring-desync")
			a.teardownLocked()
			return ErrRingDesync
		}
		head, err := a.space.ReadUint64(r.buf.Base())
		if err == nil && head == r.tail {
			r.pend = 0
			r.lastHead = head
			if attempt > 0 {
				a.rec.Recovered++
			}
			return nil
		}
		// An implausible head — past the published tail, or behind a value
		// the SC already confirmed — is not yet a verdict: a link bit
		// error in the head writeback looks exactly like this, and the SC
		// rewrites the true head on every re-doorbell, so the retry ladder
		// gets a chance to correct it. Only a regression that survives the
		// whole ladder means the header is lying about history, and a
		// producer that cannot trust its own consumption record must stop.
		implausible := err == nil && (head > r.tail || head < r.lastHead)
		if attempt >= a.policy.MaxRetries {
			if implausible {
				a.rec.FailClosed++
				a.rec.LastFailure = "submission ring head regression"
				a.obs.tracer.Mark(siteFailClosed, keyReason.Str(symRingHeadRegression))
				a.hub.Eventf(obsv.EvFailClosed, "", "reason=ring-head-regression")
				a.teardownLocked()
				return ErrRingDesync
			}
			a.rec.Exhausted++
			return fmt.Errorf("adaptor: ring flush: head %d never reached tail %d", head, r.tail)
		}
		a.rec.Retries++
		a.obs.tracer.Mark(siteRetry, keyOp.Str(symRingDoorbell), keyAttempt.I64(int64(attempt+1)))
		a.backoff(&delay)
	}
}
