package adaptor

import (
	"errors"
	"fmt"

	"ccai/internal/core"
	"ccai/internal/mem"
	"ccai/internal/obsv"
	"ccai/internal/pcie"
	"ccai/internal/secmem"
)

// Submission-ring producer (§5 batched I/O): the ring is the Adaptor's
// control path. Sealed rule/descriptor/rekey blobs, packed tag records,
// region releases, notifies and A3 guarded device writes are appended
// to a ring the Adaptor owns in TVM memory, and each burst is published
// with a single MMIO doorbell carrying the new absolute tail: an
// operation costs a plain memory write plus its share of one doorbell,
// which is where the §5 I/O-reduction comes from. Staging posts its
// entries too, so a submission's one doorbell publishes its regions,
// command runs and guarded writes together. Every flush first closes its
// stretch of the ring with a seal entry, a GMAC the SC checks before it
// acts on any entry (core/ring.go). The SC consumes synchronously on the
// doorbell, DMA-writes its head back into the ring header, and raises
// the header status word on a framing or seal failure — which the
// producer treats as unrecoverable and fails closed.

// ErrRingDesync reports that the SC declared the submission ring
// inconsistent; the session has been torn down (fail closed).
var ErrRingDesync = errors.New("adaptor: submission ring desync; session torn down")

// ringSlots is the submission-ring depth in 268-byte slots. A slot
// carries one entry of up to a full TLP payload, or a chain of smaller
// ones: the ~29 tag packets of a 64 KiB staged transfer, each near a
// full TLP, take a slot apiece, while a decode step's five entries and
// its seal share two. A 64 KiB task's submission fills 31 slots under
// one doorbell and its releases one more under a second, so a burst
// never needs the ring-full flush.
const ringSlots = 64

// submitRing is the producer view: the ring buffer, the absolute index
// of the next slot to open, the count of slots not yet confirmed
// consumed, and the open slot — the last pending one, which takes more
// entries until a doorbell publishes it.
type submitRing struct {
	buf      *mem.Buffer
	slots    uint64
	tail     uint64 // absolute index of the next slot to open
	sealed   uint64 // absolute index of the first slot no seal covers yet
	pend     uint64 // slots published-or-pending since the last confirmed flush
	lastHead uint64 // highest SC head ever confirmed; regression = fail closed
	fill     int    // bytes in use of slot tail-1 while it is open; 0 once a doorbell published it
	last     int    // offset in the open slot of its last entry's header
	end      int    // bytes of slot tail-1 through the last seal: where the SC's fetch stops
}

// slot is slot index i's bytes; its mirror copy, when it has one, is the
// second result (nil otherwise).
func (r *submitRing) slot(i uint64) (dst, mirror []byte) {
	b := r.buf.Bytes()
	dst = b[core.RingHdrSize+i*core.RingSlotSize:][:core.RingSlotSize]
	if i < core.RingMirrorSlots {
		// The mirror tail stays identical, so the SC can read a wrapping
		// burst in one contiguous run.
		mirror = b[core.RingHdrSize+(r.slots+i)*core.RingSlotSize:][:core.RingSlotSize]
	}
	return dst, mirror
}

// ringPush appends one entry: behind the last entry of the open slot
// when it fits there (setting that entry's more bit), else at the start
// of a fresh slot. If the ring is full — every slot but the one kept for
// the seal pending — the pending burst is flushed first (the SC consumes
// synchronously, so one flush always frees every slot). A slot a
// doorbell has published is never written again. Plain memory writes
// only — the bus is not touched. Callers hold a.mu.
func (a *Adaptor) ringPush(op uint8, arg uint64, payload []byte) error {
	r := a.ring
	if r == nil {
		return errNoSession
	}
	if len(payload) > core.RingMaxData {
		return fmt.Errorf("adaptor: ring entry payload %d exceeds %d", len(payload), core.RingMaxData)
	}
	need := core.RingEntryHdrSize + len(payload)
	at := r.fill
	if at == 0 || at+need > core.RingSlotSize {
		if r.pend >= r.slots-1 && op != core.RingOpSeal {
			if err := a.flushRingLocked(); err != nil {
				return err
			}
		}
		r.tail++
		r.pend++
		at = 0
	}
	dst, mirror := r.slot((r.tail - 1) % r.slots)
	if at > 0 {
		dst[r.last+1] |= core.RingFlagMore
	}
	var hdr [core.RingEntryHdrSize]byte
	core.PutRingEntry(&hdr, op, uint16(len(payload)), arg)
	copy(dst[at:], hdr[:])
	copy(dst[at+core.RingEntryHdrSize:], payload)
	r.last, r.fill = at, at+need
	if mirror != nil {
		copy(mirror, dst[:r.fill])
	}
	a.obs.ringEntries.Inc()
	return nil
}

// sealLocked closes the stretch of the ring no seal covers yet with a
// seal entry: the entry's header goes in first, then the GMAC under the
// session's KeyRingSeal key over the stretch's bytes through that
// header, with the nonce of (sealed, tail), fills its payload. A stretch
// that wraps past the mirror tail is gathered into sealSpan first; any
// other is read in place. Callers hold a.mu.
func (a *Adaptor) sealLocked() error {
	r := a.ring
	var zero [secmem.TagSize]byte
	if err := a.ringPush(core.RingOpSeal, 0, zero[:]); err != nil {
		return err
	}
	first, n := r.sealed%r.slots, r.tail-r.sealed
	end := int(n-1)*core.RingSlotSize + r.last + core.RingEntryHdrSize
	slots := r.buf.Bytes()[core.RingHdrSize:]
	aad := slots[first*core.RingSlotSize:]
	if first+n > r.slots+core.RingMirrorSlots {
		lap := aad[:(r.slots-first)*core.RingSlotSize]
		a.sealSpan = append(append(a.sealSpan[:0], lap...), slots[:end-len(lap)]...)
		aad = a.sealSpan
	}
	nonce, tag := a.sealBuf[:secmem.GCMNonceSize], a.sealBuf[secmem.GCMNonceSize:]
	core.PutRingSealNonce(nonce, r.sealed, r.tail)
	if err := a.keys.GMAC(core.KeyRingSeal, nonce, aad[:end], tag); err != nil {
		return fmt.Errorf("adaptor: %w", err)
	}
	dst, mirror := r.slot((r.tail - 1) % r.slots)
	copy(dst[r.last+core.RingEntryHdrSize:], tag)
	if mirror != nil {
		copy(mirror[r.last+core.RingEntryHdrSize:], tag)
	}
	r.sealed, r.end = r.tail, r.fill
	return nil
}

// flushRingLocked seals and publishes the pending burst: one doorbell
// MMIO write with the absolute tail and the bytes of its last slot
// through the seal (core.RingDoorbell), then the ring header is inspected
// for the outcome. A raised status word means the SC refused the span's
// framing or seal — that is not retryable, the session fails closed. A
// head that did not reach the tail means the doorbell (or the SC's span
// fetch) was lost; the doorbell is re-issued under the standard retry
// ladder, which is safe because the SC consumes [head, tail)
// idempotently from its own head. Callers hold a.mu. A nil or empty
// ring is a no-op.
func (a *Adaptor) flushRingLocked() error {
	r := a.ring
	if r == nil || r.pend == 0 {
		return nil
	}
	// A flush that failed left its stretch sealed; a re-flush with nothing
	// new re-sends the same sealed bytes.
	if r.sealed != r.tail {
		if err := a.sealLocked(); err != nil {
			return err
		}
	}
	a.obs.ringFlushes.Inc()
	r.fill = 0 // published: the next entry opens a fresh slot
	for attempt := 0; ; attempt++ {
		a.obs.ringDoorbells.Inc()
		a.mmioWrite64(pcie.RoleRingDoorbell, core.RegRingDoorbell, core.RingDoorbell(r.tail, r.end))
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
			r.pend, a.h2dStaged = 0, false
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
		if attempt >= maxRetries {
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
	}
}
