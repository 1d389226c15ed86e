package adaptor

// Recovery-path tests: IV-counter discipline as a machine-checked
// property (any interleaving of staging, transient crypto faults,
// rekeys and duplicate device reads keeps IVs strictly monotonic per
// epoch), and the rekey boundary the staging path applies at counter
// max−1 / max / wraparound, including concurrent in-flight seals.

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"ccai/internal/core"
	"ccai/internal/secmem"
)

// ivLedger enforces the seal-side IV contract as the audit hook sees
// it: within an epoch counters strictly increase, epochs never go
// backwards, and no (epoch, counter) pair ever repeats.
type ivLedger struct {
	mu        sync.Mutex
	last      map[uint32]uint32 // epoch -> highest counter seen
	maxEpoch  uint32
	violation string
}

func (l *ivLedger) hook(epoch, counter uint32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.last == nil {
		l.last = make(map[uint32]uint32)
	}
	if epoch < l.maxEpoch {
		l.violation = "epoch went backwards"
		return
	}
	l.maxEpoch = epoch
	if prev, ok := l.last[epoch]; ok && counter <= prev {
		l.violation = "counter not strictly monotonic (reuse or replay)"
		return
	}
	l.last[epoch] = counter
}

func (l *ivLedger) bad() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.violation
}

// TestIVMonotonicProperty drives random op sequences against a live
// Adaptor⇄SC rig — staging (seals), one-shot transient crypto faults
// (retries), explicit and threshold rekeys, counter jumps toward
// exhaustion, and duplicate device reads (duplicate-completion
// analogue) — and requires the h2d seal audit to stay monotonic
// throughout. A retry after ErrTransient must reuse the counter the
// failed attempt never consumed, not burn or repeat one.
func TestIVMonotonicProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		r, dev := newRig(t)
		ledger := &ivLedger{}
		if err := r.adaptor.AuditIVs(core.StreamH2D, ledger.hook); err != nil {
			t.Fatal(err)
		}

		var pending int // one-shot transient faults armed
		r.adaptor.InstallCryptoFault(func(op string) error {
			if op == "seal" && pending > 0 {
				pending--
				return secmem.ErrTransient
			}
			return nil
		})

		var lastBase uint64
		var lastLen int64
		for i, b := range ops {
			switch b % 5 {
			case 0: // stage a payload (consumes IVs, possibly chunked)
				data := bytes.Repeat([]byte{b}, 64+int(b&0x7f))
				region, err := r.adaptor.StageH2D("prop", data)
				if err != nil || r.adaptor.Publish() != nil {
					return false
				}
				lastBase, lastLen = region.Buf.Base(), int64(len(data))
			case 1: // jump the counter toward exhaustion (forward only)
				target := ^uint32(0) - uint32(b%7) - 1
				if r.adaptor.h2d.SendCounter() < target {
					if err := r.adaptor.ForceStreamCounter(core.StreamH2D, target); err != nil {
						return false
					}
				}
			case 2: // jump just past the rekey threshold: the next stage rotates
				target := ^uint32(0) - RekeyThreshold + 1 + uint32(b%7)
				if r.adaptor.h2d.SendCounter() < target {
					if err := r.adaptor.ForceStreamCounter(core.StreamH2D, target); err != nil {
						return false
					}
				}
			case 3: // arm a transient fault for the next seal
				pending = 1 + int(b%2)
			case 4: // duplicate device read of the last staged region
				if lastLen > 0 {
					dev.dmaRead(lastBase, lastLen)
					dev.dmaRead(lastBase, lastLen) // duplicate: OpenStateless path
				}
			}
			if v := ledger.bad(); v != "" {
				t.Logf("op %d (%d): %s", i, b, v)
				return false
			}
		}

		// The stream must still carry traffic end to end.
		final := []byte("post-sequence payload")
		region, err := r.adaptor.StageH2D("final", final)
		if err != nil || r.adaptor.Publish() != nil {
			return false
		}
		got, ok := dev.dmaRead(region.Buf.Base(), int64(len(final)))
		return ok && bytes.Equal(got, final) && ledger.bad() == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMaybeRekeyBoundary pins the rotation trigger the staging path
// applies at the exact counter edges: max−1 and max must rotate,
// exactly-at-threshold must not, and an exhausted counter must refuse to
// seal rather than wrap.
func TestMaybeRekeyBoundary(t *testing.T) {
	t.Run("max-1 rotates", func(t *testing.T) {
		r, dev := newRig(t)
		if err := r.adaptor.ForceStreamCounter(core.StreamH2D, ^uint32(0)-1); err != nil {
			t.Fatal(err)
		}
		data := []byte("alive at max-1")
		region, err := r.adaptor.StageH2D("x", data)
		if err != nil {
			t.Fatal(err)
		}
		r.publish(t)
		if e, d := r.adaptor.h2d.Epoch(), r.adaptor.d2h.Epoch(); e != 1 || d != 0 {
			t.Fatalf("epochs h2d %d, d2h %d after boundary rotation; want 1, 0", e, d)
		}
		if got, ok := dev.dmaRead(region.Buf.Base(), int64(len(data))); !ok || !bytes.Equal(got, data) {
			t.Fatal("traffic broken after rotation")
		}
	})

	t.Run("max refuses to seal, then rotates", func(t *testing.T) {
		r, _ := newRig(t)
		if err := r.adaptor.ForceStreamCounter(core.StreamH2D, ^uint32(0)); err != nil {
			t.Fatal(err)
		}
		if _, err := r.adaptor.h2d.Seal([]byte("x"), nil); !errors.Is(err, secmem.ErrIVExhausted) {
			t.Fatalf("seal at exhausted counter: err = %v, want ErrIVExhausted", err)
		}
		// No wraparound: the counter holds at max rather than cycling
		// back into used IV space.
		if c := r.adaptor.h2d.SendCounter(); c != ^uint32(0) {
			t.Fatalf("counter wrapped to %d", c)
		}
		if _, err := r.adaptor.StageH2D("x", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if c := r.adaptor.h2d.SendCounter(); c != 1 {
			t.Fatalf("counter = %d after rotation and one chunk", c)
		}
		if e := r.adaptor.h2d.Epoch(); e != 1 {
			t.Fatalf("epoch = %d after rotation", e)
		}
	})

	t.Run("exactly at threshold does not rotate", func(t *testing.T) {
		r, _ := newRig(t)
		if err := r.adaptor.ForceStreamCounter(core.StreamH2D, ^uint32(0)-RekeyThreshold); err != nil {
			t.Fatal(err)
		}
		if _, err := r.adaptor.StageH2D("x", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if e := r.adaptor.h2d.Epoch(); e != 0 {
			t.Fatalf("rotated to epoch %d with a full threshold of headroom left", e)
		}
	})

	t.Run("concurrent in-flight seals at the edge", func(t *testing.T) {
		// N counter values left, 4N goroutines sealing: exactly N must
		// succeed with N distinct counters, the rest must see
		// ErrIVExhausted — never a duplicate, never a wrap.
		const headroom = 16
		r, _ := newRig(t)
		ledger := &ivLedger{}
		if err := r.adaptor.AuditIVs(core.StreamH2D, ledger.hook); err != nil {
			t.Fatal(err)
		}
		if err := r.adaptor.ForceStreamCounter(core.StreamH2D, ^uint32(0)-headroom); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		results := make([]error, 4*headroom)
		for i := range results {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, results[i] = r.adaptor.h2d.Seal([]byte("in-flight"), nil)
			}(i)
		}
		wg.Wait()
		okCount, exhausted := 0, 0
		for _, err := range results {
			switch {
			case err == nil:
				okCount++
			case errors.Is(err, secmem.ErrIVExhausted):
				exhausted++
			default:
				t.Fatalf("unexpected seal error: %v", err)
			}
		}
		if okCount != headroom || exhausted != len(results)-headroom {
			t.Fatalf("%d sealed / %d exhausted, want %d / %d", okCount, exhausted, headroom, len(results)-headroom)
		}
		if v := ledger.bad(); v != "" {
			t.Fatalf("IV discipline violated under concurrency: %s", v)
		}
	})
}
