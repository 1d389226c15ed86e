package ccai

// ISSUE 9 cipher-cache lifecycle pin: the per-stream AEAD that the
// KeyStore caches for one key epoch must never serve a packet after
// MaybeRekey rotates that epoch — on either end of the link, under the
// live Scheduler. Three teeth: (1) every seal the h2d engine performs
// after the rotation carries the new epoch (the epoch sequence is
// monotone — a single post-rekey firing of the old cached cipher would
// show as an old-epoch seal); (2) traffic spanning the rotation stays
// byte-exact, which both ends can only manage if they swapped ciphers
// in lockstep; (3) a chunk sealed under the retired epoch is refused by
// the SC with a typed ErrReplay epoch mismatch — and the refusal leaves
// the live stream serving.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"ccai/internal/adaptor"
	"ccai/internal/core"
	"ccai/internal/secmem"
)

// epochOrder records the epoch of every seal in engine order, so the
// test can prove no old-epoch seal happens after the first new-epoch
// one.
type epochOrder struct {
	mu     sync.Mutex
	epochs []uint32
}

func (e *epochOrder) hook(epoch, _ uint32) {
	e.mu.Lock()
	e.epochs = append(e.epochs, epoch)
	e.mu.Unlock()
}

func (e *epochOrder) snapshot() []uint32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]uint32(nil), e.epochs...)
}

// TestRekeyEpochFencesCachedCipher drives a proactive MaybeRekey
// rotation through the live Scheduler and pins that the pre-rotation
// cached AEAD is fenced out the instant the epoch bumps.
func TestRekeyEpochFencesCachedCipher(t *testing.T) {
	mp := servingPlatform(t, 1)
	tn := mp.Tenants[0]

	scH2D, err := tn.SC.Params().Stream(core.StreamH2D)
	if err != nil {
		t.Fatal(err)
	}
	epoch0 := scH2D.Epoch()

	order := &epochOrder{}
	if err := tn.Adaptor.AuditIVs(core.StreamH2D, order.hook); err != nil {
		t.Fatal(err)
	}

	s, err := mp.NewScheduler(SchedulerConfig{QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	run := func(fill byte) {
		t.Helper()
		task := schedTask(fill, 2048)
		h, err := s.Submit(context.Background(), TenantTask{Tenant: 0, Task: task})
		if err != nil {
			t.Fatal(err)
		}
		out, err := mustResult(t, h)
		if err != nil {
			t.Fatal(err)
		}
		checkXOR(t, task.Input, out)
	}

	// Old-epoch traffic under the scheduler, so the cache is warm on
	// both ends before the rotation.
	run(0x11)
	if got := scH2D.Epoch(); got != epoch0 {
		t.Fatalf("epoch rotated prematurely: %d -> %d", epoch0, got)
	}

	// Park the send counter at the proactive window's edge: the next
	// staged task's one chunk crosses it, and the task after must trip
	// MaybeRekey mid-serving.
	if err := tn.Adaptor.ForceStreamCounter(core.StreamH2D, ^uint32(0)-adaptor.RekeyThreshold); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		run(byte(0x20 + i))
	}

	if got := scH2D.Epoch(); got != epoch0+1 {
		t.Fatalf("SC h2d epoch = %d after forced pressure, want %d", got, epoch0+1)
	}

	// Tooth (1): the seal-order epoch sequence is monotone. Any use of
	// the retired cached cipher after the rotation would stamp an
	// old-epoch seal behind a new-epoch one.
	seq := order.snapshot()
	sawNew := false
	for i, e := range seq {
		if e > epoch0 {
			sawNew = true
		} else if sawNew {
			t.Fatalf("seal %d/%d used retired epoch %d after rotation to %d", i, len(seq), e, epoch0+1)
		}
	}
	if !sawNew {
		t.Fatalf("audit saw %d seals but none under the new epoch", len(seq))
	}

	// Tooth (3): a chunk carrying the retired epoch is refused before
	// any cipher runs — typed, and with both epochs named. The forged
	// ciphertext never matters; the epoch gate is in front of it.
	stale := &secmem.Sealed{
		Epoch:      epoch0,
		Counter:    ^uint32(0), // beyond any accepted counter: only the epoch gate can refuse it
		Ciphertext: make([]byte, core.ChunkSize),
	}
	if _, err := scH2D.Open(stale, nil); !errors.Is(err, secmem.ErrReplay) {
		t.Fatalf("old-epoch chunk: got %v, want ErrReplay", err)
	} else if !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("old-epoch rejection not attributed to the epoch gate: %v", err)
	}

	// The refusal is stateless: the live stream keeps serving.
	run(0x7e)
	if got := scH2D.Epoch(); got != epoch0+1 {
		t.Fatalf("epoch moved again without pressure: %d", got)
	}
}
