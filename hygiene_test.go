package ccai

import (
	"strings"
	"sync"
	"testing"

	"ccai/internal/leakcheck"
	"ccai/internal/mem"
)

// TestMain fails the package when goroutines outlive its tests.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// sliceHygiene checks, when the test ends and before its Close — and
// whenever the check it returns is called — that a
// slice still trusted holds what bring-up left it — the same SC regions
// (the command ring), no pending tag, no held command run, the same live
// host buffers — and that a slice whose session is gone holds no region,
// no held run, no stream context and no key on either end. Tests that leave state behind on purpose
// say so in their name and do not build their slice this way. lock
// serializes with the slice's owner (nil for a Platform).
func sliceHygiene(t *testing.T, pl *pipeline, lock sync.Locker, space *mem.Space) func() {
	t.Helper()
	regions, buffers := pl.SC.Regions(), space.Live()
	check := func() {
		if lock != nil {
			lock.Lock()
			defer lock.Unlock()
		}
		slice := strings.TrimSpace("slice " + pl.tenant)
		live := pl.trusted
		switch {
		case live && (pl.SC.Regions() != regions || pl.SC.PendingTags() != 0 || pl.SC.HeldRuns() != 0):
			t.Errorf("trusted %s holds %d SC regions, %d pending tags and %d held runs, want %d, 0 and 0",
				slice, pl.SC.Regions(), pl.SC.PendingTags(), pl.SC.HeldRuns(), regions)
		case !live && (pl.SC.Regions() != 0 || pl.SC.HeldRuns() != 0 || pl.SC.Params().Active() != 0 ||
			pl.scKeys.Count() != 0 || pl.tvmKeys.Count() != 0):
			t.Errorf("torn-down %s holds %d regions, %d held runs, %d stream contexts, %d+%d keys",
				slice, pl.SC.Regions(), pl.SC.HeldRuns(), pl.SC.Params().Active(), pl.scKeys.Count(), pl.tvmKeys.Count())
		}
		// A failed re-trust gives the dead session's command ring back
		// before staging its own: a slice with no session may hold fewer.
		if n := space.Live(); n > buffers || live && n != buffers {
			t.Errorf("%s: %d live host buffers, %d after bring-up", slice, n, buffers)
		}
	}
	t.Cleanup(check)
	return check
}

// chassisHygiene is sliceHygiene for every tenant of a trusted chassis.
// Beside it, once every inference session on the chassis is closed —
// every device session slot free — the engine must hold no KV
// reservation and queue no step. It returns the check, which runs when
// the test ends too.
func chassisHygiene(t *testing.T, mp *MultiPlatform) func() {
	t.Helper()
	var perSlice []func()
	for _, tn := range mp.Tenants {
		perSlice = append(perSlice, sliceHygiene(t, &tn.pipeline, &tn.mu, mp.space))
	}
	engine := func() {
		mp.llmMu.Lock()
		srv := mp.llmSrv
		mp.llmMu.Unlock()
		if srv == nil {
			return // no session was ever opened
		}
		srv.mu.Lock()
		closed := true
		for _, free := range srv.devFree {
			closed = closed && len(free) == llmSlotsPerVault
		}
		srv.mu.Unlock()
		if kv, steps := srv.eng.KVInUse(), srv.eng.Pending(); closed && (kv != 0 || steps != 0) {
			t.Errorf("every session closed, yet the engine holds %d KV bytes and %d queued steps", kv, steps)
		}
	}
	t.Cleanup(engine)
	return func() {
		for _, check := range perSlice {
			check()
		}
		engine()
	}
}
