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

// sliceHygiene checks, when the test ends and before its Close, that a
// slice still trusted holds what bring-up left it — the same SC regions
// (the command ring), no pending tag, the same live host buffers — and
// that a slice whose session is gone holds no region, no stream context
// and no key on either end. Tests that leave state behind on purpose
// say so in their name and do not build their slice this way. lock
// serializes with the slice's owner (nil for a Platform).
func sliceHygiene(t *testing.T, pl *pipeline, lock sync.Locker, space *mem.Space) {
	t.Helper()
	regions, buffers := pl.SC.Regions(), space.Live()
	t.Cleanup(func() {
		if lock != nil {
			lock.Lock()
			defer lock.Unlock()
		}
		slice := strings.TrimSpace("slice " + pl.tenant)
		live := pl.trusted
		switch {
		case live && (pl.SC.Regions() != regions || pl.SC.Tags().Depth() != 0):
			t.Errorf("trusted %s holds %d SC regions and %d pending tags, want %d and 0",
				slice, pl.SC.Regions(), pl.SC.Tags().Depth(), regions)
		case !live && (pl.SC.Regions() != 0 || pl.SC.Params().Active() != 0 ||
			pl.scKeys.Count() != 0 || pl.tvmKeys.Count() != 0):
			t.Errorf("torn-down %s holds %d regions, %d stream contexts, %d+%d keys",
				slice, pl.SC.Regions(), pl.SC.Params().Active(), pl.scKeys.Count(), pl.tvmKeys.Count())
		}
		// A failed re-trust gives the dead session's command ring back
		// before staging its own: a slice with no session may hold fewer.
		if n := space.Live(); n > buffers || live && n != buffers {
			t.Errorf("%s: %d live host buffers, %d after bring-up", slice, n, buffers)
		}
	})
}

// chassisHygiene is sliceHygiene for every tenant of a trusted chassis.
func chassisHygiene(t *testing.T, mp *MultiPlatform) {
	t.Helper()
	for _, tn := range mp.Tenants {
		sliceHygiene(t, &tn.pipeline, &tn.mu, mp.space)
	}
}
