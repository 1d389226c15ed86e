package ccai

import (
	"bytes"
	"sync"
	"testing"

	"ccai/internal/xpu"
)

// TestParallelIndependentSessions runs many fully independent protected
// platforms concurrently. Each platform is single-threaded by design
// (one simulated machine), but nothing package-level may be shared
// mutable state — this test plus `go test -race` enforces that.
func TestParallelIndependentSessions(t *testing.T) {
	const sessions = 16
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			profile := xpu.Fleet()[i%len(xpu.Fleet())]
			p, err := New(WithXPU(profile), WithMode(Protected))
			if err != nil {
				errs <- err
				return
			}
			defer p.Close()
			if err := p.EstablishTrust(); err != nil {
				errs <- err
				return
			}
			input := bytes.Repeat([]byte{byte(i + 1)}, 400+i*13)
			out, err := p.RunTask(Task{Input: input, Kernel: KernelXOR, Param: byte(i)})
			if err != nil {
				errs <- err
				return
			}
			for j := range input {
				if out[j] != input[j]^byte(i) {
					errs <- errByte{i, j}
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type errByte [2]int

func (e errByte) Error() string { return "wrong byte in parallel session" }

// TestManySequentialSessionsNoLeak cycles sessions on one machine
// image repeatedly; region/key bookkeeping must return to zero each
// time (no leak across the environment-guard teardown).
func TestManySequentialSessionsNoLeak(t *testing.T) {
	for i := 0; i < 20; i++ {
		p, err := New(WithXPU(xpu.A100), WithMode(Protected))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.EstablishTrust(); err != nil {
			t.Fatal(err)
		}
		if _, err := p.RunTask(Task{Input: []byte("cycle"), Kernel: KernelAdd, Param: 1}); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		p.Close()
		if p.SC.Regions() != 0 {
			t.Fatalf("cycle %d: %d regions leaked", i, p.SC.Regions())
		}
		if p.SC.Params().Active() != 0 {
			t.Fatalf("cycle %d: stream contexts leaked", i)
		}
		if p.Device.MemResidue() {
			t.Fatalf("cycle %d: device residue", i)
		}
	}
}

// TestReleasedRegionsLeaveNoState: after a run of protected 64 KiB tasks
// the SC holds the command ring's region and nothing else — no released
// D2H region's progress count outlives it.
func TestReleasedRegionsLeaveNoState(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	task := Task{Input: bytes.Repeat([]byte{3}, 64<<10), Kernel: KernelXOR, Param: 1}
	for i := 0; i < 50; i++ {
		if _, err := p.RunTask(task); err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
	}
	if n := p.SC.Regions(); n != 1 {
		t.Fatalf("SC holds %d regions after 50 tasks, want the command ring only", n)
	}
	for id := uint32(0); id < 1<<12; id++ {
		if got := p.SC.D2HProgress(id); got != 0 {
			t.Fatalf("region %d: progress %d after its release", id, got)
		}
	}
}
