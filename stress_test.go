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
