package ccai

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ccai/internal/fault"
)

// This file is the multi-tenant serving engine: the concurrency layer
// that turns a MultiPlatform from "several isolated slices you drive
// one at a time" into one chassis serving all tenants at once. Each
// tenant gets its own goroutine-pipeline (Adaptor → SC unit → device);
// the layers tenants share — host bus, host bridge, mux, IOMMU,
// address space, MSI log — are individually thread-safe, so pipelines
// never coordinate beyond those internal locks.

// TenantTask addresses one Task to one tenant of a MultiPlatform.
type TenantTask struct {
	// Tenant indexes MultiPlatform.Tenants.
	Tenant int
	// Task is executed with Tenant.RunTask semantics.
	Task Task
}

// TenantResult is the outcome of one TenantTask. It names the tenant,
// not a position: a caller that batches requests keeps their order
// itself.
type TenantResult struct {
	// Tenant is the request's tenant index.
	Tenant int
	// Output is the task's result bytes when Err is nil.
	Output []byte
	// Err is the per-task failure, if any; one tenant's failure never
	// affects another tenant's tasks.
	Err error
}

// workSource is what a resident serving worker pulls from: the blob
// Scheduler (a unit is a claimed queue entry) and the llmServer (a unit
// is an engine step) both serve through it. A unit handed out by next
// has its flow marked busy; each of stall, cancelAtClaim and run settles
// the unit and releases the flow.
type workSource[W any] interface {
	// next blocks for the next dispatchable unit; false means there
	// will never be another (closed and drained, or stop fired).
	next(stop <-chan struct{}) (W, bool)
	// probeFault consults the deterministic fault hook.
	probeFault(point string) bool
	// stall undoes the claim: the unit goes back to the head of its flow
	// (a mid-queue stall).
	stall(W)
	// cancelAtClaim settles the unit as cancelled at the claim boundary,
	// never having run.
	cancelAtClaim(W)
	// run executes the unit.
	run(W)
}

// startWorkers starts n resident workers over src and returns a channel
// closed when the last of them has returned. A worker lives until next
// reports false, so a unit of work never pays for a goroutine, for the
// regrowth of its stack down the protected datapath, or for a hand-off
// from a dispatcher: whichever worker frees up asks the fair queue
// itself, at that instant.
func startWorkers[W any](n int, src workSource[W], stop <-chan struct{}) <-chan struct{} {
	done := make(chan struct{})
	var live atomic.Int32
	live.Store(int32(n))
	for i := 0; i < n; i++ {
		go func() {
			defer func() {
				if live.Add(-1) == 0 {
					close(done)
				}
			}()
			for {
				w, ok := src.next(stop)
				switch {
				case !ok:
					return
				case src.probeFault(fault.SchedPointDequeue):
					src.stall(w)
				case src.probeFault(fault.SchedPointCancel):
					src.cancelAtClaim(w)
				default:
					src.run(w)
				}
			}
		}()
	}
	return done
}

// EstablishTrustAll runs every tenant's trust establishment
// concurrently and returns the first error encountered (all tenants
// are attempted regardless).
func (mp *MultiPlatform) EstablishTrustAll() error {
	errs := make([]error, len(mp.Tenants))
	var wg sync.WaitGroup
	for i, t := range mp.Tenants {
		wg.Add(1)
		go func(i int, t *Tenant) {
			defer wg.Done()
			errs[i] = t.EstablishTrust()
		}(i, t)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("ccai: tenant %d: %w", i, err)
		}
	}
	return nil
}
