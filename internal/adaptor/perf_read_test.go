package adaptor

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// readAllocCeiling is the hard allocs-per-collect budget for the 64 KiB
// D2H read path (ISSUE 9 satellite): CollectD2H assembles the sealed
// batch from per-stream scratch, decrypts straight into the result
// buffer, and must allocate essentially nothing beyond that
// caller-escaping buffer. Measured 1 (that buffer) at one proc and at
// two — the batch is opened on the caller — plus one of headroom. The
// collector is off across the measured collects: a collection empties
// the buffer pools, and refilling them (~9 objects) is not the read
// path's cost.
const readAllocCeiling = 2

// TestReadAllocBudget pins the steady-state allocation count of the
// D2H read path: per 64 KiB CollectD2H after warm-up, measured around
// the collect call alone (region setup and device writes excluded).
func TestReadAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is noisy under -short harnesses")
	}
	if raceDetector {
		t.Skip("the race detector makes the buffer pools drop at random")
	}
	r, dev := newRig(t)
	const size = 64 << 10
	result := make([]byte, size)
	for i := range result {
		result[i] = byte(i * 31)
	}

	cycle := func() uint64 {
		region, err := r.adaptor.PrepareD2H("res", size)
		if err != nil {
			t.Fatal(err)
		}
		r.publish(t)
		dev.dmaWrite(region.Buf.Base(), result)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		got, err := r.adaptor.CollectD2H(region, size)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != result[0] || got[size-1] != result[size-1] {
			t.Fatal("collected result corrupt")
		}
		r.adaptor.ReleaseRegion(region)
		return ms1.Mallocs - ms0.Mallocs
	}

	cycle() // warm-up: scratch slices sized, pools primed
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const iters = 8
	var total uint64
	for i := 0; i < iters; i++ {
		total += cycle()
	}
	perCollect := total / iters
	t.Logf("D2H read path: %d allocs per 64 KiB CollectD2H (ceiling %d, %d chunks)",
		perCollect, readAllocCeiling, size/BulkChunkSize)
	if perCollect > readAllocCeiling {
		t.Fatalf("CollectD2H allocates %d/op for 64 KiB; budget is %d", perCollect, readAllocCeiling)
	}
}
