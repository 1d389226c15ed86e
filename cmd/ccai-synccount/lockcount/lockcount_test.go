package lockcount

import "testing"

func lockTwice(m *Mutex) {
	m.Lock()
	m.Unlock()
	m.Lock()
	m.Unlock()
}

func readOnce(m *RWMutex) {
	m.RLock()
	m.RUnlock()
}

// TestCountsSectionsByCaller: each Lock and RLock is one section of the
// function that called it, and nothing counts while counting is off.
func TestCountsSectionsByCaller(t *testing.T) {
	var m Mutex
	var rw RWMutex
	lockTwice(&m) // off: not counted
	Reset()
	Enable(true)
	lockTwice(&m)
	readOnce(&rw)
	rw.Lock()
	rw.Unlock()
	Enable(false)
	lockTwice(&m)
	const pkg = "ccai/cmd/ccai-synccount/lockcount."
	want := map[Site]uint64{
		{Func: pkg + "lockTwice"}:                  2,
		{Func: pkg + "readOnce", RLock: true}:      1,
		{Func: pkg + "TestCountsSectionsByCaller"}: 1,
	}
	got := Snapshot()
	if len(got) != len(want) {
		t.Errorf("counted %v, want %v", got, want)
	}
	for site, n := range want {
		if got[site] != n {
			t.Errorf("%+v: %d sections, want %d", site, got[site], n)
		}
	}
}
