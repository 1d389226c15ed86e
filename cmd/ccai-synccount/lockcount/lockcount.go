// Package lockcount holds the counting stand-ins for sync.Mutex and
// sync.RWMutex that ccai-synccount swaps into a rewritten copy of the
// module; they have the methods the module calls. Every Lock and RLock
// is counted against the function that called it; Unlock and RUnlock
// are not counted, so a count is the number of critical sections
// entered. Counting is off until Enable and costs a runtime.Callers walk
// and a map update per section, which is why it only ever runs in a copy
// and never on a timed path.
package lockcount

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Mutex is sync.Mutex with its Lock calls counted.
type Mutex struct{ mu sync.Mutex }

// Lock counts a section for the caller and locks.
//
//go:noinline
func (m *Mutex) Lock() {
	count(kindLock)
	m.mu.Lock()
}

// Unlock unlocks.
func (m *Mutex) Unlock() { m.mu.Unlock() }

// RWMutex is sync.RWMutex with its Lock and RLock calls counted.
type RWMutex struct{ mu sync.RWMutex }

// Lock counts a section for the caller and write-locks.
//
//go:noinline
func (m *RWMutex) Lock() {
	count(kindLock)
	m.mu.Lock()
}

// Unlock write-unlocks.
func (m *RWMutex) Unlock() { m.mu.Unlock() }

// RLock counts a read section for the caller and read-locks.
//
//go:noinline
func (m *RWMutex) RLock() {
	count(kindRLock)
	m.mu.RLock()
}

// RUnlock read-unlocks.
func (m *RWMutex) RUnlock() { m.mu.RUnlock() }

type kind uint8

const (
	kindLock kind = iota
	kindRLock
)

// Site is one counted call site: the function that took the lock, and
// whether it took it for reading.
type Site struct {
	Func  string
	RLock bool
}

type siteKey struct {
	pc   uintptr
	kind kind
}

var (
	on    atomic.Bool
	mu    sync.Mutex
	sites = map[siteKey]uint64{}
	names = map[uintptr]string{}
)

// Enable turns counting on or off.
func Enable(v bool) { on.Store(v) }

// Reset forgets every count.
func Reset() {
	mu.Lock()
	clear(sites)
	mu.Unlock()
}

// count charges one section to the function that called the stand-in's
// Lock (two frames up: count, then the Lock method).
func count(k kind) {
	if !on.Load() {
		return
	}
	var pcs [1]uintptr
	if runtime.Callers(3, pcs[:]) == 0 {
		return
	}
	mu.Lock()
	sites[siteKey{pcs[0], k}]++
	mu.Unlock()
}

// Snapshot returns the sections counted so far, by site.
func Snapshot() map[Site]uint64 {
	mu.Lock()
	defer mu.Unlock()
	out := map[Site]uint64{}
	for key, n := range sites {
		out[Site{Func: funcName(key.pc), RLock: key.kind == kindRLock}] += n
	}
	return out
}

// funcName names the function a return PC is in, the innermost inlined
// one if the call was inlined. Callers hold mu.
func funcName(pc uintptr) string {
	if name, ok := names[pc]; ok {
		return name
	}
	frame, _ := runtime.CallersFrames([]uintptr{pc}).Next()
	name := frame.Function
	if name == "" {
		name = "?"
	}
	names[pc] = name
	return name
}
