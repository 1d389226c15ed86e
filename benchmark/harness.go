package main

import (
	"crypto/aes"
	"crypto/cipher"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// refKernel is the in-run reference every wall-clock number is divided
// by: AES-256-GCM Seal of a fixed 64 KiB buffer into a preallocated
// destination, a copy to scratch, and a touch of every 64th byte —
// stdlib only, ~20 µs, the same instruction mix (AES-NI, GHASH, memcpy)
// the simulator's hot path runs. Host drift (frequency, steal time, a
// noisy neighbour) moves it and the measured op together, so their
// ratio repeats where raw microseconds do not.
type refKernel struct {
	aead    cipher.AEAD
	nonce   [12]byte
	src     []byte
	dst     []byte
	scratch []byte
	sink    byte
}

const refBytes = 64 << 10

func newRefKernel() *refKernel {
	var key [32]byte
	for i := range key {
		key[i] = byte(i*7 + 1)
	}
	blk, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err) // a 32-byte key cannot fail
	}
	aead, err := cipher.NewGCM(blk)
	if err != nil {
		panic(err)
	}
	r := &refKernel{
		aead:    aead,
		src:     make([]byte, refBytes),
		dst:     make([]byte, 0, refBytes+aead.Overhead()),
		scratch: make([]byte, refBytes+aead.Overhead()),
	}
	for i := range r.src {
		r.src[i] = byte(i * 31)
	}
	return r
}

func (r *refKernel) run() {
	out := r.aead.Seal(r.dst[:0], r.nonce[:], r.src, nil)
	copy(r.scratch, out)
	var s byte
	for i := 0; i < len(r.scratch); i += 64 {
		s += r.scratch[i]
	}
	r.sink += s
}

// refGroup is how many reference iterations precede each op; the first
// re-warms the cache after the previous op and is discarded.
const refGroup = 4

// group runs one reference group and appends the kept iterations to dst,
// which never grows: callers size it up front.
func (r *refKernel) group(dst []time.Duration) []time.Duration {
	for g := 0; g < refGroup; g++ {
		t := time.Now()
		r.run()
		if g > 0 && len(dst) < cap(dst) {
			dst = append(dst, time.Since(t))
		}
	}
	return dst
}

// sample is the outcome of one measured loop.
type sample struct {
	lat       []time.Duration // one per op attempted
	ref       []time.Duration // iterations 2..refGroup of every group
	wall      time.Duration
	cpu       time.Duration
	attempted int
	failed    int
	mallocs   uint64
	allocB    uint64
	gcs       uint32
	firstErr  error
}

// opFunc runs op i and reports the latency of the system calls alone;
// oracle checks happen inside it after the latency is taken. A non-nil
// error is a failed op (system error or wrong output).
type opFunc func(i int) (time.Duration, error)

// timed adapts a plain call to an opFunc.
func timed(f func(i int) error) opFunc {
	return func(i int) (time.Duration, error) {
		t0 := time.Now()
		err := f(i)
		return time.Since(t0), err
	}
}

// measure runs op from the calling goroutine until maxOps ops are done
// or dur has elapsed (dur 0 = no deadline). One reference group precedes
// each op and one follows the last, so every op sits between two groups;
// lat[i] is op i's latency whether or not it failed, which keeps it
// aligned with ref. Latencies go into slices sized up front and the
// allocator is sampled only at the loop's edges, so the harness itself
// allocates nothing inside the loop.
func measure(ref *refKernel, maxOps int, dur time.Duration, op opFunc) sample {
	s := sample{
		lat: make([]time.Duration, 0, maxOps),
		ref: make([]time.Duration, 0, (maxOps+1)*(refGroup-1)),
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	for i := 0; i < maxOps; i++ {
		s.ref = ref.group(s.ref)
		d, err := op(i)
		s.lat = append(s.lat, d)
		s.attempted++
		if err != nil {
			s.failed++
			if s.firstErr == nil {
				s.firstErr = err
			}
		}
		if dur > 0 && time.Since(start) >= dur {
			break
		}
	}
	s.ref = ref.group(s.ref)
	s.wall = time.Since(start)
	s.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	s.mallocs = m1.Mallocs - m0.Mallocs
	s.allocB = m1.TotalAlloc - m0.TotalAlloc
	s.gcs = m1.NumGC - m0.NumGC
	return s
}

// quietSlack is how far above the undisturbed reference iteration an
// iteration may be and still count as undisturbed. On an idle host every
// iteration is within 4 % of the fastest; with a neighbour on the core's
// other hyperthread they are an eighth to a half slower.
const quietSlack = 1.06

// quietRun is how many reference groups on each side of an op must be
// undisturbed for the op to count as undisturbed. An op lasts 20 to 90
// iterations and the neighbour can come and go inside it; one that sits
// in a longer undisturbed stretch is less likely to have been visited.
const quietRun = 2

// undisturbed returns the latencies of the ops that ran undisturbed —
// every iteration of the quietRun reference groups before and after them
// within quietSlack of floor — and the iterations of every undisturbed
// group: what was measured while the core was this process's alone.
func (s *sample) undisturbed(floor time.Duration) (lat, ref []time.Duration) {
	limit := time.Duration(float64(floor) * quietSlack)
	const g = refGroup - 1
	groups := len(s.ref) / g
	quiet := make([]bool, groups)
	for k := range quiet {
		quiet[k] = true
		for _, d := range s.ref[k*g : (k+1)*g] {
			if d > limit {
				quiet[k] = false
			}
		}
		if quiet[k] {
			ref = append(ref, s.ref[k*g:(k+1)*g]...)
		}
	}
	// Group i precedes op i and group i+1 follows it.
ops:
	for i, d := range s.lat {
		if i+1-quietRun < 0 || i+quietRun >= groups {
			continue
		}
		for k := i + 1 - quietRun; k <= i+quietRun; k++ {
			if !quiet[k] {
				continue ops
			}
		}
		lat = append(lat, d)
	}
	return lat, ref
}

// merge adds o's ops to s (first error kept).
func (s *sample) merge(o *sample) {
	s.lat = append(s.lat, o.lat...)
	s.ref = append(s.ref, o.ref...)
	s.wall += o.wall
	s.cpu += o.cpu
	s.attempted += o.attempted
	s.failed += o.failed
	s.mallocs += o.mallocs
	s.allocB += o.allocB
	s.gcs += o.gcs
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

// xref is the sample's median op latency in units of its own median
// reference iteration.
func (s *sample) xref() float64 { return ratio(quantile(s.lat, 0.5), quantile(s.ref, 0.5)) }

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// quantile returns the q-quantile of ds (nearest rank on a sorted
// copy); 0 for an empty slice.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	c := append([]time.Duration(nil), ds...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c) {
		i = len(c) - 1
	}
	return c[i]
}

// topQuantile is the highest quantile that still has at least ten
// samples beyond it; ok is false below 20 samples.
func topQuantile(n int) (q float64, ok bool) {
	if n < 20 {
		return 0, false
	}
	return float64(n-10) / float64(n), true
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// machine is the shape wall-clock numbers are stored with.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func machineShape() machine {
	return machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}
