package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// The tag plane is checked against the reference (tagplane_ref_test.go)
// by running both through the same script and comparing every return
// value, every counter, the fault hook's view and the full pending set
// after every operation. A script is a byte string, so the same
// interpreter serves the seeded test and the fuzz target.

// tagScriptStreams includes two names that collide under hashStream:
// identity must be the name, never the wire hash.
var tagScriptStreams = []string{collideA, collideB, StreamH2D, StreamMMIO}

// tagScriptCounter maps a script byte to a counter: a small universe so
// operations meet, with a band straddling the uint32 wrap.
func tagScriptCounter(b byte) uint32 {
	if b >= 208 {
		return 0xffffffe8 + uint32(b-208) // 0xffffffe8 … 0x17 once spans are added
	}
	return uint32(b % 64)
}

// tagScriptUniverse lists every counter a script can touch.
func tagScriptUniverse() []uint32 {
	var u []uint32
	for c := uint32(0); c < 64+16; c++ {
		u = append(u, c)
	}
	for c := uint32(0xffffffe8); c != 0; c++ {
		u = append(u, c)
	}
	return u
}

// tagScriptOps spreads op codes over a byte so random bytes mostly
// enqueue and take, and seldom clear.
var tagScriptOps = func() (t [100]byte) {
	weights := []int{30, 5, 20, 20, 6, 5, 2, 12} // must sum to 100
	i := 0
	for op, w := range weights {
		for ; w > 0; w-- {
			t[i] = byte(op)
			i++
		}
	}
	return t
}()

const (
	opEnqueuePacket = iota
	opEnqueueDuplicate
	opTake
	opTakeEach
	opSetCap
	opFaultHook
	opClear
	opEnqueueOne
)

type tagScriptRun struct {
	t    testing.TB
	tm   *TagManager
	ref  *refTagManager
	data []byte
	pos  int

	nonce     uint64
	last      []TagRecord // the last packet enqueued
	dropMod   uint32      // fault hook: drop when (chunk+nonce)%dropMod == 0; 0 = no hook
	seenNew   []TagRecord
	seenRef   []TagRecord
	universe  []uint32
	opsPlayed int
}

func (r *tagScriptRun) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *tagScriptRun) record(stream string, ctr uint32, epoch byte) TagRecord {
	r.nonce++
	rec := TagRecord{Stream: stream, Chunk: ctr, Epoch: uint32(epoch % 3)}
	binary.LittleEndian.PutUint64(rec.Tag[:], r.nonce)
	return rec
}

func (r *tagScriptRun) hook(seen *[]TagRecord) func(TagRecord) bool {
	if r.dropMod == 0 {
		return nil
	}
	mod := r.dropMod
	return func(rec TagRecord) bool {
		*seen = append(*seen, rec)
		return (rec.Chunk+uint32(rec.Tag[0]))%mod == 0
	}
}

func (r *tagScriptRun) enqueue(recs []TagRecord) {
	r.tm.Enqueue(recs...)
	for _, rec := range recs {
		r.ref.Enqueue(rec)
	}
}

func (r *tagScriptRun) fail(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("op %d (script byte %d): %s", r.opsPlayed, r.pos, fmt.Sprintf(format, args...))
}

func (r *tagScriptRun) step() {
	op := tagScriptOps[int(r.next())%100]
	stream := tagScriptStreams[int(r.next())%len(tagScriptStreams)]
	switch op {
	case opEnqueuePacket:
		first, n, epoch := tagScriptCounter(r.next()), 1+int(r.next())%tagSpanRecords, r.next()
		recs := make([]TagRecord, n)
		for i := range recs {
			recs[i] = r.record(stream, first+uint32(i), epoch)
		}
		r.enqueue(recs)
		r.last = recs
	case opEnqueueDuplicate:
		// The same identities again, new tags: pending ones are replaced
		// in place, matched ones arrive anew.
		recs := make([]TagRecord, len(r.last))
		for i, old := range r.last {
			recs[i] = r.record(old.Stream, old.Chunk, r.next())
		}
		r.enqueue(recs)
	case opEnqueueOne:
		rec := r.record(stream, tagScriptCounter(r.next()), r.next())
		r.enqueue([]TagRecord{rec})
	case opTake:
		c := tagScriptCounter(r.next())
		got, ok := r.tm.Take(stream, c)
		want, wantOK := r.ref.Take(stream, c)
		if ok != wantOK || got != want {
			r.fail("Take(%q, %#x) = %+v, %v; reference %+v, %v", stream, c, got, ok, want, wantOK)
		}
	case opTakeEach:
		k := 1 + int(r.next())%spanChunks
		ctrs := make([]uint32, k)
		if first := tagScriptCounter(r.next()); r.next()%4 != 0 {
			for i := range ctrs {
				ctrs[i] = first + uint32(i) // a one-shot region's consecutive counters
			}
		} else {
			for i := range ctrs {
				ctrs[i] = tagScriptCounter(r.next()) // a step window's arbitrary ones
			}
		}
		recs, have := make([]TagRecord, k), make([]bool, k)
		all := r.tm.TakeEach(stream, ctrs, recs, have)
		wantAll := true
		for i, c := range ctrs {
			want, wantOK := r.ref.Take(stream, c)
			if have[i] != wantOK || recs[i] != want {
				r.fail("TakeEach(%q, %#x)[%d] = %+v, %v; reference %+v, %v", stream, ctrs, i, recs[i], have[i], want, wantOK)
			}
			wantAll = wantAll && wantOK
		}
		if all != wantAll {
			r.fail("TakeEach(%q, %#x) = %v; reference %v", stream, ctrs, all, wantAll)
		}
	case opSetCap:
		n := int(r.next()) % 48 // 0 restores the default
		r.tm.SetPendingCap(n)
		r.ref.SetPendingCap(n)
	case opFaultHook:
		r.dropMod = uint32(r.next()) % 5 // 0 clears the hook, 1 drops everything
		r.tm.SetFaultHook(r.hook(&r.seenNew))
		r.ref.fault = r.hook(&r.seenRef)
	case opClear:
		r.tm.Clear()
		r.ref.Clear()
	}
	r.opsPlayed++
	r.compare()
}

// compare checks everything observable: the counters, what the fault
// hooks saw, and — by probe, which disturbs nothing — the pending set.
func (r *tagScriptRun) compare() {
	r.t.Helper()
	matched, missing := r.tm.Stats()
	if matched != r.ref.matched || missing != r.ref.missing {
		r.fail("stats = %d matched, %d missing; reference %d, %d", matched, missing, r.ref.matched, r.ref.missing)
	}
	if got, want := r.tm.Depth(), len(r.ref.pending); got != want {
		r.fail("depth = %d; reference %d", got, want)
	}
	if got := r.tm.Evicted(); got != r.ref.evicted {
		r.fail("evicted = %d; reference %d", got, r.ref.evicted)
	}
	if got := r.tm.DroppedByFault(); got != r.ref.droppedFault {
		r.fail("dropped by fault = %d; reference %d", got, r.ref.droppedFault)
	}
	if got := r.tm.PendingCap(); got != r.ref.cap {
		r.fail("cap = %d; reference %d", got, r.ref.cap)
	}
	if len(r.seenNew) != len(r.seenRef) {
		r.fail("fault hook saw %d records; reference %d", len(r.seenNew), len(r.seenRef))
	}
	for i := range r.seenNew {
		if r.seenNew[i] != r.seenRef[i] {
			r.fail("fault hook record %d = %+v; reference %+v", i, r.seenNew[i], r.seenRef[i])
		}
	}
	r.seenNew, r.seenRef = r.seenNew[:0], r.seenRef[:0]
	for _, stream := range tagScriptStreams {
		for _, c := range r.universe {
			got, ok := r.tm.Peek(stream, c)
			want, wantOK := r.ref.Peek(stream, c)
			if ok != wantOK || got != want {
				r.fail("Peek(%q, %#x) = %+v, %v; reference %+v, %v", stream, c, got, ok, want, wantOK)
			}
		}
	}
}

// tagScript builds a directed script: the first script byte that
// decodes to each op, then the operands as step reads them.
type tagScript struct{ data []byte }

func (s *tagScript) op(op byte, stream byte, operands ...byte) {
	for b, decoded := range tagScriptOps {
		if decoded == op {
			s.data = append(append(s.data, byte(b), stream), operands...)
			return
		}
	}
}

// runTagScript plays data against a fresh tag plane and reference and
// then drains both, comparing the records themselves.
func runTagScript(t testing.TB, data []byte) {
	r := &tagScriptRun{t: t, tm: NewTagManager(), ref: newRefTagManager(), data: data, universe: tagScriptUniverse()}
	for r.pos < len(r.data) {
		r.step()
	}
	for _, stream := range tagScriptStreams {
		for _, c := range r.universe {
			got, ok := r.tm.Take(stream, c)
			want, wantOK := r.ref.Take(stream, c)
			if ok != wantOK || got != want {
				r.fail("drain Take(%q, %#x) = %+v, %v; reference %+v, %v", stream, c, got, ok, want, wantOK)
			}
		}
	}
	if d := r.tm.Depth(); d != 0 {
		r.fail("depth %d after draining every counter a script can name", d)
	}
}

// tagScriptSeeds are the scripts the test plays and the fuzz target
// starts from: random ones, plus directed ones for the shapes random
// bytes rarely hold for long.
func tagScriptSeeds() [][]byte {
	var seeds [][]byte
	for seed := int64(1); seed <= 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 200+rng.Intn(1200))
		rng.Read(data)
		seeds = append(seeds, data)
	}
	// A tiny cap for a whole script: eviction on nearly every enqueue.
	for seed := int64(100); seed < 108; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 600)
		rng.Read(data)
		var capped tagScript
		capped.op(opSetCap, 0, 3)
		seeds = append(seeds, append(capped.data, data...))
	}
	// The task shape: packets of nine consecutive counters building one
	// long run, consumed a span of sixteen at a time by demand take, with
	// a colliding pair interleaved.
	const a, b, h2d, mmio = 0, 1, 2, 3 // tagScriptStreams indices
	var task tagScript
	for c := byte(0); c < 45; c += 9 {
		task.op(opEnqueuePacket, h2d, c, 8, 1)
		task.op(opEnqueuePacket, a, c, 8, 1)
		task.op(opEnqueuePacket, b, c, 8, 2)
	}
	task.op(opTakeEach, h2d, 15, 0, 1) // consecutive [0,16)
	task.op(opTakeEach, a, 15, 16, 1)  // consecutive [16,32)
	task.op(opTakeEach, b, 15, 40, 1)  // [40,56): not all there, takes what is
	task.op(opTakeEach, h2d, 15, 16, 1)
	task.op(opEnqueueDuplicate, h2d, 1, 1, 1, 1, 1, 1, 1, 1, 1)
	task.op(opTakeEach, b, 3, 0, 0, 44, 2, 43, 200) // arbitrary counters, one absent
	seeds = append(seeds, task.data)
	// A long-lived head with traffic streaming past it: dead entries pile
	// up behind the head until the ring squeezes them out.
	var wedge tagScript
	wedge.op(opEnqueueOne, h2d, 63, 0) // never matched until the drain
	for i := 0; i < 300; i++ {
		c := byte(i % 50)
		wedge.op(opEnqueuePacket, mmio, c, 3, 0)
		wedge.op(opTakeEach, mmio, 3, c, 1)
	}
	seeds = append(seeds, wedge.data)
	// The wrap band: runs and spans across counter 0xffffffff → 0.
	var wrap tagScript
	wrap.op(opEnqueuePacket, h2d, 228, 8, 0) // [0xfffffffc, +9)
	wrap.op(opEnqueuePacket, h2d, 237, 8, 0) // the next nine, one run
	wrap.op(opTakeEach, h2d, 15, 230, 1)
	wrap.op(opTakeEach, h2d, 7, 226, 1)
	seeds = append(seeds, wrap.data)
	return seeds
}

// TestTagPlaneMatchesReference drives the tag plane and the map-based
// reference with the same scripts — enqueue packet, duplicate enqueue,
// take, span take, cap change, fault-hook drop, clear, over four
// streams of which two collide under hashStream — and requires every
// return value and every counter to match.
func TestTagPlaneMatchesReference(t *testing.T) {
	for i, data := range tagScriptSeeds() {
		t.Run(fmt.Sprintf("script%02d", i), func(t *testing.T) { runTagScript(t, data) })
	}
}

// FuzzTagPlane is the same comparison over mutated scripts.
func FuzzTagPlane(f *testing.F) {
	for _, data := range tagScriptSeeds() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		runTagScript(t, data)
	})
}

// TestTagPlaneRingStaysBounded pins the memory argument: whatever the
// traffic, the arrival log holds at most a constant factor more entries
// than the cap allows pending, and a stream's run index is no longer
// than the log.
func TestTagPlaneRingStaysBounded(t *testing.T) {
	tm := NewTagManager()
	tm.SetPendingCap(32)
	tm.Enqueue(TagRecord{Stream: StreamH2D, Chunk: 1 << 20}) // a head that never matches
	for i := uint32(0); i < 100_000; i++ {
		// Scattered counters (every record its own run) and consecutive
		// ones, half of them matched, the rest left for the cap.
		tm.Enqueue(TagRecord{Stream: StreamD2H, Chunk: i * 7}, TagRecord{Stream: StreamMMIO, Chunk: i})
		if i%2 == 0 {
			tm.Take(StreamMMIO, i)
		}
	}
	if got := len(tm.log); got > 4*(32+16) {
		t.Fatalf("arrival log grew to %d entries under a cap of 32", got)
	}
	for _, s := range tm.streams {
		if len(s.runs) > len(tm.log) {
			t.Fatalf("stream %q indexes %d runs over a log of %d", s.name, len(s.runs), len(tm.log))
		}
	}
	if d := tm.Depth(); d != 32 {
		t.Fatalf("depth = %d, want the cap", d)
	}
}
