package core

// refTagManager is the map-based tag manager the run-indexed tag plane
// (tagplane.go) replaced, kept as the executable reference the plane is
// checked against: one map entry per (stream, counter), one order slot
// per arrival, every operation a single record at a time. It is the
// seed implementation with one repair. Its order slots used to name
// records by identity alone, so a slot left behind by a matched record
// aliased the same identity enqueued again later, and the cap then
// evicted that newer record at the older one's place in line. Slots now
// carry the arrival number of the record they stand for, which makes
// the documented rule — evict the oldest pending record — exact; the
// tag plane implements that rule.
type refTagManager struct {
	pending map[refTagID]refPending
	order   []refSlot
	seq     uint64
	cap     int
	matched uint64
	missing uint64
	evicted uint64

	fault        func(rec TagRecord) bool
	droppedFault uint64
}

type refTagID struct {
	stream string
	chunk  uint32
}

type refPending struct {
	rec TagRecord
	seq uint64
}

type refSlot struct {
	id  refTagID
	seq uint64
}

func newRefTagManager() *refTagManager {
	return &refTagManager{pending: make(map[refTagID]refPending), cap: DefaultTagCap}
}

func (tm *refTagManager) SetPendingCap(n int) {
	if n <= 0 {
		n = DefaultTagCap
	}
	tm.cap = n
	tm.evict()
}

func (tm *refTagManager) evict() {
	for len(tm.pending) > tm.cap && len(tm.order) > 0 {
		slot := tm.order[0]
		tm.order = tm.order[1:]
		if p, ok := tm.pending[slot.id]; !ok || p.seq != slot.seq {
			continue // matched since; stale order slot
		}
		delete(tm.pending, slot.id)
		tm.evicted++
	}
	if len(tm.order) > 2*len(tm.pending)+16 {
		live := tm.order[:0]
		for _, slot := range tm.order {
			if p, ok := tm.pending[slot.id]; ok && p.seq == slot.seq {
				live = append(live, slot)
			}
		}
		tm.order = live
	}
}

func (tm *refTagManager) Enqueue(rec TagRecord) {
	if tm.fault != nil && tm.fault(rec) {
		tm.droppedFault++
		return
	}
	id := refTagID{stream: rec.Stream, chunk: rec.Chunk}
	p, exists := tm.pending[id]
	if !exists {
		tm.seq++
		p.seq = tm.seq
		tm.order = append(tm.order, refSlot{id: id, seq: p.seq})
	}
	p.rec = rec
	tm.pending[id] = p
	tm.evict()
}

func (tm *refTagManager) HasSpan(stream string, first uint32, k int) bool {
	for i := 0; i < k; i++ {
		if _, ok := tm.pending[refTagID{stream: stream, chunk: first + uint32(i)}]; !ok {
			return false
		}
	}
	return true
}

func (tm *refTagManager) Take(stream string, chunk uint32) (TagRecord, bool) {
	id := refTagID{stream: stream, chunk: chunk}
	if p, ok := tm.pending[id]; ok {
		delete(tm.pending, id)
		tm.matched++
		return p.rec, true
	}
	tm.missing++
	return TagRecord{}, false
}

func (tm *refTagManager) Clear() {
	tm.pending = make(map[refTagID]refPending)
	tm.order = nil
}
