package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"ccai/internal/secmem"
)

// The tag plane — every region's tag table, filled by ingestTags and
// spent by the read paths — is checked against a map-based reference
// by running both through the same script and comparing the config
// rejects, the fault hook's view, the pending count and every entry of
// every table after every operation. A script is a byte string.

// The script's regions, one of each kind a tag entry can be aimed at.
// Selector 0 names no region: an entry's arg of 0.
const (
	ttOneShot = 1 + iota // A2 H2D, consecutive counters from ttFirstCounter
	ttWindow             // A2 H2D step window: slots armed with any counter
	ttA3                 // A3: takes no records (its runs ride run entries)
	ttD2H                // takes no records
	ttRegions            // selectors 0 … ttRegions-1
)

const ttFirstCounter = 8

// ttIndexes bounds every index a script names: past each table's end.
const ttIndexes = 32

var ttDescs = map[uint32]Descriptor{
	ttOneShot: {Dir: DirH2D, Class: ActionWriteReadProtect, FirstCounter: ttFirstCounter, Len: 24 * ChunkSize},
	ttWindow:  {Dir: DirH2D, Class: ActionWriteReadProtect, Slotted: true, Len: 8 * ChunkSize},
	ttA3:      {Dir: DirH2D, Class: ActionWriteProtect, Len: 16 * ChunkSize},
	ttD2H:     {Dir: DirD2H, Class: ActionWriteReadProtect, Len: 8 * ChunkSize},
}

func ttDesc(id uint32) Descriptor {
	d := ttDescs[id]
	d.ID, d.Base, d.ChunkSize = id, ctlMem+uint64(id)<<16, ChunkSize
	return d
}

// ttStreams are the names a script's records carry on the wire; two of
// them collide under hashStream, and only StreamH2D is a stream a region
// takes.
var ttStreams = []string{StreamH2D, StreamD2H, collideA, collideB, StreamConfig}

// ttOps spreads op codes over a byte so random bytes mostly post and
// read, and seldom release.
var ttOps = func() (t [100]byte) {
	weights := []int{30, 8, 15, 15, 10, 5, 5, 12} // must sum to 100
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
	ttPost    = iota // an entry of records at a position
	ttRepost         // the last entry again, new tags
	ttTake           // one entry's record, as a chunk read takes it
	ttTakeRun        // consecutive entries in one tag_match
	ttAccept         // take and keep as accepted, as a verified read does
	ttHook           // set or clear the tag-loss fault hook
	ttRelease        // the ring's release op
	ttInstall        // a descriptor entry
)

// refTagEntry is the reference's entry: what the TVM posted at one
// index of one region and where it stands.
type refTagEntry struct {
	ctr, epoch uint32
	tag        [secmem.TagSize]byte
	state      tagState
}

// refTagPlane is the reference: a map per live region, written from the
// rules the ingest path states rather than from its code.
type refTagPlane struct {
	live    map[uint32]bool
	entries map[[2]uint32]refTagEntry
	rejects uint64
	dropped uint64
	seen    []TagRecord
	dropMod uint32
}

func (p *refTagPlane) pending() int {
	n := 0
	for k, e := range p.entries {
		if p.live[k[0]] && e.state == tagPending {
			n++
		}
	}
	return n
}

// ingest is the reference of one tag entry aimed at (id, first).
func (p *refTagPlane) ingest(id, first uint32, hashes []uint32, recs []TagRecord) {
	d := ttDesc(id)
	size := uint64(chunkCount(d))
	for i := range recs {
		rec := recs[i]
		index := uint64(first) + uint64(i)
		var ok bool
		switch {
		case !p.live[id] || d.Dir != DirH2D || d.Class == ActionWriteProtect:
		case d.Slotted:
			rec.Stream = StreamH2D
			e := p.entries[[2]uint32{id, uint32(index)}]
			ok = hashes[i] == hashStream(StreamH2D) && index < size && rec.Chunk != 0 &&
				(e.state != tagAccepted || e.ctr == rec.Chunk)
		default:
			rec.Stream = StreamH2D
			ok = hashes[i] == hashStream(StreamH2D) && index < size &&
				uint64(rec.Chunk) == uint64(d.FirstCounter)+index
		}
		if !ok {
			p.rejects++
			return
		}
		lost := false
		if p.dropMod != 0 {
			p.seen = append(p.seen, rec)
			lost = ttDrops(rec, p.dropMod)
		}
		if lost {
			p.dropped++
		}
		key := [2]uint32{id, uint32(index)}
		e := p.entries[key]
		switch {
		case e.state == tagAccepted:
		case lost && e.state == tagPending:
		case lost:
			e.ctr = rec.Chunk
			p.entries[key] = e
		default:
			p.entries[key] = refTagEntry{ctr: rec.Chunk, epoch: rec.Epoch, tag: rec.Tag, state: tagPending}
		}
	}
}

func (p *refTagPlane) peek(id, i uint32) (TagRecord, bool) {
	e := p.entries[[2]uint32{id, i}]
	if !p.live[id] || e.state != tagPending {
		return TagRecord{}, false
	}
	return TagRecord{Chunk: e.ctr, Epoch: e.epoch, Tag: e.tag}, true
}

func (p *refTagPlane) take(id, i uint32) (TagRecord, bool) {
	rec, ok := p.peek(id, i)
	if ok {
		key := [2]uint32{id, i}
		e := p.entries[key]
		e.state = tagNone
		p.entries[key] = e
	}
	return rec, ok
}

func (p *refTagPlane) accepted(id, i uint32) (TagRecord, bool) {
	e := p.entries[[2]uint32{id, i}]
	if !p.live[id] || e.state != tagAccepted {
		return TagRecord{}, false
	}
	return TagRecord{Chunk: e.ctr, Epoch: e.epoch, Tag: e.tag}, true
}

// ttDrops is the tag-loss hook both sides run: it drops a record when
// its counter plus its tag's first byte is a multiple of mod.
func ttDrops(rec TagRecord, mod uint32) bool { return (rec.Chunk+uint32(rec.Tag[0]))%mod == 0 }

type ttRunState struct {
	t         testing.TB
	sc        *Controller
	ref       *refTagPlane
	data      []byte
	pos       int
	nonce     uint64
	rejects0  uint64
	seen      []TagRecord
	last      ttEntry
	opsPlayed int
}

// ttEntry is the last posted entry, for a repost.
type ttEntry struct {
	id, first uint32
	hashes    []uint32
	ctrs      []uint32
}

func (r *ttRunState) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *ttRunState) fail(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("op %d (script byte %d): %s", r.opsPlayed, r.pos, fmt.Sprintf(format, args...))
}

// post sends one tag entry, as the ring's tag op delivers it, to both.
func (r *ttRunState) post(e ttEntry, epoch byte) {
	recs := make([]TagRecord, len(e.ctrs))
	var payload []byte
	for i, c := range e.ctrs {
		r.nonce++
		recs[i] = TagRecord{Chunk: c, Epoch: uint32(epoch % 3)}
		binary.LittleEndian.PutUint64(recs[i].Tag[:], r.nonce)
		payload = recs[i].AppendMarshal(payload)
		binary.LittleEndian.PutUint32(payload[i*TagRecordSize:], e.hashes[i])
	}
	r.sc.ingestTags(ArmPosition(e.id, e.first), payload)
	r.ref.ingest(e.id, e.first, e.hashes, recs)
	r.last = e
}

// counters picks an entry's counters: mostly ones its region takes
// (one script byte, a step window's base counter), at times raw ones
// (one script byte each).
func (r *ttRunState) counters(id, first uint32, n int) []uint32 {
	ctrs := make([]uint32, n)
	if r.next()%4 == 0 {
		for i := range ctrs {
			ctrs[i] = uint32(r.next() % 48)
		}
		return ctrs
	}
	base := uint32(r.next())
	for i := range ctrs {
		switch id {
		case ttWindow:
			ctrs[i] = 1 + (base+uint32(i))%40
		default:
			ctrs[i] = ttFirstCounter + first + uint32(i)
		}
	}
	return ctrs
}

func (r *ttRunState) step() {
	op := ttOps[int(r.next())%100]
	id := uint32(r.next()) % ttRegions
	switch op {
	case ttPost:
		first, n := uint32(r.next()%ttIndexes), 1+int(r.next())%tagSpanRecords
		e := ttEntry{id: id, first: first, hashes: make([]uint32, n)}
		// Every record of an entry carries the stream its region's class
		// implies, unless the script names a foreign one for all of them.
		name := StreamH2D
		if s := r.next(); s%4 == 0 {
			name = ttStreams[int(s/4)%len(ttStreams)]
		}
		for i := range e.hashes {
			e.hashes[i] = hashStream(name)
		}
		e.ctrs = r.counters(id, first, n)
		r.post(e, r.next())
	case ttRepost:
		if r.last.hashes != nil {
			r.post(r.last, r.next())
		}
	case ttTake:
		i := uint32(r.next() % ttIndexes)
		r.sc.mu.Lock()
		got, ok := r.sc.sess.byID(id).take(i)
		r.sc.mu.Unlock()
		if want, wantOK := r.ref.take(id, i); ok != wantOK || got != want {
			r.fail("take(%d, %d) = %+v, %v; reference %+v, %v", id, i, got, ok, want, wantOK)
		}
	case ttTakeRun:
		first, k := uint32(r.next()%ttIndexes), 1+int(r.next())%spanChunks
		recs, have := make([]TagRecord, k), make([]bool, k)
		r.sc.mu.Lock()
		all := r.sc.tagMatchLocked(r.sc.sess.byID(id), 0, first, recs, have)
		r.sc.mu.Unlock()
		wantAll := true
		for i := range recs {
			want, wantOK := r.ref.take(id, first+uint32(i))
			if have[i] != wantOK || recs[i] != want {
				r.fail("tagMatch(%d, %d…)[%d] = %+v, %v; reference %+v, %v", id, first, i, recs[i], have[i], want, wantOK)
			}
			wantAll = wantAll && wantOK
		}
		if all != wantAll {
			r.fail("tagMatch(%d, %d, %d) = %v; reference %v", id, first, k, all, wantAll)
		}
	case ttAccept:
		i := uint32(r.next() % ttIndexes)
		r.sc.mu.Lock()
		reg := r.sc.sess.byID(id)
		rec, ok := reg.take(i)
		if ok {
			reg.accept(i, &rec)
		}
		r.sc.mu.Unlock()
		if want, wantOK := r.ref.take(id, i); ok != wantOK || rec != want {
			r.fail("accept take(%d, %d) = %+v, %v; reference %+v, %v", id, i, rec, ok, want, wantOK)
		} else if ok {
			r.ref.entries[[2]uint32{id, i}] = refTagEntry{ctr: rec.Chunk, epoch: rec.Epoch, tag: rec.Tag, state: tagAccepted}
		}
	case ttHook:
		mod := uint32(r.next()) % 5 // 0 clears the hook, 1 drops everything
		r.ref.dropMod = mod
		if mod == 0 {
			r.sc.SetTagFaultHook(nil)
			break
		}
		r.sc.SetTagFaultHook(func(rec TagRecord) bool {
			r.seen = append(r.seen, rec)
			return ttDrops(rec, mod)
		})
	case ttRelease:
		r.sc.releaseRegion(id)
		if r.ref.live[id] {
			delete(r.ref.live, id)
			for k := range r.ref.entries {
				if k[0] == id {
					delete(r.ref.entries, k)
				}
			}
		}
	case ttInstall:
		if id == 0 {
			break
		}
		if r.sc.install(ttDesc(id)) == r.ref.live[id] {
			r.fail("install(%d) = %v with the region live %v", id, !r.ref.live[id], r.ref.live[id])
		}
		if r.ref.live[id] {
			r.ref.rejects++
		}
		r.ref.live[id] = true
	}
	r.opsPlayed++
	r.compare()
}

// compare checks everything observable: the counters, what the fault
// hook saw, and — by probe, which disturbs nothing — every entry.
func (r *ttRunState) compare() {
	r.t.Helper()
	st := r.sc.Stats()
	if got := st.ConfigRejects - r.rejects0; got != r.ref.rejects {
		r.fail("%d config rejects; reference %d", got, r.ref.rejects)
	}
	if st.TagsDroppedByFault != r.ref.dropped {
		r.fail("%d records dropped by fault; reference %d", st.TagsDroppedByFault, r.ref.dropped)
	}
	if got, want := r.sc.PendingTags(), r.ref.pending(); got != want {
		r.fail("%d pending; reference %d", got, want)
	}
	if len(r.seen) != len(r.ref.seen) {
		r.fail("fault hook saw %d records; reference %d", len(r.seen), len(r.ref.seen))
	}
	for i := range r.seen {
		if r.seen[i] != r.ref.seen[i] {
			r.fail("fault hook record %d = %+v; reference %+v", i, r.seen[i], r.ref.seen[i])
		}
	}
	r.seen, r.ref.seen = r.seen[:0], r.ref.seen[:0]
	r.sc.mu.Lock()
	defer r.sc.mu.Unlock()
	for id := uint32(1); id < ttRegions; id++ {
		reg := r.sc.sess.byID(id)
		if (reg != nil) != r.ref.live[id] {
			r.fail("region %d live %v; reference %v", id, reg != nil, r.ref.live[id])
		}
		for i := uint32(0); i < ttIndexes; i++ {
			got, ok := reg.peek(i)
			want, wantOK := r.ref.peek(id, i)
			if ok != wantOK || got != want {
				r.fail("peek(%d, %d) = %+v, %v; reference %+v, %v", id, i, got, ok, want, wantOK)
			}
			got, ok = reg.acceptedAt(i)
			if want, wantOK := r.ref.accepted(id, i); ok != wantOK || got != want {
				r.fail("acceptedAt(%d, %d) = %+v, %v; reference %+v, %v", id, i, got, ok, want, wantOK)
			}
			if id == ttWindow && reg != nil {
				var ctr [1]uint32
				armed := reg.chunkCounters(i, ctr[:])
				want := r.ref.entries[[2]uint32{id, i}].ctr
				if armed != (want != 0) || armed && ctr[0] != want {
					r.fail("slot %d armed %v with %d; reference %d", i, armed, ctr[0], want)
				}
			}
		}
	}
}

// ttScript builds a directed script: the first script byte that
// decodes to each op, then the operands as step reads them.
type ttScript struct{ data []byte }

func (s *ttScript) op(op byte, id byte, operands ...byte) {
	for b, decoded := range ttOps {
		if decoded == op {
			s.data = append(append(s.data, byte(b), id), operands...)
			return
		}
	}
}

// runTagTableScript plays data against a controller whose four regions
// are installed and against the reference, then drains both, comparing
// the records themselves.
func runTagTableScript(t *testing.T, data []byte) {
	sc := newCtlRig(t).sc
	r := &ttRunState{t: t, sc: sc, data: data,
		ref: &refTagPlane{live: map[uint32]bool{}, entries: map[[2]uint32]refTagEntry{}}}
	for id := uint32(1); id < ttRegions; id++ {
		if !sc.install(ttDesc(id)) {
			t.Fatalf("install(%d) refused", id)
		}
		r.ref.live[id] = true
	}
	r.rejects0 = sc.Stats().ConfigRejects
	for r.pos < len(r.data) {
		r.step()
	}
	sc.mu.Lock()
	for id := uint32(1); id < ttRegions; id++ {
		for i := uint32(0); i < ttIndexes; i++ {
			got, ok := sc.sess.byID(id).take(i)
			if want, wantOK := r.ref.take(id, i); ok != wantOK || got != want {
				sc.mu.Unlock()
				r.fail("drain take(%d, %d) = %+v, %v; reference %+v, %v", id, i, got, ok, want, wantOK)
			}
		}
	}
	sc.mu.Unlock()
	if n := sc.PendingTags(); n != 0 {
		r.fail("%d pending after draining every index a script can name", n)
	}
}

// tagTableScripts are the scripts the test plays: random ones, plus
// directed ones for the shapes random bytes rarely hold for long.
func tagTableScripts() [][]byte {
	var scripts [][]byte
	for seed := int64(1); seed <= 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 200+rng.Intn(1200))
		rng.Read(data)
		scripts = append(scripts, data)
	}
	// The fault hook on for a whole script, at every drop rate.
	for seed := int64(100); seed < 108; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 600)
		rng.Read(data)
		var hooked ttScript
		hooked.op(ttHook, 0, byte(1+seed%4))
		scripts = append(scripts, append(hooked.data, data...))
	}
	// Operands of a post: first index, count-1, stream byte (1: the
	// region's own, collide: collideB), counters mode (valid, then a base
	// byte; raw, then one byte each), epoch.
	const valid, raw, collide = 1, 0, 3 * 4
	// The task shape: entries of nine consecutive records filling the
	// one-shot region, a read accepting chunk 0, span reads and a repost
	// of records already read.
	var task ttScript
	for c := byte(0); c < 24; c += 9 {
		task.op(ttPost, ttOneShot, c, 8, 1, valid, 0, 0)
	}
	task.op(ttAccept, ttOneShot, 0)
	task.op(ttTakeRun, ttOneShot, 1, 14)
	task.op(ttRepost, 0, 2)
	task.op(ttTakeRun, ttOneShot, 16, 15)
	task.op(ttPost, ttOneShot, 0, 3, 1, raw, 8, 9, 12, 11, 0) // the third counter wrong
	task.op(ttPost, ttOneShot, 0, 0, collide, valid, 0, 0)
	scripts = append(scripts, task.data)
	// A step window: slots armed, read, accepted, re-armed under the
	// counter read and under another; a lost arm still arms.
	var window ttScript
	window.op(ttPost, ttWindow, 0, 7, 1, valid, 5, 0) // slots 0…7 armed with 6…13
	window.op(ttAccept, ttWindow, 2)
	window.op(ttPost, ttWindow, 2, 0, 1, raw, 8, 0) // the counter read: admitted, nothing stored
	window.op(ttPost, ttWindow, 2, 0, 1, raw, 9, 0) // another: refused
	window.op(ttHook, 0, 1)
	window.op(ttPost, ttWindow, 8, 0, 1, valid, 3, 0) // past the table
	window.op(ttRelease, ttWindow)
	window.op(ttInstall, ttWindow)
	window.op(ttPost, ttWindow, 0, 3, 1, valid, 20, 0)
	window.op(ttHook, 0, 0)
	window.op(ttTakeRun, ttWindow, 0, 7)
	scripts = append(scripts, window.data)
	// Churn: every region released and installed again between entries,
	// arg 0, the A3 region and the D2H region refused.
	var churn ttScript
	for i := 0; i < 40; i++ {
		id := byte(1 + i%4)
		churn.op(ttPost, id, byte(i%20), byte(i), 1, valid, byte(i), 0)
		churn.op(ttPost, 0, 0, 0, 1, valid, 0, 0)
		churn.op(ttRelease, id)
		churn.op(ttInstall, id)
	}
	scripts = append(scripts, churn.data)
	return scripts
}

// TestTagPlaneMatchesReference drives the region tag tables and a
// map-based reference with the same scripts — entries posted at a
// one-shot region, a step window, an A3 region, a D2H region and arg 0,
// reposts, single and span takes, accepting reads, fault-hook drops,
// release and install — and requires every reject,
// every counter and every entry to match.
func TestTagPlaneMatchesReference(t *testing.T) {
	for i, data := range tagTableScripts() {
		t.Run(fmt.Sprintf("script%02d", i), func(t *testing.T) { runTagTableScript(t, data) })
	}
}
