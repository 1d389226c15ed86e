package core

import (
	"testing"

	"ccai/internal/secmem"
)

func TestParamsManagerLifecycle(t *testing.T) {
	ks := secmem.NewKeyStore()
	pm := NewParamsManager(ks)
	if _, err := pm.Stream(StreamH2D); err == nil {
		t.Fatal("missing stream returned")
	}
	if err := ks.Install(StreamH2D, secmem.FreshKey(), secmem.FreshNonce()); err != nil {
		t.Fatal(err)
	}
	if err := pm.Activate(StreamH2D); err != nil {
		t.Fatal(err)
	}
	if _, err := pm.Stream(StreamH2D); err != nil {
		t.Fatal(err)
	}
	if pm.Active() != 1 {
		t.Fatalf("active = %d", pm.Active())
	}
	pm.DestroyAll()
	if pm.Active() != 0 || ks.Count() != 0 {
		t.Fatal("DestroyAll incomplete")
	}
}

func TestParamsManagerRekey(t *testing.T) {
	ks := secmem.NewKeyStore()
	pm := NewParamsManager(ks)
	if err := ks.Install(StreamD2H, secmem.FreshKey(), secmem.FreshNonce()); err != nil {
		t.Fatal(err)
	}
	if err := pm.Activate(StreamD2H); err != nil {
		t.Fatal(err)
	}
	s, _ := pm.Stream(StreamD2H)
	if s.Epoch() != 0 {
		t.Fatalf("initial epoch = %d", s.Epoch())
	}
	if err := pm.Rekey(StreamD2H, secmem.FreshKey(), secmem.FreshNonce()); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 1 {
		t.Fatalf("epoch after rekey = %d", s.Epoch())
	}
	if err := pm.Rekey("unknown", secmem.FreshKey(), secmem.FreshNonce()); err == nil {
		t.Fatal("rekey of unknown stream accepted")
	}
}

// TestRegionTagsMatchAndConsume: a record posted at a chunk is matched
// once. Peek shows it and spends nothing, hit or miss; take spends it,
// so a second take misses (replay freshness); an accepted record is
// kept for re-reads and never taken again.
func TestRegionTagsMatchAndConsume(t *testing.T) {
	r := newCtlRig(t)
	if !r.sc.install(Descriptor{ID: 1, Dir: DirH2D, Class: ActionWriteReadProtect, Base: ctlMem,
		Len: 4 * ChunkSize, ChunkSize: ChunkSize, FirstCounter: 42}) {
		t.Fatal("install refused")
	}
	rec := TagRecord{Stream: StreamH2D, Chunk: 42, Epoch: 1}
	rec.Tag[0] = 0xaa
	r.postTags(1, 0, rec)
	r.sc.mu.Lock()
	defer r.sc.mu.Unlock()
	g := r.sc.sess.byID(1)
	rec.Stream = "" // a region's records carry no stream name
	if got, ok := g.peek(0); !ok || got != rec || g.pending != 1 {
		t.Fatalf("peek = %+v, %v (%d pending)", got, ok, g.pending)
	}
	if _, ok := g.peek(1); ok {
		t.Fatal("peek found a record nobody posted")
	}
	if got, ok := g.take(0); !ok || got != rec || g.pending != 0 {
		t.Fatalf("take = %+v, %v (%d pending)", got, ok, g.pending)
	}
	if _, ok := g.take(0); ok {
		t.Fatal("tag record consumed twice")
	}
	g.accept(0, &rec)
	if _, ok := g.take(0); ok {
		t.Fatal("an accepted record was taken")
	}
	if got, ok := g.acceptedAt(0); !ok || got != rec {
		t.Fatalf("acceptedAt = %+v, %v", got, ok)
	}
}

// TestRegionTagsKeyByRegionAndIndex: a record is found only at the
// region and index it was posted at — not at another chunk of its
// region, nor at the same chunk of another region.
func TestRegionTagsKeyByRegionAndIndex(t *testing.T) {
	r := newCtlRig(t)
	for id := uint32(1); id <= 2; id++ {
		if !r.sc.install(Descriptor{ID: id, Dir: DirH2D, Class: ActionWriteReadProtect, Base: ctlMem + uint64(id)*0x1000,
			Len: 4 * ChunkSize, ChunkSize: ChunkSize, FirstCounter: 1}) {
			t.Fatal("install refused")
		}
	}
	r.postTags(1, 1, TagRecord{Stream: StreamH2D, Chunk: 2})
	r.sc.mu.Lock()
	defer r.sc.mu.Unlock()
	if _, ok := r.sc.sess.byID(2).take(1); ok {
		t.Fatal("cross-region tag matched")
	}
	if _, ok := r.sc.sess.byID(1).take(2); ok {
		t.Fatal("cross-chunk tag matched")
	}
	if _, ok := r.sc.sess.byID(1).take(1); !ok {
		t.Fatal("correct tag missed")
	}
}

// TestReleaseDropsOnlyItsRegionsTags: a released region's pending
// records go with its record, and only they — another region's stay
// pending and matchable, and the drop counts no auth failure or reject.
func TestReleaseDropsOnlyItsRegionsTags(t *testing.T) {
	r := newCtlRig(t)
	for id := uint32(1); id <= 2; id++ {
		if !r.sc.install(Descriptor{ID: id, Dir: DirH2D, Class: ActionWriteReadProtect, Base: ctlMem + uint64(id)*0x1000,
			Len: 8 * ChunkSize, ChunkSize: ChunkSize, FirstCounter: 1}) {
			t.Fatal("install refused")
		}
		for c := uint32(0); c < 8; c++ {
			r.postTags(id, c, TagRecord{Stream: StreamH2D, Chunk: 1 + c})
		}
	}
	before := r.sc.Stats()
	r.submit(ringEntry{op: RingOpRelease, arg: 1})
	if n := r.sc.PendingTags(); n != 8 || r.sc.Regions() != 1 {
		t.Fatalf("%d records pending, %d regions after releasing one of two; want 8 and 1", n, r.sc.Regions())
	}
	for c := uint32(0); c < 8; c++ {
		if !r.pendingAt(2, c) {
			t.Fatalf("region 2 lost its record at chunk %d", c)
		}
	}
	if st := r.sc.Stats(); st.AuthFailures != before.AuthFailures || st.ConfigRejects != before.ConfigRejects {
		t.Fatal("the release counted an auth failure or a reject")
	}
}

func TestTagRecordMarshalShape(t *testing.T) {
	rec := TagRecord{Stream: StreamD2H, Chunk: 7, Epoch: 3}
	for i := range rec.Tag {
		rec.Tag[i] = byte(i)
	}
	buf := rec.AppendMarshal(nil)
	if len(buf) != TagRecordSize {
		t.Fatalf("record size = %d, want %d", len(buf), TagRecordSize)
	}
}

func TestEnvGuardChecks(t *testing.T) {
	g := NewEnvGuard()
	g.AddCheck(MMIOCheck{
		Reg:   0x50,
		Valid: func(v uint64) bool { return v >= 0x1000 && v < 0x10000 },
	})
	if !g.VerifyMMIO(0x50, 0x2000) {
		t.Fatal("valid page table rejected")
	}
	if g.VerifyMMIO(0x50, 0xffff_0000) {
		t.Fatal("rogue page table accepted")
	}
	if !g.VerifyMMIO(0x99, 0xffff_0000) {
		t.Fatal("unguarded register blocked")
	}
}

func TestEnvGuardCleanPlan(t *testing.T) {
	g := NewEnvGuard()
	soft := g.CleanPlan(true, 0x58, 2, 3)
	if !soft.Soft || soft.Val != 2 {
		t.Fatalf("soft plan = %+v", soft)
	}
	cold := g.CleanPlan(false, 0x58, 2, 3)
	if cold.Soft || cold.Val != 3 {
		t.Fatalf("cold plan = %+v", cold)
	}
}

func TestSealedBlobRoundTrip(t *testing.T) {
	key, nonce := secmem.FreshKey(), secmem.FreshNonce()
	tx, _ := secmem.NewStream(key, nonce)
	rx, _ := secmem.NewStream(key, nonce)
	sealed, err := tx.Seal([]byte("policy payload"), nil)
	if err != nil {
		t.Fatal(err)
	}
	frame := MarshalBlob(sealed)
	got, err := UnmarshalBlob(frame)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := rx.Open(got, nil)
	if err != nil || string(pt) != "policy payload" {
		t.Fatalf("Open: %q, %v", pt, err)
	}
}

func TestSealedBlobRejectsMalformed(t *testing.T) {
	if _, err := UnmarshalBlob(make([]byte, 8)); err == nil {
		t.Fatal("short frame accepted")
	}
	frame := make([]byte, blobHeader+secmem.TagSize+10)
	frame[8] = 200 // length field inconsistent
	if _, err := UnmarshalBlob(frame); err == nil {
		t.Fatal("inconsistent length accepted")
	}
}

func TestDescriptorMarshalRoundTrip(t *testing.T) {
	d := Descriptor{
		ID: 9, Dir: DirD2H, Class: ActionWriteReadProtect,
		Base: 0x8000_0000, Len: 1 << 20, TagBase: 0x9000_0000,
		ChunkSize: 256, FirstCounter: 0x12345,
	}
	got, err := UnmarshalDescriptor(d.AppendMarshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got != d {
		t.Fatalf("round trip: %+v vs %+v", got, d)
	}
	// A step window round-trips its slotted mark, and only an A2 H2D
	// region may carry it.
	win := Descriptor{ID: 10, Dir: DirH2D, Class: ActionWriteReadProtect,
		Base: 0x8000_0000, Len: 64 * 256, ChunkSize: 256, Slotted: true}
	if got, err := UnmarshalDescriptor(win.AppendMarshal(nil)); err != nil || got != win {
		t.Fatalf("slotted round trip: %+v, %v", got, err)
	}
	d.Slotted = true
	if _, err := UnmarshalDescriptor(d.AppendMarshal(nil)); err == nil {
		t.Fatal("slotted D2H descriptor accepted")
	}
}

func TestDescriptorValidation(t *testing.T) {
	bad := Descriptor{ID: 1, Class: ActionPassThrough, Len: 1, ChunkSize: 1}
	if _, err := UnmarshalDescriptor(bad.AppendMarshal(nil)); err == nil {
		t.Fatal("pass-through descriptor accepted")
	}
	empty := Descriptor{ID: 1, Class: ActionWriteReadProtect}
	if _, err := UnmarshalDescriptor(empty.AppendMarshal(nil)); err == nil {
		t.Fatal("empty descriptor accepted")
	}
}

func TestDescriptorChunkGeometry(t *testing.T) {
	d := Descriptor{ID: 1, Class: ActionWriteReadProtect, Base: 0x1000, Len: 0x1000, ChunkSize: 256}
	var aad3, aad4 [8]byte
	d.PutAAD(&aad3, 3)
	d.PutAAD(&aad4, 4)
	if aad3 == aad4 {
		t.Fatal("AAD not chunk-specific")
	}
}

func TestRegionTableOverlapAndRemove(t *testing.T) {
	sc := newCtlRig(t).sc
	a := Descriptor{ID: 1, Class: ActionWriteReadProtect, Base: 0x1000, Len: 0x1000, ChunkSize: 256}
	b := Descriptor{ID: 2, Class: ActionWriteReadProtect, Base: 0x1800, Len: 0x1000, ChunkSize: 256}
	if !sc.install(a) {
		t.Fatal("install refused")
	}
	if sc.install(b) {
		t.Fatal("overlapping region accepted")
	}
	if sc.sess.at(0x1400) == nil {
		t.Fatal("lookup failed")
	}
	sc.releaseRegion(1)
	if sc.sess.at(0x1400) != nil || sc.Regions() != 0 {
		t.Fatal("removed region found")
	}
}
