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

func TestTagManagerMatchAndConsume(t *testing.T) {
	tm := NewTagManager()
	rec := TagRecord{Stream: StreamH2D, Chunk: 42, Epoch: 1}
	rec.Tag[0] = 0xaa
	tm.Enqueue(rec)
	if tm.Depth() != 1 {
		t.Fatalf("depth = %d", tm.Depth())
	}
	// Peek shows the record and spends nothing, hit or miss.
	if got, ok := tm.Peek(StreamH2D, 42); !ok || got != rec || tm.Depth() != 1 {
		t.Fatalf("Peek = %+v, %v (depth %d)", got, ok, tm.Depth())
	}
	if _, ok := tm.Peek(StreamH2D, 43); ok {
		t.Fatal("Peek found a record nobody enqueued")
	}
	if matched, missing := tm.Stats(); matched != 0 || missing != 0 {
		t.Fatalf("Peek counted: stats = %d/%d", matched, missing)
	}
	got, ok := tm.Take(StreamH2D, 42)
	if !ok || got.Tag[0] != 0xaa || got.Epoch != 1 {
		t.Fatalf("Take = %+v, %v", got, ok)
	}
	// One-shot: a second Take misses (replay freshness).
	if _, ok := tm.Take(StreamH2D, 42); ok {
		t.Fatal("tag record consumed twice")
	}
	matched, missing := tm.Stats()
	if matched != 1 || missing != 1 {
		t.Fatalf("stats = %d/%d", matched, missing)
	}
}

func TestTagManagerKeysByStreamAndChunk(t *testing.T) {
	tm := NewTagManager()
	tm.Enqueue(TagRecord{Stream: StreamH2D, Chunk: 1})
	if _, ok := tm.Take(StreamD2H, 1); ok {
		t.Fatal("cross-stream tag matched")
	}
	if _, ok := tm.Take(StreamH2D, 2); ok {
		t.Fatal("cross-chunk tag matched")
	}
	if _, ok := tm.Take(StreamH2D, 1); !ok {
		t.Fatal("correct tag missed")
	}
}

func TestTagRecordMarshalShape(t *testing.T) {
	rec := TagRecord{Stream: StreamD2H, Chunk: 7, Epoch: 3}
	for i := range rec.Tag {
		rec.Tag[i] = byte(i)
	}
	buf := rec.Marshal()
	if len(buf) != TagRecordSize {
		t.Fatalf("record size = %d, want %d", len(buf), TagRecordSize)
	}
}

func TestEnvGuardChecks(t *testing.T) {
	g := NewEnvGuard()
	g.AddCheck(MMIOCheck{
		Name:  "page-table-in-range",
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
	if len(g.Violations()) != 1 || g.Violations()[0] != "page-table-in-range" {
		t.Fatalf("violations = %v", g.Violations())
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
	if g.Cleans() != 2 {
		t.Fatalf("cleans = %d", g.Cleans())
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
	got, err := UnmarshalDescriptor(d.Marshal())
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
	if got, err := UnmarshalDescriptor(win.Marshal()); err != nil || got != win {
		t.Fatalf("slotted round trip: %+v, %v", got, err)
	}
	d.Slotted = true
	if _, err := UnmarshalDescriptor(d.Marshal()); err == nil {
		t.Fatal("slotted D2H descriptor accepted")
	}
}

func TestDescriptorValidation(t *testing.T) {
	bad := Descriptor{ID: 1, Class: ActionPassThrough, Len: 1, ChunkSize: 1}
	if _, err := UnmarshalDescriptor(bad.Marshal()); err == nil {
		t.Fatal("pass-through descriptor accepted")
	}
	empty := Descriptor{ID: 1, Class: ActionWriteReadProtect}
	if _, err := UnmarshalDescriptor(empty.Marshal()); err == nil {
		t.Fatal("empty descriptor accepted")
	}
}

func TestDescriptorChunkGeometry(t *testing.T) {
	d := Descriptor{ID: 1, Class: ActionWriteReadProtect, Base: 0x1000, Len: 0x1000, ChunkSize: 256}
	if aad := d.AAD(3); len(aad) != 8 {
		t.Fatalf("AAD length = %d", len(aad))
	}
	if string(d.AAD(3)) == string(d.AAD(4)) {
		t.Fatal("AAD not chunk-specific")
	}
}

func TestRegionTableOverlapAndRemove(t *testing.T) {
	var rt regionTable
	a := Descriptor{ID: 1, Class: ActionWriteReadProtect, Base: 0x1000, Len: 0x1000, ChunkSize: 256}
	b := Descriptor{ID: 2, Class: ActionWriteReadProtect, Base: 0x1800, Len: 0x1000, ChunkSize: 256}
	if err := rt.add(a); err != nil {
		t.Fatal(err)
	}
	if err := rt.add(b); err == nil {
		t.Fatal("overlapping region accepted")
	}
	if _, ok := rt.find(0x1400); !ok {
		t.Fatal("lookup failed")
	}
	rt.remove(1)
	if _, ok := rt.find(0x1400); ok {
		t.Fatal("removed region found")
	}
}
