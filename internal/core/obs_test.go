package core

import (
	"testing"

	"ccai/internal/obsv"
	"ccai/internal/pcie"
)

// spansNamed returns the hub's recorded spans of one name, with their
// attributes rendered.
func spansNamed(h *obsv.Hub, name string) []map[string]string {
	var out []map[string]string
	for _, sp := range h.T().Spans() {
		if sp.Name != name {
			continue
		}
		attrs := map[string]string{}
		for _, a := range sp.Attrs() {
			attrs[a.Key] = a.Val()
		}
		out = append(out, attrs)
	}
	return out
}

// TestWriteSpanFoldsItsTLPSpans pins the aggregate: the chunk writes of
// a D2H burst record no classify and no encrypt_write of their own, the
// sealed write span records one encrypt_write carrying what they had in
// common, and every one of them is still counted.
func TestWriteSpanFoldsItsTLPSpans(t *testing.T) {
	d := newDPRig(t)
	hub := obsv.NewHub()
	d.sc.SetObserver(hub)
	const chunks = 3
	desc := Descriptor{
		ID: 9, Dir: DirD2H, Class: ActionWriteReadProtect,
		Base: ctlMem + 0x4000, Len: chunks * ChunkSize, TagBase: ctlMem + 0x8000, ChunkSize: ChunkSize,
	}
	if !d.sc.install(desc) {
		t.Fatal("install refused")
	}
	before := d.sc.Stats().Filter.Protected
	for i := 0; i < chunks; i++ {
		d.sc.HandleFromDevice(pcie.NewMemWrite(d.dev.id, desc.Base+uint64(i)*ChunkSize, make([]byte, ChunkSize)))
	}
	if got := spansNamed(hub, "classify"); len(got) != 0 {
		t.Fatalf("folded chunk writes recorded %d classify spans: %v", len(got), got)
	}
	got := spansNamed(hub, "encrypt_write")
	if len(got) != 1 {
		t.Fatalf("%d encrypt_write spans for one write span: %v", len(got), got)
	}
	want := map[string]string{
		"region": "9", "chunk": "0", "chunks": "3", "bytes": "768",
		"action": "A2_write_read_protect", "rule": "30",
	}
	for k, v := range want {
		if got[0][k] != v {
			t.Fatalf("encrypt_write %s = %q, want %q (all: %v)", k, got[0][k], v, got[0])
		}
	}
	if len(got[0]) != len(want) {
		t.Fatalf("encrypt_write carries attributes beyond %v: %v", want, got[0])
	}
	if n := d.sc.Stats().Filter.Protected - before; n != chunks {
		t.Fatalf("Filter.Stats counted %d of %d folded TLPs", n, chunks)
	}
	name := obsv.Name("sc.filter.classified", "action", "A2_write_read_protect")
	if n := hub.Reg().Snapshot().Counters[name]; n != chunks {
		t.Fatalf("%s = %d, want %d", name, n, chunks)
	}
	if d.sc.Stats().EncryptedChunks != chunks {
		t.Fatalf("encrypted %d chunks", d.sc.Stats().EncryptedChunks)
	}
}

// TestSetObserverNilKeepsReads: the registry reads the SC's own counts,
// which run from when the SC was built, not from SetObserver; and
// SetObserver(nil) stops the tracing while the registry keeps its reads.
func TestSetObserverNilKeepsReads(t *testing.T) {
	d := newDPRig(t)
	rogue := pcie.MakeID(7, 7, 0)
	drop := func() { d.sc.HandleFromDevice(pcie.NewMemWrite(rogue, ctlMem+0x4000, make([]byte, 8))) }
	drop() // before any hub
	hub := obsv.NewHub()
	d.sc.SetObserver(hub)
	drop()
	d.sc.SetObserver(nil)
	drop()
	name := obsv.Name("sc.filter.classified", "action", "A1_drop")
	if got, st := hub.Reg().Snapshot().Counters[name], d.sc.Stats().Filter.Dropped; got != 3 || st != 3 {
		t.Fatalf("%s = %d, Stats().Filter.Dropped = %d, want 3 each", name, got, st)
	}
	if n := len(spansNamed(hub, "classify")); n != 1 {
		t.Fatalf("%d classify spans, want the one recorded while observed", n)
	}
}

// TestFoldKeepsFailureSpans: a write into a live D2H region that does
// not make it into a write span — dropped by the filter, off the chunk
// grid — keeps a classify span of its own, with the verdict it got.
func TestFoldKeepsFailureSpans(t *testing.T) {
	d := newDPRig(t)
	hub := obsv.NewHub()
	d.sc.SetObserver(hub)
	desc := Descriptor{
		ID: 9, Dir: DirD2H, Class: ActionWriteReadProtect,
		Base: ctlMem + 0x4000, Len: 4 * ChunkSize, TagBase: ctlMem + 0x8000, ChunkSize: ChunkSize,
	}
	if !d.sc.install(desc) {
		t.Fatal("install refused")
	}

	// Off the chunk grid: classified A2, rejected by the handler.
	fails := d.sc.Stats().AuthFailures
	d.sc.HandleFromDevice(pcie.NewMemWrite(d.dev.id, desc.Base+8, make([]byte, ChunkSize)))
	if d.sc.Stats().AuthFailures != fails+1 {
		t.Fatal("misaligned write not failed closed")
	}
	got := spansNamed(hub, "classify")
	if len(got) != 1 || got[0]["action"] != "A2_write_read_protect" || got[0]["kind"] != "MWr" {
		t.Fatalf("rejected write's classify span: %v", got)
	}

	// From a requester no rule admits: dropped by the filter.
	hub.T().Reset()
	rogue := pcie.MakeID(7, 7, 0)
	d.sc.HandleFromDevice(pcie.NewMemWrite(rogue, desc.Base, make([]byte, ChunkSize)))
	got = spansNamed(hub, "classify")
	if len(got) != 1 || got[0]["action"] != "A1_drop" {
		t.Fatalf("dropped write's classify span: %v", got)
	}
	if n := len(spansNamed(hub, "encrypt_write")); n != 0 {
		t.Fatalf("%d encrypt_write spans though nothing was staged", n)
	}
}

// TestWriteSpanBreaksOnVerdictChange: a write span reports one verdict
// for all its TLPs, so a TLP that classified differently starts a new
// span instead of joining the pending one.
func TestWriteSpanBreaksOnVerdictChange(t *testing.T) {
	d := newDPRig(t)
	hub := obsv.NewHub()
	d.sc.SetObserver(hub)
	desc := Descriptor{
		ID: 9, Dir: DirD2H, Class: ActionWriteReadProtect,
		Base: ctlMem + 0x4000, Len: 4 * ChunkSize, TagBase: ctlMem + 0x8000, ChunkSize: ChunkSize,
	}
	if !d.sc.install(desc) {
		t.Fatal("install refused")
	}
	write := func(chunk uint64) {
		d.sc.HandleFromDevice(pcie.NewMemWrite(d.dev.id, desc.Base+chunk*ChunkSize, make([]byte, ChunkSize)))
	}
	write(0)
	write(1)
	// A narrower rule in front of rule 30 now claims the rest of the region.
	d.sc.Filter().mutate(func(s *filterState) {
		s.l2 = append([]Rule{{ID: 77, Mask: MatchKind | MatchRequester | MatchAddr, Kind: pcie.MWr,
			Requester: d.dev.id, AddrLo: desc.Base + 2*ChunkSize, AddrHi: desc.Base + desc.Len,
			Action: ActionWriteReadProtect}}, s.l2...)
	})
	write(2)
	write(3)
	got := spansNamed(hub, "encrypt_write")
	if len(got) != 2 {
		t.Fatalf("%d encrypt_write spans, want one per verdict: %v", len(got), got)
	}
	if got[0]["rule"] != "30" || got[0]["chunks"] != "2" || got[1]["rule"] != "77" || got[1]["chunk"] != "2" || got[1]["chunks"] != "2" {
		t.Fatalf("write spans mix verdicts: %v", got)
	}
	if d.sc.D2HProgress(desc.ID) != 4 {
		t.Fatalf("D2HProgress = %d after the break", d.sc.D2HProgress(desc.ID))
	}
}
