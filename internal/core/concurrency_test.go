package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"ccai/internal/pcie"
	"ccai/internal/secmem"
)

// "costarring" and "liquid" are a known FNV-1a 32-bit colliding pair;
// the tag wire format identifies streams by that hash alone, so these
// two names are the concrete attack vector the (stream, chunk) keying
// and Activate-time rejection defend against.
const (
	collideA = "costarring"
	collideB = "liquid"
)

func TestStreamHashCollisionPairHolds(t *testing.T) {
	if hashStream(collideA) != hashStream(collideB) {
		t.Fatalf("test vector broken: %q and %q no longer collide", collideA, collideB)
	}
	if collideA == collideB {
		t.Fatal("pair must be distinct names")
	}
}

// TestIngestRefusesCollidingStreamHash is the regression test for
// hash-named pending tags: a record carrying another stream's wire hash
// must never arm or fill an entry of a region, even when that name
// collides with a live stream's. An entry whose records carry collideB's
// hash, positioned at a step window or a one-shot H2D region, is one
// config reject that arms nothing and leaves nothing pending.
func TestIngestRefusesCollidingStreamHash(t *testing.T) {
	d := newDPRig(t)
	w := d.installWindow(t, 5, ctlMem+0x4000, 4)
	one := Descriptor{ID: 6, Dir: DirH2D, Class: ActionWriteReadProtect,
		Base: ctlMem + 0x8000, Len: 4 * ChunkSize, ChunkSize: ChunkSize, FirstCounter: 1}
	if !d.sc.install(one) {
		t.Fatal("install refused")
	}
	rec := TagRecord{Stream: collideB, Chunk: 1, Epoch: 0}.AppendMarshal(nil)
	for _, id := range []uint32{w.ID, one.ID} {
		rejects := d.sc.Stats().ConfigRejects
		d.submit(ringEntry{op: RingOpTags, arg: ArmPosition(id, 0), data: rec})
		if got := d.sc.Stats().ConfigRejects - rejects; got != 1 {
			t.Fatalf("region %d: %d config rejects for a foreign-stream record, want 1", id, got)
		}
	}
	if n := d.sc.PendingTags(); n != 0 {
		t.Fatalf("%d foreign-stream records pending", n)
	}
	d.sc.mu.Lock()
	armed := d.sc.sess.byID(w.ID).recs[0].ctr
	d.sc.mu.Unlock()
	if armed != 0 {
		t.Fatalf("a foreign-stream record armed slot 0 with counter %d", armed)
	}
}

// TestActivateRejectsStreamHashCollision: two live streams must never
// share a wire hash, so the second activation fails closed.
func TestActivateRejectsStreamHashCollision(t *testing.T) {
	ks := secmem.NewKeyStore()
	for _, name := range []string{collideA, collideB} {
		if err := ks.Install(name, secmem.FreshKey(), secmem.FreshNonce()); err != nil {
			t.Fatal(err)
		}
	}
	pm := NewParamsManager(ks)
	if err := pm.Activate(collideA); err != nil {
		t.Fatalf("first activation: %v", err)
	}
	err := pm.Activate(collideB)
	if !errors.Is(err, ErrStreamHashCollision) {
		t.Fatalf("colliding activation: got %v, want ErrStreamHashCollision", err)
	}
	if pm.Active() != 1 {
		t.Fatalf("active streams = %d, want 1", pm.Active())
	}
	// Re-activating the same name is not a collision.
	if err := pm.Activate(collideA); err != nil {
		t.Fatalf("idempotent re-activation: %v", err)
	}
}

// TestActivateRejectsReservedNameCollision: a name colliding with a
// well-known stream is rejected even when that stream is not active.
func TestActivateRejectsReservedNameCollision(t *testing.T) {
	// Find no collision with the constants among our pair — instead
	// verify the reserved names themselves always activate (no false
	// positives) and that the well-known set is internally collision
	// free.
	seen := map[uint32]string{}
	for _, name := range wellKnownStreams {
		if prev, dup := seen[hashStream(name)]; dup {
			t.Fatalf("well-known streams %q and %q collide", prev, name)
		}
		seen[hashStream(name)] = name
	}
	ks := secmem.NewKeyStore()
	pm := NewParamsManager(ks)
	for _, name := range []string{StreamH2D, StreamD2H, StreamConfig} {
		if err := ks.Install(name, secmem.FreshKey(), secmem.FreshNonce()); err != nil {
			t.Fatal(err)
		}
		if err := pm.Activate(name); err != nil {
			t.Fatalf("activate %q: %v", name, err)
		}
	}
}

// TestForwardToDeviceRejectsStaleCompletion is the regression test for
// the stale-completion confidentiality hole: the internal bus delivers
// a completion answering a *different* transaction (a delayed plaintext
// chunk completion originally destined for the device), and the SC must
// fail closed instead of forwarding the foreign payload to the host.
// Pre-fix, forwardToDevice returned whatever the internal segment
// handed back, leaking decrypted chunk data across the trust boundary.
func TestForwardToDeviceRejectsStaleCompletion(t *testing.T) {
	r := newCtlRig(t)
	r.installRule(t, Rule{ID: 1, Mask: MatchKind | MatchRequester, Kind: pcie.MRd, Requester: tvmID, Action: actionToL2})
	r.installRule(t, Rule{ID: 2, Mask: MatchKind | MatchRequester | MatchAddr,
		Kind: pcie.MRd, Requester: tvmID, AddrLo: ctlWin, AddrHi: ctlWin + 0x1000, Action: ActionPassThrough})
	r.dev.regs[0x40] = 0x77

	// Model the injector's stash: in place of the register read's
	// completion, the internal segment delivers a held plaintext chunk
	// completion for the device's own earlier DMA read (requester = the
	// device, foreign transaction tag).
	plaintext := bytes.Repeat([]byte{0x5e}, 64)
	armed := true
	r.inner.AddTap(pcie.TapFunc(func(p *pcie.Packet) *pcie.Packet {
		if armed && (p.Kind == pcie.Cpl || p.Kind == pcie.CplD) {
			armed = false
			src := pcie.NewMemRead(r.dev.id, ctlWin+0x80, uint32(len(plaintext)), 9)
			return pcie.NewCompletion(src, pcie.MakeID(1, 0, 0), pcie.CplSuccess, plaintext)
		}
		return p
	}))

	before := r.sc.Stats().AuthFailures
	cpl := r.host.Route(pcie.NewMemRead(tvmID, ctlWin+0x40, 8, 0))
	if cpl != nil && cpl.Status == pcie.CplSuccess {
		t.Fatalf("stale completion forwarded to host: %v", cpl)
	}
	if cpl != nil && bytes.Contains(cpl.Payload, plaintext) {
		t.Fatal("plaintext crossed the SC on a stale completion")
	}
	if r.sc.Stats().AuthFailures == before {
		t.Fatal("stale completion not recorded as auth failure")
	}
	// The path still works once the stale condition clears.
	cpl = r.host.Route(pcie.NewMemRead(tvmID, ctlWin+0x40, 8, 0))
	if cpl == nil || cpl.Status != pcie.CplSuccess {
		t.Fatalf("clean read after stale rejection failed: %v", cpl)
	}
}

// TestRegionTagsConcurrent hammers ingest, take and PendingTags from
// many goroutines, each on a region of its own, under -race: every
// record is taken exactly once and nothing is left pending.
func TestRegionTagsConcurrent(t *testing.T) {
	r := newCtlRig(t)
	const workers, perWorker = 8, 200
	for w := uint32(0); w < workers; w++ {
		if !r.sc.install(Descriptor{ID: w + 1, Dir: DirH2D, Class: ActionWriteReadProtect, Base: ctlMem + uint64(w)*0x10000,
			Len: perWorker * ChunkSize, ChunkSize: ChunkSize, FirstCounter: 1}) {
			t.Fatal("install refused")
		}
	}
	var wg sync.WaitGroup
	var taken [workers]int
	for w := uint32(0); w < workers; w++ {
		wg.Add(1)
		go func(w uint32) {
			defer wg.Done()
			for i := uint32(0); i < perWorker; i++ {
				r.postTags(w+1, i, TagRecord{Stream: StreamH2D, Chunk: 1 + i})
				r.sc.mu.Lock()
				if _, ok := r.sc.sess.byID(w + 1).take(i); ok {
					taken[w]++
				}
				r.sc.mu.Unlock()
				r.sc.PendingTags()
			}
		}(w)
	}
	wg.Wait()
	for w, n := range taken {
		if n != perWorker {
			t.Fatalf("region %d: %d records taken, want %d", w+1, n, perWorker)
		}
	}
	if n := r.sc.PendingTags(); n != 0 {
		t.Fatalf("%d records pending after draining, want 0", n)
	}
}

// TestParamsManagerConcurrent runs Activate / Stream / Rekey /
// DestroyAll in parallel under -race and checks the manager stays
// consistent: Active() equals the number of streams that survive, no
// lost updates, no panics.
func TestParamsManagerConcurrent(t *testing.T) {
	ks := secmem.NewKeyStore()
	names := []string{StreamH2D, StreamD2H, StreamConfig}
	for _, n := range names {
		if err := ks.Install(n, secmem.FreshKey(), secmem.FreshNonce()); err != nil {
			t.Fatal(err)
		}
	}
	pm := NewParamsManager(ks)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := names[i%len(names)]
			for j := 0; j < 100; j++ {
				_ = pm.Activate(name)
				if s, err := pm.Stream(name); err == nil && s == nil {
					t.Error("nil stream with nil error")
				}
				if j%10 == 0 {
					_ = pm.Rekey(name, secmem.FreshKey(), secmem.FreshNonce())
				}
				pm.Active()
			}
		}(i)
	}
	wg.Wait()
	if a := pm.Active(); a != len(names) {
		t.Fatalf("active = %d, want %d", a, len(names))
	}
	pm.DestroyAll()
	if a := pm.Active(); a != 0 {
		t.Fatalf("active after destroy = %d, want 0", a)
	}
}

// TestEnvGuardConcurrent verifies MMIO checks under parallel use:
// exactly the odd values are rejected.
func TestEnvGuardConcurrent(t *testing.T) {
	g := NewEnvGuard()
	g.AddCheck(MMIOCheck{Reg: 0x10, Valid: func(v uint64) bool { return v%2 == 0 }})
	const workers, perWorker = 8, 100
	var wg sync.WaitGroup
	var rejected [workers]int
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if !g.VerifyMMIO(0x10, uint64(w*perWorker+i)) {
					rejected[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	want := 0
	for _, n := range rejected {
		want += n
	}
	if want != workers*perWorker/2 {
		t.Fatalf("rejected = %d, want %d", want, workers*perWorker/2)
	}
}
