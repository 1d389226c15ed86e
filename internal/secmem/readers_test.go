package secmem

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestStreamReadersExactAcrossRekey reads Epoch, Remaining and a fresh
// Fence's Valid, none of which takes the stream lock, while a writer
// seals and rekeys: in epoch e it seals rounds−e chunks, then rekeys. A
// reader must see the epoch never go back, never see more chunks sealed
// in an epoch than the writer sealed in it (a counter from the epoch
// before, paired with the new epoch, would be more), and get Valid
// exactly when no rekey has passed the fence. After the writer, every
// value is exact. Meant for -race (make ci runs it so).
func TestStreamReadersExactAcrossRekey(t *testing.T) {
	const rounds = 200
	s, err := NewStream(bytes.Repeat([]byte{0x11}, KeySize), bytes.Repeat([]byte{0x22}, 8))
	if err != nil {
		t.Fatal(err)
	}
	old := s.Fence()
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		pt := make([]byte, 16)
		for e := uint32(0); e < rounds; e++ {
			for i := uint32(0); i < rounds-e; i++ {
				if _, err := s.Seal(pt, nil); err != nil {
					t.Error(err)
					return
				}
			}
			runtime.Gosched()
			if err := s.Rekey(bytes.Repeat([]byte{byte(e)}, KeySize), bytes.Repeat([]byte{0x22}, 8)); err != nil {
				t.Error(err)
				return
			}
			if got, rem := s.Epoch(), s.Remaining(); got != e+1 || rem != ^uint32(0) {
				t.Errorf("after rekey %d: Epoch %d, Remaining %d", e+1, got, rem)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for !done.Load() {
			e1 := s.Epoch()
			sent := ^uint32(0) - s.Remaining()
			f := s.Fence()
			e2 := s.Epoch()
			valid := f.Valid()
			e3 := s.Epoch()
			switch {
			case e1 > e2 || e2 > e3:
				t.Errorf("epoch went back: %d, %d, %d", e1, e2, e3)
				return
			case e1 == e2 && sent > rounds-e1:
				t.Errorf("epoch %d: %d chunks sealed, the writer seals %d in it", e1, sent, rounds-e1)
				return
			case f.Epoch() < e1 || f.Epoch() > e2:
				t.Errorf("fence pinned epoch %d outside [%d, %d]", f.Epoch(), e1, e2)
				return
			case f.Epoch() < e2 && valid, f.Epoch() == e3 && !valid:
				t.Errorf("fence at epoch %d (epochs %d then %d) reports Valid %v", f.Epoch(), e2, e3, valid)
				return
			}
			runtime.Gosched()
		}
	}()
	wg.Wait()
	if s.Epoch() != rounds || s.Remaining() != ^uint32(0) || s.SendCounter() != 0 {
		t.Fatalf("final Epoch %d, Remaining %d, SendCounter %d", s.Epoch(), s.Remaining(), s.SendCounter())
	}
	if old.Valid() || !s.Fence().Valid() {
		t.Fatalf("first fence Valid %v, fresh fence Valid %v", old.Valid(), s.Fence().Valid())
	}
}

// TestMACSumUnderKeyChurn takes MACs, which take no lock once the
// entry's HMAC state exists, while a writer installs a fresh key and
// destroys it, round after round. Every MAC a reader is handed must be
// the MAC under a key that was installed — never one under a key a
// Destroy was zeroing — and a reader between a Destroy and the next
// Install gets an error. Meant for -race (make ci runs it so).
func TestMACSumUnderKeyChurn(t *testing.T) {
	const rounds = 300
	ks := NewKeyStore()
	hdr, payload := []byte("header"), []byte("payload")
	var mu sync.Mutex
	valid := map[[32]byte]bool{}
	// installs counts Install calls begun, destroys Destroy calls returned.
	var installs, destroys atomic.Uint64
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < rounds; i++ {
			key := FreshKey()
			mu.Lock()
			valid[MAC(key, hdr, payload)] = true
			mu.Unlock()
			installs.Add(1)
			if err := ks.Install("mmio", key, FreshNonce()); err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched()
			ks.Destroy("mmio")
			destroys.Add(1)
			runtime.Gosched()
		}
	}()
	for r := 0; r < 2; r++ {
		go func() {
			defer wg.Done()
			for !done.Load() {
				i1 := installs.Load()
				d1 := destroys.Load()
				sum, err := ks.MACSum("mmio", hdr, payload)
				settled := i1 == d1 && installs.Load() == i1
				mu.Lock()
				ok := valid[sum]
				mu.Unlock()
				switch {
				case err == nil && !ok:
					t.Error("MACSum returned a MAC under no installed key")
					return
				case err == nil && settled:
					t.Errorf("MACSum succeeded after Destroy %d returned, before the next Install", d1)
					return
				}
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	if ks.Has("mmio") || ks.Count() != 0 {
		t.Fatalf("Has %v, Count %d after the last Destroy", ks.Has("mmio"), ks.Count())
	}
}
