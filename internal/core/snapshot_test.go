package core

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ccai/internal/pcie"
	"ccai/internal/secmem"
)

// TestSnapshotReadersUnderChurn runs the readers of the published
// snapshots — ParamsManager.Stream, Mux.Handle — while
// writers rebuild them: two streams activated, one of them rekeyed, then
// both destroyed, round after round; units added to a mux. A reader must
// never miss a stream while both activations have returned and no
// DestroyAll has begun, never be handed a stream context whose DestroyAll
// had returned before its lookup began, never miss a unit whose AddUnit
// has returned, and never reach one that was not added. Meant for -race
// (make ci runs it so).
func TestSnapshotReadersUnderChurn(t *testing.T) {
	const rounds, units = 300, 48
	const churn = "churn"
	ks := secmem.NewKeyStore()
	pm := NewParamsManager(ks)

	// begun counts the rounds whose first Install has started; phase is
	// odd from the moment both activations of a round have returned until
	// just before its DestroyAll; stream contexts are numbered in the
	// order the DestroyAll that dropped them returned.
	var begun, phase, destroys atomic.Uint64
	var destroyedAt sync.Map // *secmem.Stream -> its DestroyAll's number

	host := pcie.NewBus("host")
	mux := NewMux(pcie.MakeID(1, 0, 0))
	unitBar := func(i int) pcie.Region { return pcie.Region{Base: 0x10_0000 + uint64(i)*SCBarSize, Size: SCBarSize} }
	unitTVM := func(i int) pcie.ID { return pcie.MakeID(0x40, uint8(i>>3), uint8(i&7)) }
	var added atomic.Int64 // units whose AddUnit has returned

	var done atomic.Bool
	var ready, writers, readers sync.WaitGroup
	ready.Add(2)
	readers.Add(2)
	reader := func(pass func() bool) {
		defer readers.Done()
		ok := pass()
		ready.Done()
		for ok && !done.Load() {
			runtime.Gosched()
			ok = pass()
		}
		if ok {
			pass()
		}
	}
	writers.Add(2)
	go func() { // streams
		defer writers.Done()
		ready.Wait()
		for i := 0; i < rounds; i++ {
			begun.Add(1)
			for _, name := range []string{StreamH2D, churn} {
				if err := ks.Install(name, secmem.FreshKey(), secmem.FreshNonce()); err != nil {
					panic(err)
				}
				if err := pm.Activate(name); err != nil {
					panic(err)
				}
			}
			h2d, _ := pm.Stream(StreamH2D)
			c, _ := pm.Stream(churn)
			phase.Add(1)
			runtime.Gosched()
			if err := pm.Rekey(StreamH2D, secmem.FreshKey(), secmem.FreshNonce()); err != nil {
				panic(err)
			}
			runtime.Gosched()
			phase.Add(1)
			pm.DestroyAll()
			n := destroys.Load() + 1
			destroyedAt.Store(h2d, n)
			destroyedAt.Store(c, n)
			destroys.Store(n)
			runtime.Gosched()
		}
	}()
	go func() { // units
		defer writers.Done()
		ready.Wait()
		for i := 0; i < units; i++ {
			inner := pcie.NewBus("internal")
			sc := NewController(pcie.MakeID(2, uint8(i>>3), uint8(i&7)), unitBar(i), secmem.NewKeyStore())
			u := &MuxUnit{Ctrl: sc, Bar: unitBar(i), Window: pcie.Region{Base: 0x80_0000 + uint64(i)*0x1000, Size: 0x1000},
				XPU: pcie.MakeID(3, uint8(i>>3), uint8(i&7)), TVM: unitTVM(i)}
			sc.Attach(inner, u.Window, host)
			if err := mux.AddUnit(u); err != nil {
				panic(err)
			}
			added.Store(int64(i + 1))
			runtime.Gosched()
		}
	}()

	go reader(func() bool {
		b1, before, p1 := begun.Load(), destroys.Load(), phase.Load()
		h2d, errH := pm.Stream(StreamH2D)
		c, errC := pm.Stream(churn)
		live := p1%2 == 1 && phase.Load() == p1
		if live && (errH != nil || errC != nil) {
			t.Errorf("phase %d: a live stream went missing: Stream(h2d) %v, Stream(churn) %v", p1, errH, errC)
			return false
		}
		gone := b1 == before && begun.Load() == b1
		if gone && (errH == nil || errC == nil) {
			t.Errorf("round %d destroyed: Stream(h2d) %v, Stream(churn) %v", b1, errH, errC)
			return false
		}
		for _, s := range []*secmem.Stream{h2d, c} {
			if n, gone := destroyedAt.Load(s); s != nil && gone && n.(uint64) <= before {
				t.Errorf("Stream returned a context destroyed by DestroyAll %d, before the lookup began", n)
				return false
			}
		}
		return true
	})
	go reader(func() bool {
		n := int(added.Load())
		for i := 0; i <= n && i < units; i++ {
			cpl := mux.Handle(pcie.NewMemRead(unitTVM(i), unitBar(i).Base+RegSCStatus, 8, 0))
			switch {
			case i < n && (cpl == nil || cpl.Status != pcie.CplSuccess):
				t.Errorf("unit %d missed after its AddUnit returned: %v", i, cpl)
				return false
			case i < n && binary.LittleEndian.Uint64(cpl.Payload) != SCStatusReady:
				t.Errorf("unit %d answered status %#x", i, binary.LittleEndian.Uint64(cpl.Payload))
				return false
			}
		}
		if cpl := mux.Handle(pcie.NewMemRead(unitTVM(0), unitBar(units).Base, 8, 0)); cpl == nil || cpl.Status != pcie.CplUR {
			t.Errorf("a read past every unit's window was answered: %v", cpl)
			return false
		}
		return true
	})

	writers.Wait()
	done.Store(true)
	readers.Wait()
	if a := pm.Active(); a != 0 {
		t.Fatalf("Active() = %d after the last DestroyAll, want 0", a)
	}
	if got := len(mux.units()); got != units {
		t.Fatalf("mux holds %d units, want %d", got, units)
	}
}
