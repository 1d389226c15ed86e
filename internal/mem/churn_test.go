package mem

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ccai/internal/pcie"
)

// okEndpoint answers every memory read with a successful completion and
// keeps no state, so readers may route to it concurrently.
type okEndpoint struct{ id pcie.ID }

func (e okEndpoint) DeviceID() pcie.ID { return e.id }
func (e okEndpoint) Handle(p *pcie.Packet) *pcie.Packet {
	if p.Kind == pcie.MRd {
		return pcie.NewCompletion(p, e.id, pcie.CplSuccess, make([]byte, p.Length))
	}
	return nil
}

// TestLockFreeReadersUnderChurn runs the three lock-free per-TLP
// lookups — Space.Resolve, IOMMU.Check and Bus.Route — while writers
// rebuild what they read: buffers allocated and freed, a second device
// mapped and unmapped, a second endpoint attached, claimed and detached.
// A reader must never miss what stays live, never get a buffer whose
// Free has returned, and never be granted, or routed through, what a
// writer has finished revoking. Meant for -race (make ci runs it so).
func TestLockFreeReadersUnderChurn(t *testing.T) {
	const rounds = 400
	s := newTestSpace(t)
	pinned, err := s.Alloc("bounce", "pinned", 4*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	pinned.Pin()

	u := NewIOMMU()
	dev1, dev2 := pcie.MakeID(4, 0, 0), pcie.MakeID(5, 0, 0)
	u.Map(dev1, pinned.Base(), uint64(pinned.Size()), PermRead|PermWrite)

	bus := pcie.NewBus("churn")
	ep1, ep2 := okEndpoint{pcie.MakeID(1, 0, 0)}, okEndpoint{pcie.MakeID(2, 0, 0)}
	bus.Attach(ep1)
	if err := bus.Claim(ep1.id, pcie.Region{Base: 0x1000, Size: 0x1000, Name: "ep1"}); err != nil {
		t.Fatal(err)
	}
	const ep2Base = 0x4000

	// Each revocable resource has a sequence counter its writer makes odd
	// before granting it and even once the revocation has returned; a
	// reader that sees the same even value before and after a lookup
	// made that lookup while the resource was revoked. Freed buffers are
	// numbered in the order their Free returned, so a reader knows which
	// of them were gone before its lookup began.
	var iommuSeq, busSeq, frees atomic.Uint64
	var freedAt sync.Map // *Buffer -> its number among the frees
	var lastFreed atomic.Pointer[Buffer]
	var done atomic.Bool

	// The writers start once every reader has made one pass, so the churn
	// overlaps the reads however the goroutines are scheduled; both sides
	// yield between rounds, so reads land between writes. Each reader makes
	// one more pass once the writers are done, against settled state.
	var ready, writers, readers sync.WaitGroup
	ready.Add(3)
	readers.Add(3)
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
	writer := func(round func(i int)) {
		defer writers.Done()
		ready.Wait()
		for i := 0; i < rounds; i++ {
			round(i)
			runtime.Gosched()
		}
	}

	writers.Add(3)
	var held []*Buffer
	go writer(func(i int) { // buffers
		b, err := s.Alloc("bounce", "churn", int64(1+i%3)*PageSize)
		if err != nil {
			panic(err)
		}
		held = append(held, b)
		if len(held) > 12 || i%5 == 0 {
			victim := held[0]
			held = held[1:]
			s.Free(victim)
			n := frees.Load() + 1
			freedAt.Store(victim, n)
			frees.Store(n)
			lastFreed.Store(victim)
		}
	})
	go writer(func(int) { // grants
		iommuSeq.Add(1)
		u.Map(dev2, 0x9000_0000, 1<<20, PermRead)
		u.Unmap(dev2, 0x9000_0000, 1<<20)
		iommuSeq.Add(1)
	})
	go writer(func(int) { // endpoints
		busSeq.Add(1)
		bus.Attach(ep2)
		if err := bus.Claim(ep2.id, pcie.Region{Base: ep2Base, Size: 0x1000, Name: "ep2"}); err != nil {
			panic(err)
		}
		bus.Detach(ep2.id)
		busSeq.Add(1)
	})

	go reader(func() bool {
		for off := int64(0); off < pinned.Size(); off += PageSize {
			if b, ok := s.Resolve(pinned.Base() + uint64(off)); !ok || b != pinned {
				t.Errorf("Resolve(pinned+%#x) = %v, %v", off, b, ok)
				return false
			}
		}
		if f := lastFreed.Load(); f != nil {
			before := frees.Load()
			if b, ok := s.Resolve(f.Base()); ok {
				if n, gone := freedAt.Load(b); gone && n.(uint64) <= before {
					t.Errorf("Resolve returned buffer %d of the frees after its Free returned", n)
					return false
				}
			}
		}
		return true
	})
	go reader(func() bool {
		if !u.Check(dev1, pinned.Base()+PageSize, 256, true) {
			t.Error("fixed grant denied")
			return false
		}
		before := iommuSeq.Load()
		granted := u.Check(dev2, 0x9000_0000, 64, false)
		if granted && before%2 == 0 && iommuSeq.Load() == before {
			t.Error("grant seen after its Unmap returned")
			return false
		}
		return true
	})
	go reader(func() bool {
		if cpl := bus.Route(pcie.NewMemRead(0, 0x1800, 4, 0)); cpl == nil || cpl.Status != pcie.CplSuccess || cpl.Completer != ep1.id {
			t.Errorf("route to the fixed endpoint = %v", cpl)
			return false
		}
		before := busSeq.Load()
		cpl := bus.Route(pcie.NewMemRead(0, ep2Base, 4, 0))
		if cpl != nil && cpl.Status == pcie.CplSuccess && before%2 == 0 && busSeq.Load() == before {
			t.Error("routed through a claim after its Detach returned")
			return false
		}
		return true
	})

	writers.Wait()
	done.Store(true)
	readers.Wait()
	for _, b := range held {
		s.Free(b)
	}
	if got := s.Live(); got != 1 {
		t.Fatalf("Live() = %d after the churn, want the pinned buffer only", got)
	}
}
