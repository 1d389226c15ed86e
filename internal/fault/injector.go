package fault

import (
	"encoding/binary"
	"fmt"
	"sync"

	"ccai/internal/core"
	"ccai/internal/obsv"
	"ccai/internal/pcie"
	"ccai/internal/secmem"
	"ccai/internal/sim"
	"ccai/internal/xpu"
)

// Firing is one log entry: which class fired, on a packet of which role
// (none for a hook class), at which ordinal among the opportunities of
// that class and role.
type Firing struct {
	Class Class
	Role  pcie.Role
	Index uint64
}

func (f Firing) String() string {
	if f.Role == 0 {
		return fmt.Sprintf("%v@%d", f.Class, f.Index)
	}
	return fmt.Sprintf("%v/%v@%d", f.Class, f.Role, f.Index)
}

// eventState is the runtime counter for one plan event.
type eventState struct {
	Event
	fired uint16
}

// Injector executes a Plan against the simulated stack. It is a
// pcie.Tap for link-level faults and exposes hook adapters for the
// device (DeviceFault), crypto engine (CryptoFault), tag manager
// (TagFault) and scheduler (SchedFault) injection points. All decisions
// are deterministic: for a fixed plan and a fixed traffic sequence the
// same packets are faulted the same way, byte for byte.
type Injector struct {
	mu     sync.Mutex
	events []*eventState
	rand   *sim.Rand

	seen map[Event]uint64 // opportunities so far, by class and role
	log  []Firing

	// stash holds the delayed completion of a StaleCompletion in
	// progress.
	stash *pcie.Packet
	// cplStash holds the withheld completion-word writeback of a
	// DuplicateCplBurst in progress.
	cplStash *pcie.Packet

	// obsTracer/obsReg record each firing as an instant event and a
	// per-class counter. Firings are rare, so the registry lookup per
	// firing is acceptable and spares a 9-handle cache.
	obsTracer *obsv.Tracer
	obsReg    *obsv.Registry
}

// The firing event's span site and attribute keys, resolved once; the
// class name resolves per firing (rare, and one of a fixed set).
var (
	siteFaultInjected = obsv.NewSite(obsv.TrackFault, "fault_injected")
	keyClass          = obsv.NewKey("class")
	keyIndex          = obsv.NewKey("index")
)

// SetObserver instruments the injector; a nil hub clears it.
func (inj *Injector) SetObserver(h *obsv.Hub) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.obsTracer = h.T()
	inj.obsReg = h.Reg()
}

// NewInjector builds an injector for the plan. Payload mutations
// (which bit flips, where a truncation cuts) derive from the plan seed.
func NewInjector(p Plan) *Injector {
	inj := &Injector{
		rand: sim.NewRand(p.Seed ^ 0x9e3779b97f4a7c15),
		seen: make(map[Event]uint64),
	}
	for _, e := range p.Events {
		ev := e
		if ev.Count == 0 {
			ev.Count = 1
		}
		inj.events = append(inj.events, &eventState{Event: ev})
	}
	return inj
}

// fires decides — under inj.mu — whether class fires at this
// opportunity on a packet of role (zero at a hook), advancing the
// ordinal of that class and role either way.
func (inj *Injector) fires(class Class, role pcie.Role) bool {
	op := Event{Class: class, Role: role}
	i := inj.seen[op]
	inj.seen[op] = i + 1
	for _, ev := range inj.events {
		if ev.Class != class || ev.Role != role || ev.fired >= ev.Count || uint64(ev.Skip) > i {
			continue
		}
		ev.fired++
		inj.log = append(inj.log, Firing{Class: class, Role: role, Index: i})
		inj.obsReg.Counter(obsv.Name("fault.fired", "class", class.String())).Inc()
		inj.obsTracer.Mark(siteFaultInjected, keyClass.Str(obsv.Intern(class.String())), keyIndex.U64(i))
		return true
	}
	return false
}

// Tap implements pcie.Tap: it applies link-level fault classes to
// packets crossing the bus segment it is installed on. Install it on
// the untrusted host segment to model link errors between the TVM and
// the PCIe-SC.
func (inj *Injector) Tap(p *pcie.Packet) *pcie.Packet {
	if p == nil {
		return nil
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()

	// Completion-word writebacks (batched reaping): the SC's 8-byte
	// RingCplValid-tagged MWr into the submission-ring header.
	if p.Role == pcie.RoleCompletionWord && len(p.Payload) == 8 {
		if inj.fires(HeadWritebackLoss, p.Role) {
			return nil
		}
		if inj.fires(HeadRegress, p.Role) {
			q := p.Clone()
			head := binary.LittleEndian.Uint64(q.Payload) &^ uint64(core.RingCplValid)
			if head > 0 {
				head--
			}
			binary.LittleEndian.PutUint64(q.Payload, head|uint64(core.RingCplValid))
			return q
		}
		if inj.fires(DuplicateCplBurst, p.Role) {
			// Withhold this writeback; deliver the previously withheld
			// one (if any) in its place — the producer reaps a duplicate
			// of a completion it already saw while real progress hides.
			prev := inj.cplStash
			inj.cplStash = p.Clone()
			return prev
		}
	}

	if p.Kind == pcie.Cpl || p.Kind == pcie.CplD {
		if inj.fires(DropCompletion, p.Role) {
			return nil
		}
		if inj.fires(StaleCompletion, p.Role) {
			// Delay this completion; deliver the previously delayed one
			// (if any) in its place. The requester sees either a timeout
			// (first firing) or a completion whose transaction tag
			// belongs to an older request (subsequent firings).
			prev := inj.stash
			inj.stash = p.Clone()
			return prev
		}
	} else {
		if inj.fires(DropTLP, p.Role) {
			return nil
		}
	}

	if p.Kind.HasPayload() && len(p.Payload) > 0 {
		if inj.fires(TruncateTLP, p.Role) {
			q := p.Clone()
			cut := inj.rand.Intn(len(q.Payload))
			q.Payload = q.Payload[:cut]
			q.Length = uint32(cut)
			return q
		}
		if inj.fires(CorruptTLP, p.Role) {
			q := p.Clone()
			bit := inj.rand.Intn(len(q.Payload) * 8)
			q.Payload[bit/8] ^= 1 << (bit % 8)
			return q
		}
	}
	return p
}

// DeviceFault is the xpu.FaultHook adapter: doorbell hangs and MSI
// loss.
func (inj *Injector) DeviceFault(point string) bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	switch point {
	case xpu.FaultDoorbell:
		return inj.fires(DoorbellHang, 0)
	case xpu.FaultMSI:
		return inj.fires(DropMSI, 0)
	}
	return false
}

// CryptoFault is the secmem fault-hook adapter: transient engine
// errors. It fires per engine operation (seal or open).
func (inj *Injector) CryptoFault(string) error {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.fires(CryptoTransient, 0) {
		return secmem.ErrTransient
	}
	return nil
}

// Scheduler fault-hook points (see SchedFault).
const (
	// SchedPointDequeue is probed once per dispatcher claim; firing
	// SchedStall there requeues the request.
	SchedPointDequeue = "dequeue"
	// SchedPointCancel is probed at the claim boundary; firing
	// CancelRace there cancels the request as if its context fired at
	// that instant.
	SchedPointCancel = "cancel"
)

// SchedFault is the serving-scheduler fault-hook adapter: mid-queue
// stalls and claim-boundary cancellation races.
func (inj *Injector) SchedFault(point string) bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	switch point {
	case SchedPointDequeue:
		return inj.fires(SchedStall, 0)
	case SchedPointCancel:
		return inj.fires(CancelRace, 0)
	}
	return false
}

// TagFault is the core.TagManager fault-hook adapter: authentication
// tag packets lost in flight.
func (inj *Injector) TagFault(core.TagRecord) bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.fires(TagLoss, 0)
}

// TotalFired reports firings across all classes.
func (inj *Injector) TotalFired() uint64 {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return uint64(len(inj.log))
}

// Log returns a copy of the firing log in order.
func (inj *Injector) Log() []Firing {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return append([]Firing(nil), inj.log...)
}
