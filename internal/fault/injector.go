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

// Firing is one log entry: which event fired, at which per-class match
// index, and when on the virtual clock (0 without a clock).
type Firing struct {
	Class Class
	Index uint64
	At    sim.Time
}

func (f Firing) String() string {
	return fmt.Sprintf("%v@%d t=%v", f.Class, f.Index, f.At)
}

// Stats counts injected faults per class.
type Stats struct {
	Fired map[Class]uint64
	// Opportunities counts matching packets/hook calls seen per class,
	// fired or not — the denominator of the injection rate.
	Opportunities map[Class]uint64
}

// eventState is the runtime counter for one plan event.
type eventState struct {
	Event
	fired uint16
}

// Injector executes a Plan against the simulated stack. It is a
// pcie.Tap for link-level faults and exposes hook adapters for the
// device (DeviceFault), crypto engine (CryptoFault) and tag manager
// (TagFault) injection points. All decisions are deterministic: for a
// fixed plan and a fixed traffic sequence the same packets are faulted
// the same way, byte for byte.
type Injector struct {
	mu     sync.Mutex
	events []*eventState
	rand   *sim.Rand

	// clock, when set, gates At-scheduled events and timestamps the
	// firing log.
	clock *sim.Engine
	// match, when set, scopes link-level faults (Corrupt/Drop/Truncate/
	// completion classes) to packets it accepts; other packets are not
	// even counted as opportunities.
	match func(p *pcie.Packet) bool

	idx   map[Class]uint64
	stats Stats
	log   []Firing

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
		rand:  sim.NewRand(p.Seed ^ 0x9e3779b97f4a7c15),
		idx:   make(map[Class]uint64),
		stats: Stats{Fired: make(map[Class]uint64), Opportunities: make(map[Class]uint64)},
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

// SetClock attaches the virtual clock used for At gating and log
// timestamps.
func (inj *Injector) SetClock(clk *sim.Engine) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.clock = clk
}

// SetMatch scopes link-level faults to packets fn accepts. Device,
// crypto and tag hooks are unaffected.
func (inj *Injector) SetMatch(fn func(p *pcie.Packet) bool) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.match = fn
}

// now reports virtual time, or 0 without a clock.
func (inj *Injector) now() sim.Time {
	if inj.clock == nil {
		return 0
	}
	return inj.clock.Now()
}

// fires decides — under inj.mu — whether class fires at this
// opportunity, advancing the per-class match index either way.
func (inj *Injector) fires(class Class) bool {
	i := inj.idx[class]
	inj.idx[class] = i + 1
	inj.stats.Opportunities[class]++
	for _, ev := range inj.events {
		if ev.Class != class || ev.fired >= ev.Count {
			continue
		}
		if uint64(ev.Skip) > i {
			continue
		}
		if ev.At > 0 && inj.clock != nil && inj.now() < sim.Time(ev.At)*sim.Microsecond {
			continue
		}
		ev.fired++
		inj.stats.Fired[class]++
		inj.log = append(inj.log, Firing{Class: class, Index: i, At: inj.now()})
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
	if inj.match != nil && !inj.match(p) {
		return p
	}

	// Completion-word writebacks (batched reaping, ring.go): the SC's
	// 8-byte RingCplValid-tagged MWr into the submission-ring header.
	// No other 8-byte write on the segment carries the top bit — device
	// heads, metadata counters and doorbell values are all small counts.
	if p.Kind == pcie.MWr && len(p.Payload) == 8 &&
		binary.LittleEndian.Uint64(p.Payload)&uint64(core.RingCplValid) != 0 {
		if inj.fires(HeadWritebackLoss) {
			return nil
		}
		if inj.fires(HeadRegress) {
			q := p.Clone()
			head := binary.LittleEndian.Uint64(q.Payload) &^ uint64(core.RingCplValid)
			if head > 0 {
				head--
			}
			binary.LittleEndian.PutUint64(q.Payload, head|uint64(core.RingCplValid))
			return q
		}
		if inj.fires(DuplicateCplBurst) {
			// Withhold this writeback; deliver the previously withheld
			// one (if any) in its place — the producer reaps a duplicate
			// of a completion it already saw while real progress hides.
			prev := inj.cplStash
			inj.cplStash = p.Clone()
			return prev
		}
	}

	if p.Kind == pcie.Cpl || p.Kind == pcie.CplD {
		if inj.fires(DropCompletion) {
			return nil
		}
		if inj.fires(StaleCompletion) {
			// Delay this completion; deliver the previously delayed one
			// (if any) in its place. The requester sees either a timeout
			// (first firing) or a completion whose transaction tag
			// belongs to an older request (subsequent firings).
			prev := inj.stash
			inj.stash = p.Clone()
			return prev
		}
	} else {
		if inj.fires(DropTLP) {
			return nil
		}
	}

	if p.Kind.HasPayload() && len(p.Payload) > 0 {
		if inj.fires(TruncateTLP) {
			q := p.Clone()
			cut := inj.rand.Intn(len(q.Payload))
			q.Payload = q.Payload[:cut]
			q.Length = uint32(cut)
			return q
		}
		if inj.fires(CorruptTLP) {
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
		return inj.fires(DoorbellHang)
	case xpu.FaultMSI:
		return inj.fires(DropMSI)
	}
	return false
}

// CryptoFault is the secmem fault-hook adapter: transient engine
// errors. It fires per engine operation (seal or open).
func (inj *Injector) CryptoFault(string) error {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.fires(CryptoTransient) {
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
		return inj.fires(SchedStall)
	case SchedPointCancel:
		return inj.fires(CancelRace)
	}
	return false
}

// TagFault is the core.TagManager fault-hook adapter: authentication
// tag packets lost in flight.
func (inj *Injector) TagFault(core.TagRecord) bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.fires(TagLoss)
}

// Fired reports how many times class has fired.
func (inj *Injector) Fired(class Class) uint64 {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.stats.Fired[class]
}

// TotalFired reports firings across all classes.
func (inj *Injector) TotalFired() uint64 {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	var n uint64
	for _, v := range inj.stats.Fired {
		n += v
	}
	return n
}

// Log returns a copy of the firing log in order.
func (inj *Injector) Log() []Firing {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return append([]Firing(nil), inj.log...)
}

// Exhausted reports whether every plan event has fired to completion.
func (inj *Injector) Exhausted() bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for _, ev := range inj.events {
		if ev.fired < ev.Count {
			return false
		}
	}
	return true
}
