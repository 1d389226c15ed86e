// Package fault is the deterministic fault-injection layer of the
// simulated ccAI stack. The paper's threat model (§8.2) covers an
// active adversary; this package covers the *benign* failures a
// production PCIe-SC must also survive — link bit errors, lost TLPs,
// completion timeouts, device hangs, lost interrupts, transient crypto
// engine errors, tag-packet loss — without ever weakening the security
// invariants of DESIGN.md §6. A fault may cost retries and latency; it
// must never cost confidentiality, integrity, or freshness.
//
// Everything is seed-replayable: a Plan names each fault by class, by
// the role of the packets it hits (pcie.Role, stamped by the packet's
// sender) and by its ordinal among them, so adding or removing a packet
// of another role moves no fault. An Injector fires the plan's events
// and its firing log records exactly what happened, so a chaos scenario
// can be replayed bit-for-bit in CI.
package fault

import (
	"encoding/binary"
	"fmt"
	"slices"

	"ccai/internal/pcie"
)

// Class identifies one fault class. The zero value is invalid so a
// zeroed Event can never fire. The hook classes run from DoorbellHang to
// CancelRace and the completion-word classes come last; Hook and Aims
// rely on that order.
type Class uint8

const (
	// CorruptTLP flips one payload bit of a matching packet on the
	// untrusted link segment (link bit error below the LCRC residual).
	CorruptTLP Class = iota + 1
	// DropTLP deletes a matching posted packet in flight.
	DropTLP
	// TruncateTLP cuts a matching packet's payload short (malformed
	// TLP; the filter and handlers must fail closed).
	TruncateTLP
	// DropCompletion deletes a completion in flight — the requester
	// observes a completion timeout and must retry or fail closed.
	DropCompletion
	// StaleCompletion delays a completion and delivers it in place of a
	// later one, so the requester sees a completion whose transaction
	// tag does not match its outstanding request (duplicate/stale
	// completion). Accepting it would be a freshness violation.
	StaleCompletion
	// DoorbellHang makes the xPU swallow doorbell rings: the command
	// queue stalls with no error indication (firmware scheduler hang).
	DoorbellHang
	// DropMSI loses the MSI write of an interrupt the device latched.
	DropMSI
	// CryptoTransient injects a recoverable crypto-engine error
	// (secmem.ErrTransient); no IV counter is consumed by the failed
	// operation.
	CryptoTransient
	// TagLoss drops an authentication-tag record on arrival at the
	// Authentication Tag Manager, orphaning its data chunk until the
	// Adaptor reposts the tag table.
	TagLoss
	// SchedStall makes the serving scheduler balk at a dequeue: the
	// claimed request is requeued at the head of its tenant's queue
	// (deficit refunded) and dispatch retries — a scheduling hiccup
	// mid-queue. The request must still execute exactly once, in
	// order, with only added wait time.
	SchedStall
	// CancelRace cancels a request at the exact claim boundary — the
	// adversarial interleaving of a caller's ctx firing the same
	// instant the dispatcher dequeues. The scheduler must settle the
	// race cleanly: the request either completes with a cancellation
	// error without occupying a pipeline slot, or not at all — and
	// neither outcome may perturb any other request's stream state.
	CancelRace
	// HeadWritebackLoss drops the SC's completion-word writeback (the
	// RingCplValid-tagged MWr into the submission-ring header), so the
	// producer reaps a stale head and must re-kick or fall back to the
	// authoritative MMIO read.
	HeadWritebackLoss
	// HeadRegress rewrites a completion-word writeback to carry an
	// older (smaller) head with the valid tag intact — a delayed or
	// reordered writeback. The reaper's monotonicity check must refuse
	// to move backwards and fall through to the MMIO read.
	HeadRegress
	// DuplicateCplBurst holds a completion-word writeback back and
	// re-delivers it in place of a later one — a burst of duplicated
	// completions. The stale duplicate hides device progress; it must
	// cost only re-polls, never a fabricated completion.
	DuplicateCplBurst

	numClasses
)

var classNames = [...]string{
	"invalid", "corrupt-tlp", "drop-tlp", "truncate-tlp", "drop-completion",
	"stale-completion", "doorbell-hang", "drop-msi", "crypto-transient", "tag-loss",
	"sched-stall", "cancel-race",
	"head-writeback-loss", "head-regress", "duplicate-cpl-burst",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Valid reports whether c names a real fault class.
func (c Class) Valid() bool { return c >= CorruptTLP && c < numClasses }

// Classes lists every fault class in declaration order.
func Classes() []Class {
	out := make([]Class, 0, int(numClasses)-1)
	for c := CorruptTLP; c < numClasses; c++ {
		out = append(out, c)
	}
	return out
}

// Hook reports whether c fires at a hook — the device, the crypto
// engine, the tag manager, the scheduler — rather than on a packet. A
// hook class counts its opportunities per class; a link class counts
// them per class and packet role.
func (c Class) Hook() bool { return c >= DoorbellHang && c <= CancelRace }

// readRoles are the roles of the requests that are answered.
var readRoles = []pcie.Role{pcie.RoleRegRead, pcie.RoleSlotFetch, pcie.RoleCommandRun, pcie.RoleH2DData}

// Aims lists the roles an event of class c may name: none for a hook
// class, the completion word for the three completion-word classes, the
// roles of answered requests for the two completion classes, and every
// role for the rest.
func (c Class) Aims() []pcie.Role {
	switch {
	case c.Hook():
		return nil
	case c >= HeadWritebackLoss:
		return []pcie.Role{pcie.RoleCompletionWord}
	case c == DropCompletion || c == StaleCompletion:
		return readRoles
	}
	return pcie.Roles()
}

// Event is one scheduled fault: among the opportunities of Class on
// packets of Role (a hook class names no role), let Skip pass, then fire
// on the next Count.
type Event struct {
	Class Class
	// Role is the packet role a link class fires on; zero for a hook
	// class.
	Role pcie.Role
	// Skip is the number of matching opportunities to let pass
	// unharmed before the event arms.
	Skip uint16
	// Count is how many times the event fires; 0 decodes as 1.
	Count uint16
}

func (e Event) String() string {
	if e.Role == 0 {
		return fmt.Sprintf("%v{skip=%d count=%d}", e.Class, e.Skip, e.Count)
	}
	return fmt.Sprintf("%v/%v{skip=%d count=%d}", e.Class, e.Role, e.Skip, e.Count)
}

// Decoder hard limits: plans are attacker-adjacent input (they ride in
// CI config and fuzz corpora), so the decoder bounds everything.
const (
	// MaxEvents bounds a plan's event list.
	MaxEvents = 64
	// MaxSkip bounds Event.Skip.
	MaxSkip = 4096
	// MaxCount bounds Event.Count.
	MaxCount = 256
)

// Plan is a reproducible chaos scenario: a seed (provenance + payload
// randomness) and an ordered event list.
type Plan struct {
	Seed   uint64
	Events []Event
}

// planMagic/planVersion frame the serialized form.
var planMagic = [4]byte{'F', 'P', 'L', 'N'}

const planVersion = 2

// eventWireSize is the serialized size of one event: class, role, skip,
// count.
const eventWireSize = 1 + 1 + 2 + 2

// Marshal serializes the plan.
func (p Plan) Marshal() []byte {
	buf := make([]byte, 0, 4+1+8+2+len(p.Events)*eventWireSize)
	buf = append(buf, planMagic[:]...)
	buf = append(buf, planVersion)
	buf = binary.LittleEndian.AppendUint64(buf, p.Seed)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(p.Events)))
	for _, e := range p.Events {
		buf = append(buf, byte(e.Class), byte(e.Role))
		buf = binary.LittleEndian.AppendUint16(buf, e.Skip)
		buf = binary.LittleEndian.AppendUint16(buf, e.Count)
	}
	return buf
}

// UnmarshalPlan parses a serialized plan, validating every structural
// invariant; malformed input yields an error, never a partial plan.
func UnmarshalPlan(data []byte) (Plan, error) {
	var p Plan
	if len(data) < 4+1+8+2 {
		return p, fmt.Errorf("fault: plan truncated (%d bytes)", len(data))
	}
	if [4]byte(data[:4]) != planMagic {
		return p, fmt.Errorf("fault: bad plan magic %q", data[:4])
	}
	if data[4] != planVersion {
		return p, fmt.Errorf("fault: unsupported plan version %d", data[4])
	}
	p.Seed = binary.LittleEndian.Uint64(data[5:13])
	n := int(binary.LittleEndian.Uint16(data[13:15]))
	if n > MaxEvents {
		return Plan{}, fmt.Errorf("fault: %d events exceeds limit %d", n, MaxEvents)
	}
	body := data[15:]
	if len(body) != n*eventWireSize {
		return Plan{}, fmt.Errorf("fault: event section is %d bytes, want %d", len(body), n*eventWireSize)
	}
	if n > 0 {
		p.Events = make([]Event, 0, n)
	}
	for i := 0; i < n; i++ {
		off := i * eventWireSize
		e := Event{
			Class: Class(body[off]),
			Role:  pcie.Role(body[off+1]),
			Skip:  binary.LittleEndian.Uint16(body[off+2:]),
			Count: binary.LittleEndian.Uint16(body[off+4:]),
		}
		if !e.Class.Valid() {
			return Plan{}, fmt.Errorf("fault: event %d has invalid class %d", i, body[off])
		}
		// A hook class names no role, a link class one of its Aims.
		if aims := e.Class.Aims(); !slices.Contains(aims, e.Role) && (len(aims) > 0 || e.Role != 0) {
			return Plan{}, fmt.Errorf("fault: event %d: %v cannot aim at role %d", i, e.Class, body[off+1])
		}
		if e.Count == 0 {
			e.Count = 1
		}
		if e.Skip > MaxSkip || e.Count > MaxCount {
			return Plan{}, fmt.Errorf("fault: event %d out of bounds (%v)", i, e)
		}
		p.Events = append(p.Events, e)
	}
	return p, nil
}

// Single is the one-event plan: the workhorse of the fault×invariant
// matrix, where each cell injects exactly one class deterministically.
// role is zero for a hook class.
func Single(seed uint64, class Class, role pcie.Role, skip, count int) Plan {
	return Plan{Seed: seed, Events: []Event{{
		Class: class, Role: role, Skip: uint16(skip), Count: uint16(count),
	}}}
}
