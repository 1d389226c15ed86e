package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"ccai/internal/obsv"
	"ccai/internal/pcie"
)

// Mask selects which header attributes an L1 rule compares, mirroring
// the paper's 16-bit Mask field (§4.1): set bits are checked, clear
// bits are wildcards. The mask is the mechanism that avoids
// "over-engineering (preparing all rules for each xPU/TVM)" while still
// defending every attribute against tampering.
type Mask uint16

const (
	// MatchKind compares the packet type (combined format + memory
	// access attributes, §7.2).
	MatchKind Mask = 1 << iota
	// MatchRequester compares the requester routing ID.
	MatchRequester
	// MatchCompleter compares the completer routing ID.
	MatchCompleter
	// MatchAddr compares the address against [AddrLo, AddrHi).
	MatchAddr
	// MatchTC compares the traffic class.
	MatchTC
)

// Rule is one Packet Filter entry, usable in the L1 table (mask-based
// coarse screening, verdict drop-or-descend) or the L2 table (exact
// classification into a security action).
type Rule struct {
	ID        uint16
	Mask      Mask
	Kind      pcie.Kind
	Requester pcie.ID
	Completer pcie.ID
	AddrLo    uint64
	AddrHi    uint64
	TC        uint8
	Action    Action
}

// Matches reports whether the packet satisfies every masked field.
func (r Rule) Matches(p *pcie.Packet) bool {
	if r.Mask&MatchKind != 0 && p.Kind != r.Kind {
		return false
	}
	if r.Mask&MatchRequester != 0 && p.Requester != r.Requester {
		return false
	}
	if r.Mask&MatchCompleter != 0 && p.Completer != r.Completer {
		return false
	}
	if r.Mask&MatchAddr != 0 && (p.Address < r.AddrLo || p.Address >= r.AddrHi) {
		return false
	}
	if r.Mask&MatchTC != 0 && p.TC != r.TC {
		return false
	}
	return true
}

func (r Rule) String() string {
	return fmt.Sprintf("rule %d mask=%05b kind=%v req=%v cpl=%v addr=[%#x,%#x) -> %v",
		r.ID, r.Mask, r.Kind, r.Requester, r.Completer, r.AddrLo, r.AddrHi, r.Action)
}

// RuleSize is the serialized policy size: 32 bytes per policy (§7.2).
const RuleSize = 32

// Marshal encodes the rule into its 32-byte policy format.
func (r Rule) Marshal() []byte {
	buf := make([]byte, RuleSize)
	binary.LittleEndian.PutUint16(buf[0:], r.ID)
	binary.LittleEndian.PutUint16(buf[2:], uint16(r.Mask))
	buf[4] = uint8(r.Kind)
	buf[5] = r.TC
	buf[6] = uint8(r.Action)
	binary.LittleEndian.PutUint16(buf[8:], uint16(r.Requester))
	binary.LittleEndian.PutUint16(buf[10:], uint16(r.Completer))
	binary.LittleEndian.PutUint64(buf[12:], r.AddrLo)
	binary.LittleEndian.PutUint64(buf[20:], r.AddrHi)
	return buf
}

// UnmarshalRule decodes a 32-byte policy.
func UnmarshalRule(buf []byte) (Rule, error) {
	if len(buf) < RuleSize {
		return Rule{}, fmt.Errorf("core: policy blob too short (%d bytes)", len(buf))
	}
	r := Rule{
		ID:        binary.LittleEndian.Uint16(buf[0:]),
		Mask:      Mask(binary.LittleEndian.Uint16(buf[2:])),
		Kind:      pcie.Kind(buf[4]),
		TC:        buf[5],
		Action:    Action(buf[6]),
		Requester: pcie.ID(binary.LittleEndian.Uint16(buf[8:])),
		Completer: pcie.ID(binary.LittleEndian.Uint16(buf[10:])),
		AddrLo:    binary.LittleEndian.Uint64(buf[12:]),
		AddrHi:    binary.LittleEndian.Uint64(buf[20:]),
	}
	if r.Action < ActionDrop || r.Action > actionToL2 {
		return Rule{}, fmt.Errorf("core: policy %d has invalid action %d", r.ID, buf[6])
	}
	return r, nil
}

// Verdict is the filter's decision for one packet.
type Verdict struct {
	Action Action
	// Rule identifies the matching rule (L2 when Action is a final
	// classification reached via L2, otherwise L1).
	Rule uint16
	// Stage is 1 or 2, naming the deciding table.
	Stage int
}

// FilterStats counts classifications per action for the trace tooling
// and the RQ2 security tests.
type FilterStats struct {
	Dropped, Protected, Verified, Passed uint64
}

// Filter is the two-stage Packet Filter of Figure 5. The L1 table
// screens with masked matches (first match wins; no match ⇒ drop); an
// L1 verdict of actionToL2 descends into the L2 table for fine-grained
// classification (first match wins; no match ⇒ drop, fail-closed).
//
// Rules are read-mostly, so Classify runs lock-free against an
// immutable copy-on-write snapshot — the same pattern pcie.Bus uses
// for routing state. InstallL1/InstallL2/Clear rebuild and publish a
// fresh snapshot under the mutation mutex; in-flight classifications
// keep the snapshot they loaded. Each snapshot carries its own
// (kind, requester) verdict memo, so a rule change can never serve a
// stale cached verdict. Stats are plain atomics.
type Filter struct {
	mu    sync.Mutex // serializes mutations only; Classify never takes it
	state atomic.Pointer[filterState]
	stats filterCounters
	obs   atomic.Pointer[filterObs]
}

// filterState is one immutable rule snapshot plus its verdict memo.
type filterState struct {
	l1, l2 []Rule
	memo   l1Memo
}

// filterCounters is FilterStats with atomic fields.
type filterCounters struct {
	dropped, protected, verified, passed atomic.Uint64
}

// l1Memo caches terminal L1 verdicts for (kind, requester) classes
// whose outcome provably depends on nothing else: a verdict is stored
// only when every rule examined on the way to the decision matched
// (or failed to match) purely on MatchKind|MatchRequester and the
// decision did not descend into L2. Each entry packs key and verdict
// into one word, so lookups are a single atomic load. Collisions
// overwrite — the memo is an accelerator, never an authority.
type l1Memo struct {
	entries [memoSlots]atomic.Uint64
}

const memoSlots = 64

// memo word layout: [63] valid | [32..55] key (kind<<16 | requester) |
// [16..31] rule ID | [8..11] stage | [0..7] action.
func memoKey(kind pcie.Kind, req pcie.ID) uint32 {
	return uint32(kind)<<16 | uint32(req)
}

func memoSlot(key uint32) int {
	h := key * 2654435761 // Knuth multiplicative hash
	return int(h>>26) % memoSlots
}

func (m *l1Memo) lookup(key uint32) (Verdict, bool) {
	w := m.entries[memoSlot(key)].Load()
	if w>>63 == 0 || uint32(w>>32)&0xffffff != key {
		return Verdict{}, false
	}
	return Verdict{
		Action: Action(w & 0xff),
		Rule:   uint16(w >> 16),
		Stage:  int(w>>8) & 0xf,
	}, true
}

func (m *l1Memo) store(key uint32, v Verdict) {
	w := uint64(1)<<63 | uint64(key&0xffffff)<<32 |
		uint64(v.Rule)<<16 | uint64(v.Stage&0xf)<<8 | uint64(uint8(v.Action))
	m.entries[memoSlot(key)].Store(w)
}

// filterObs caches the tracer and the hub rogue-traffic events go to.
// Only header metadata (kind, action, rule ID, stage) is ever recorded.
type filterObs struct {
	tracer *obsv.Tracer
	hub    *obsv.Hub
}

// actionLabel renders an action as a metric-label token.
func actionLabel(a Action) string {
	switch a {
	case ActionDrop:
		return "A1_drop"
	case ActionWriteReadProtect:
		return "A2_write_read_protect"
	case ActionWriteProtect:
		return "A3_write_protect"
	case ActionPassThrough:
		return "A4_pass_through"
	}
	return "unknown"
}

// SetObserver instruments the filter: the hub's registry reads the
// per-action counts Stats returns, as sc.filter.classified{action=…}.
// A nil hub stops the tracing and the events; a registry keeps its
// reads.
func (f *Filter) SetObserver(h *obsv.Hub) {
	if h == nil {
		f.obs.Store(nil)
		return
	}
	f.obs.Store(&filterObs{tracer: h.T(), hub: h})
	for a, v := range map[Action]*atomic.Uint64{
		ActionDrop:             &f.stats.dropped,
		ActionWriteReadProtect: &f.stats.protected,
		ActionWriteProtect:     &f.stats.verified,
		ActionPassThrough:      &f.stats.passed,
	} {
		h.Reg().CounterFunc(obsv.Name("sc.filter.classified", "action", actionLabel(a)), v.Load)
	}
}

// NewFilter returns an empty, fail-closed filter: with no rules
// installed every packet is Prohibited.
func NewFilter() *Filter {
	f := &Filter{}
	f.state.Store(&filterState{})
	return f
}

// mutate rebuilds the rule snapshot under the mutation lock and
// publishes it with a fresh (empty) memo.
func (f *Filter) mutate(fn func(s *filterState)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	old := f.state.Load()
	next := &filterState{
		l1: append([]Rule(nil), old.l1...),
		l2: append([]Rule(nil), old.l2...),
	}
	fn(next)
	f.state.Store(next)
}

// InstallL1 appends a rule to the L1 table.
func (f *Filter) InstallL1(r Rule) {
	f.mutate(func(s *filterState) { s.l1 = append(s.l1, r) })
}

// InstallL2 appends a rule to the L2 table.
func (f *Filter) InstallL2(r Rule) {
	f.mutate(func(s *filterState) { s.l2 = append(s.l2, r) })
}

// RuleCount reports installed rules per table.
func (f *Filter) RuleCount() (l1, l2 int) {
	s := f.state.Load()
	return len(s.l1), len(s.l2)
}

// Stats reports cumulative classification counts.
func (f *Filter) Stats() FilterStats {
	return FilterStats{
		Dropped:   f.stats.dropped.Load(),
		Protected: f.stats.protected.Load(),
		Verified:  f.stats.verified.Load(),
		Passed:    f.stats.passed.Load(),
	}
}

// kindRequesterOnly reports whether the rule's match outcome depends
// only on (kind, requester) — the memo key. Rules with any other masked
// field (address, completer, TC) make a packet-class verdict
// uncacheable, because two packets in the same (kind, requester) class
// could diverge on those fields.
func kindRequesterOnly(r Rule) bool {
	return r.Mask&^(MatchKind|MatchRequester) == 0
}

// Classify runs the packet through L1 then (if directed) L2 and returns
// the verdict. Unmatched packets are dropped at either stage: the
// filter is fail-closed, which is what blocks requests from
// unauthorized TVMs, hosts or peer devices (§8.2).
//
// Classify is lock-free: it loads the current rule snapshot once and
// classifies against it. A concurrent Install/Clear publishes a new
// snapshot; this call keeps the one it loaded, exactly like a packet
// that hit the hardware filter one cycle before the table update.
func (f *Filter) Classify(p *pcie.Packet) Verdict { return f.classify(p, true) }

// classify is Classify with the packet's own classify span optional:
// the controller passes span=false for a TLP it accounts in an
// aggregate span instead (Controller.HandleFromDevice). Stats and the
// rogue event cover every packet either way.
func (f *Filter) classify(p *pcie.Packet, span bool) Verdict {
	s := f.state.Load()
	o := f.obs.Load()
	var sp obsv.ActiveSpan
	if o != nil && span {
		sp = o.tracer.Start(siteClassify, keyKind.Str(kindSym(p.Kind)), keyAddr.Hex(p.Address))
	}
	key := memoKey(p.Kind, p.Requester)
	v, hit := s.memo.lookup(key)
	if !hit {
		var cacheable bool
		v, cacheable = s.classify(p)
		if cacheable {
			s.memo.store(key, v)
		}
	}
	switch v.Action {
	case ActionDrop:
		f.stats.dropped.Add(1)
	case ActionWriteReadProtect:
		f.stats.protected.Add(1)
	case ActionWriteProtect:
		f.stats.verified.Add(1)
	case ActionPassThrough:
		f.stats.passed.Add(1)
	}
	if o != nil {
		if v.Action == ActionDrop && o.hub.EventsOn() {
			o.hub.Eventf(obsv.EvRogue, "", "requester=%04x kind=%s rule=%d stage=%d",
				uint16(p.Requester), p.Kind.String(), v.Rule, v.Stage)
		}
		sp.Set(keyAction.Str(actionSym(v.Action)), keyRule.U64(uint64(v.Rule)), keyStage.I64(int64(v.Stage)))
		sp.End()
	}
	return v
}

// traceVerdict records the classify span of a packet classified
// without one, once it is known not to reach the aggregate span that
// would have accounted it.
func (f *Filter) traceVerdict(p *pcie.Packet, v Verdict) {
	if o := f.obs.Load(); o != nil {
		sp := o.tracer.Start(siteClassify, keyKind.Str(kindSym(p.Kind)), keyAddr.Hex(p.Address),
			keyAction.Str(actionSym(v.Action)), keyRule.U64(uint64(v.Rule)), keyStage.I64(int64(v.Stage)))
		sp.End()
	}
}

// classify walks the snapshot's tables. The second return reports
// whether the verdict is memoizable for the packet's (kind, requester)
// class: true only when every rule examined on the way to the decision
// matched (or missed) purely on kind/requester, and the decision ended
// in L1 (terminal action or drop-on-no-match) without descending into
// L2 — L2 rules classify on addresses, so their verdicts never cache.
func (s *filterState) classify(p *pcie.Packet) (Verdict, bool) {
	cacheable := true
	for _, r := range s.l1 {
		if !r.Matches(p) {
			if !kindRequesterOnly(r) {
				cacheable = false
			}
			continue
		}
		if r.Action != actionToL2 {
			return Verdict{Action: r.Action, Rule: r.ID, Stage: 1},
				cacheable && kindRequesterOnly(r)
		}
		for _, r2 := range s.l2 {
			if r2.Matches(p) {
				return Verdict{Action: r2.Action, Rule: r2.ID, Stage: 2}, false
			}
		}
		return Verdict{Action: ActionDrop, Stage: 2}, false // fail closed in L2
	}
	return Verdict{Action: ActionDrop, Stage: 1}, cacheable // fail closed in L1
}

// L1Screen builds the standard L1 rule pair admitting memory
// read/write requests from an authorized requester for deeper L2
// inspection (Figure 5 ①).
func L1Screen(id uint16, requester pcie.ID) []Rule {
	return []Rule{
		{ID: id, Mask: MatchKind | MatchRequester, Kind: pcie.MWr, Requester: requester, Action: actionToL2},
		{ID: id + 1, Mask: MatchKind | MatchRequester, Kind: pcie.MRd, Requester: requester, Action: actionToL2},
		{ID: id + 2, Mask: MatchKind | MatchRequester, Kind: pcie.CplD, Requester: requester, Action: actionToL2},
		{ID: id + 3, Mask: MatchKind | MatchRequester, Kind: pcie.Cpl, Requester: requester, Action: actionToL2},
	}
}
