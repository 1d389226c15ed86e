package core

import (
	"testing"
	"testing/quick"

	"ccai/internal/pcie"
)

var (
	tvmID   = pcie.MakeID(0, 1, 0)
	rogueID = pcie.MakeID(0, 9, 0)
	xpuID   = pcie.MakeID(2, 0, 0)
)

// paperFilter builds the Figure 5 example tables: TVM memory requests
// descend to L2; L2 classifies command writes to ccAI hardware as A2,
// command writes to the xPU as A3, data writes as A2, command reads as
// A4; everything else drops.
func paperFilter() *Filter {
	f := NewFilter()
	for _, r := range L1Screen(1, tvmID) {
		f.InstallL1(r)
	}
	f.InstallL2(Rule{ID: 1, Mask: MatchKind | MatchRequester | MatchAddr,
		Kind: pcie.MWr, Requester: tvmID, AddrLo: 0x6000, AddrHi: 0x7000, Action: ActionWriteReadProtect})
	f.InstallL2(Rule{ID: 2, Mask: MatchKind | MatchRequester | MatchAddr,
		Kind: pcie.MWr, Requester: tvmID, AddrLo: 0x8000, AddrHi: 0x9000, Action: ActionWriteProtect})
	f.InstallL2(Rule{ID: 3, Mask: MatchKind | MatchRequester | MatchAddr,
		Kind: pcie.MWr, Requester: tvmID, AddrLo: 0x1000, AddrHi: 0x5000, Action: ActionWriteReadProtect})
	f.InstallL2(Rule{ID: 4, Mask: MatchKind | MatchRequester | MatchAddr,
		Kind: pcie.MRd, Requester: tvmID, AddrLo: 0x1000, AddrHi: 0x5000, Action: ActionPassThrough})
	return f
}

func TestFilterFailClosedWhenEmpty(t *testing.T) {
	f := NewFilter()
	v := f.Classify(pcie.NewMemWrite(tvmID, 0x1000, []byte{1}))
	if v.Action != ActionDrop || v.Stage != 1 {
		t.Fatalf("empty filter verdict = %+v", v)
	}
}

func TestFilterTable1Categorization(t *testing.T) {
	f := paperFilter()
	cases := []struct {
		name string
		pkt  *pcie.Packet
		want Action
	}{
		{"cmd to ccAI HW", pcie.NewMemWrite(tvmID, 0x6100, []byte("cmd")), ActionWriteReadProtect},
		{"cmd to xPU", pcie.NewMemWrite(tvmID, 0x8010, []byte("db")), ActionWriteProtect},
		{"data write", pcie.NewMemWrite(tvmID, 0x2000, []byte("data")), ActionWriteReadProtect},
		{"cmd read", pcie.NewMemRead(tvmID, 0x2000, 64, 0), ActionPassThrough},
		{"rogue write", pcie.NewMemWrite(rogueID, 0x2000, []byte("evil")), ActionDrop},
		{"rogue read", pcie.NewMemRead(rogueID, 0x2000, 64, 0), ActionDrop},
		{"unmapped addr", pcie.NewMemWrite(tvmID, 0xdead0, []byte("x")), ActionDrop},
	}
	for _, c := range cases {
		if v := f.Classify(c.pkt); v.Action != c.want {
			t.Errorf("%s: got %v, want %v", c.name, v.Action, c.want)
		}
	}
	st := f.Stats()
	if st.Dropped != 3 || st.Protected != 2 || st.Verified != 1 || st.Passed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFilterL2FailClosed(t *testing.T) {
	f := paperFilter()
	// Authorized requester, authorized kind, but address outside every
	// L2 rule: must drop at stage 2.
	v := f.Classify(pcie.NewMemWrite(tvmID, 0xf000, []byte{1}))
	if v.Action != ActionDrop || v.Stage != 2 {
		t.Fatalf("verdict = %+v, want stage-2 drop", v)
	}
}

func TestFilterFirstMatchWins(t *testing.T) {
	f := NewFilter()
	f.InstallL1(Rule{ID: 1, Mask: MatchKind, Kind: pcie.MWr, Action: ActionPassThrough})
	f.InstallL1(Rule{ID: 2, Mask: MatchKind, Kind: pcie.MWr, Action: ActionDrop})
	v := f.Classify(pcie.NewMemWrite(tvmID, 0, []byte{1}))
	if v.Rule != 1 || v.Action != ActionPassThrough {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestMaskWildcards(t *testing.T) {
	r := Rule{Mask: MatchKind, Kind: pcie.MWr, Requester: tvmID}
	// Requester not masked: any requester matches.
	if !r.Matches(pcie.NewMemWrite(rogueID, 0, []byte{1})) {
		t.Fatal("unmasked field compared")
	}
	r.Mask |= MatchRequester
	if r.Matches(pcie.NewMemWrite(rogueID, 0, []byte{1})) {
		t.Fatal("masked field ignored")
	}
}

func TestMaskAddressBounds(t *testing.T) {
	r := Rule{Mask: MatchAddr, AddrLo: 0x1000, AddrHi: 0x2000}
	if !r.Matches(pcie.NewMemWrite(tvmID, 0x1000, []byte{1})) {
		t.Fatal("inclusive lower bound broken")
	}
	if r.Matches(pcie.NewMemWrite(tvmID, 0x2000, []byte{1})) {
		t.Fatal("exclusive upper bound broken")
	}
}

func TestRuleMarshalRoundTrip(t *testing.T) {
	r := Rule{
		ID: 7, Mask: MatchKind | MatchAddr | MatchTC, Kind: pcie.MRd,
		Requester: tvmID, Completer: xpuID,
		AddrLo: 0x1_0000_0000, AddrHi: 0x2_0000_0000, TC: 3, Action: ActionWriteProtect,
	}
	got, err := UnmarshalRule(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Fatalf("round trip: %+v vs %+v", got, r)
	}
}

func TestRuleUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalRule(make([]byte, 10)); err == nil {
		t.Fatal("short blob accepted")
	}
	bad := Rule{ID: 1, Action: ActionDrop}.Marshal()
	bad[6] = 0xee // invalid action
	if _, err := UnmarshalRule(bad); err == nil {
		t.Fatal("invalid action accepted")
	}
}

// Property: rule marshaling round-trips for arbitrary field values.
func TestRuleMarshalProperty(t *testing.T) {
	f := func(id, mask, req, cpl uint16, lo, hi uint64, tc uint8) bool {
		r := Rule{
			ID: id, Mask: Mask(mask) & 0x1f, Kind: pcie.MWr,
			Requester: pcie.ID(req), Completer: pcie.ID(cpl),
			AddrLo: lo, AddrHi: hi, TC: tc, Action: ActionWriteReadProtect,
		}
		got, err := UnmarshalRule(r.Marshal())
		return err == nil && got == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPermissionActionMapping(t *testing.T) {
	want := map[Permission]Action{
		Prohibited:         ActionDrop,
		WriteReadProtected: ActionWriteReadProtect,
		WriteProtected:     ActionWriteProtect,
		FullAccessible:     ActionPassThrough,
	}
	for p, a := range want {
		if p.Action() != a {
			t.Errorf("%v -> %v, want %v", p, p.Action(), a)
		}
	}
}

// TestFilterClear: a filter whose tables are emptied, through the write
// path every install takes, holds no rule and fails closed.
func TestFilterClear(t *testing.T) {
	f := paperFilter()
	f.mutate(func(s *filterState) { s.l1, s.l2 = nil, nil })
	l1, l2 := f.RuleCount()
	if l1 != 0 || l2 != 0 {
		t.Fatal("emptied filter kept rules")
	}
	if v := f.Classify(pcie.NewMemWrite(tvmID, 0x2000, []byte{1})); v.Action != ActionDrop {
		t.Fatal("emptied filter not fail-closed")
	}
}

// Property: the filter never returns actionToL2 to callers.
func TestFilterNeverLeaksInternalVerdict(t *testing.T) {
	f := paperFilter()
	g := func(kind uint8, req uint16, addr uint64) bool {
		p := &pcie.Packet{Header: pcie.Header{
			Kind: pcie.Kind(kind % 8), Requester: pcie.ID(req), Address: addr,
		}}
		v := f.Classify(p)
		return v.Action != actionToL2
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// --- lock-free snapshot + verdict memo (DESIGN.md §10) ----------------------

// TestFilterMemoHitMatchesCold: for a (kind, requester)-pure verdict
// the second classification comes from the memo; it must be identical
// to the cold one, and stats must count both.
func TestFilterMemoHitMatchesCold(t *testing.T) {
	f := NewFilter()
	f.InstallL1(Rule{ID: 5, Mask: MatchKind | MatchRequester,
		Kind: pcie.MWr, Requester: tvmID, Action: ActionPassThrough})
	p := pcie.NewMemWrite(tvmID, 0x1234, []byte{1})
	cold := f.Classify(p)
	warm := f.Classify(p)
	if cold != warm {
		t.Fatalf("memoized verdict %+v diverges from cold %+v", warm, cold)
	}
	if got := f.Stats().Passed; got != 2 {
		t.Fatalf("Passed = %d, want 2 (memo hits must still count)", got)
	}
}

// TestFilterMemoInvalidatedByInstall: rule mutations publish a fresh
// snapshot with an empty memo, so a cached verdict can never outlive
// the rules that produced it.
func TestFilterMemoInvalidatedByInstall(t *testing.T) {
	f := NewFilter()
	f.InstallL1(Rule{ID: 1, Mask: MatchKind | MatchRequester,
		Kind: pcie.MWr, Requester: tvmID, Action: ActionPassThrough})
	p := pcie.NewMemWrite(tvmID, 0x1000, []byte{1})
	if v := f.Classify(p); v.Action != ActionPassThrough {
		t.Fatalf("pre-mutation verdict = %+v", v)
	}
	f.Classify(p) // ensure the verdict is memoized before mutating

	// Emptying the tables is the strongest mutation: the empty table
	// fail-closes.
	f.mutate(func(s *filterState) { s.l1, s.l2 = nil, nil })
	if v := f.Classify(p); v.Action != ActionDrop {
		t.Fatalf("stale memo served after emptying: %+v", v)
	}
	f.InstallL1(Rule{ID: 2, Mask: MatchKind | MatchRequester,
		Kind: pcie.MWr, Requester: tvmID, Action: ActionWriteReadProtect})
	if v := f.Classify(p); v.Action != ActionWriteReadProtect {
		t.Fatalf("stale memo served after reinstall: %+v", v)
	}
}

// TestFilterMemoNeverCachesAddressDependentVerdicts: two packets in
// the same (kind, requester) class but different addresses must be
// classified independently whenever any examined rule matches on more
// than kind/requester — the memo may only serve verdicts that provably
// depend on the memo key alone.
func TestFilterMemoNeverCachesAddressDependentVerdicts(t *testing.T) {
	f := paperFilter() // L2 rules classify by address
	in := f.Classify(pcie.NewMemWrite(tvmID, 0x6100, []byte{1}))
	if in.Action != ActionWriteReadProtect {
		t.Fatalf("in-window write = %+v", in)
	}
	out := f.Classify(pcie.NewMemWrite(tvmID, 0xf000, []byte{1}))
	if out.Action != ActionDrop {
		t.Fatalf("out-of-window write = %+v (address-dependent verdict cached?)", out)
	}

	// Same with an address-masked L1 rule: the miss path examines it,
	// so even a terminal kind/requester verdict for that class must not
	// cache across addresses.
	g := NewFilter()
	g.InstallL1(Rule{ID: 1, Mask: MatchKind | MatchRequester | MatchAddr,
		Kind: pcie.MRd, Requester: tvmID, AddrLo: 0x1000, AddrHi: 0x2000, Action: ActionPassThrough})
	if v := g.Classify(pcie.NewMemRead(tvmID, 0x1800, 8, 0)); v.Action != ActionPassThrough {
		t.Fatalf("in-range read = %+v", v)
	}
	if v := g.Classify(pcie.NewMemRead(tvmID, 0x9000, 8, 0)); v.Action != ActionDrop {
		t.Fatalf("out-of-range read = %+v", v)
	}
}

// TestFilterConcurrentClassifyAndMutate hammers lock-free Classify
// against concurrent empty/Install cycles. Run under -race; the
// assertions pin the COW contract — a classification sees some
// complete snapshot, never a torn table, and the final state serves
// the final rules.
func TestFilterConcurrentClassifyAndMutate(t *testing.T) {
	f := NewFilter()
	f.InstallL1(Rule{ID: 1, Mask: MatchKind | MatchRequester,
		Kind: pcie.MWr, Requester: tvmID, Action: ActionPassThrough})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			f.mutate(func(s *filterState) { s.l1, s.l2 = nil, nil })
			f.InstallL1(Rule{ID: uint16(i), Mask: MatchKind | MatchRequester,
				Kind: pcie.MWr, Requester: tvmID, Action: ActionPassThrough})
		}
	}()
	p := pcie.NewMemWrite(tvmID, 0x1000, []byte{1})
	for i := 0; i < 20000; i++ {
		v := f.Classify(p)
		// Mid-mutation a packet may land on the cleared snapshot (drop,
		// fail-closed) or the rule (pass) — never anything else.
		if v.Action != ActionPassThrough && v.Action != ActionDrop {
			t.Fatalf("torn verdict under concurrent mutation: %+v", v)
		}
	}
	close(stop)
	<-done
	if v := f.Classify(p); v.Action != ActionPassThrough {
		t.Fatalf("final verdict = %+v", v)
	}
}
