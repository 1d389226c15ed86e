package fault

import (
	"bytes"
	"reflect"
	"testing"

	"ccai/internal/pcie"
	"ccai/internal/xpu"
)

func TestPlanRoundTrip(t *testing.T) {
	for _, p := range []Plan{
		{Seed: 0},
		{Seed: 42, Events: []Event{{Class: CorruptTLP, Role: pcie.RoleSlotFetch, Skip: 3, Count: 2}}},
		{Seed: 7, Events: []Event{
			{Class: DropTLP, Role: pcie.RoleRingDoorbell, Count: 0},
			{Class: HeadRegress, Role: pcie.RoleCompletionWord, Skip: 1, Count: MaxCount},
			{Class: DoorbellHang, Skip: MaxSkip, Count: 1},
		}},
		Plan{Seed: 9, Events: []Event{{Class: TagLoss, Skip: 1, Count: 4}}},
	} {
		got, err := UnmarshalPlan(p.Marshal())
		if err != nil {
			t.Fatalf("unmarshal(%v): %v", p, err)
		}
		// Count==0 normalizes to 1 on decode.
		want := p
		want.Events = append([]Event(nil), p.Events...)
		for i := range want.Events {
			if want.Events[i].Count == 0 {
				want.Events[i].Count = 1
			}
		}
		if got.Seed != want.Seed || !reflect.DeepEqual(got.Events, want.Events) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestUnmarshalRejectsMalformed(t *testing.T) {
	good := Plan{Seed: 1, Events: []Event{{Class: DropTLP, Role: pcie.RoleH2DData, Count: 1}}}.Marshal()
	hook := Plan{Seed: 1, Events: []Event{{Class: TagLoss, Count: 1}}}.Marshal()
	set := func(b []byte, i int, v byte) []byte { b = bytes.Clone(b); b[i] = v; return b }
	cases := map[string][]byte{
		"empty":                 nil,
		"short":                 good[:8],
		"bad magic":             append([]byte("XXXX"), good[4:]...),
		"bad version":           set(good, 4, 99),
		"version 1":             set(good, 4, 1),
		"bad class":             set(good, 15, 0),
		"class high":            set(good, 15, byte(numClasses)),
		"link class, no role":   set(good, 16, 0),
		"hook class with role":  set(hook, 16, byte(pcie.RoleMSI)),
		"role out of range":     set(good, 16, byte(len(pcie.Roles())+1)),
		"completion word aimed": set(set(good, 15, byte(HeadRegress)), 16, byte(pcie.RoleSlotFetch)),
		"completion of a write": set(set(good, 15, byte(DropCompletion)), 16, byte(pcie.RoleD2HData)),
		"body surplus":          append(bytes.Clone(good), 0xff),
		"count claim": func() []byte {
			b := bytes.Clone(good)
			b[13], b[14] = 0xff, 0xff // claim 65535 events, supply one
			return b
		}(),
	}
	for name, data := range cases {
		if _, err := UnmarshalPlan(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// trafficMWr is the i-th D2H data write of a fixed traffic sequence.
func trafficMWr(i int) *pcie.Packet {
	return pcie.NewMemWrite(pcie.MakeID(0, 8, 0), 0x8000_0000+uint64(i)*64, bytes.Repeat([]byte{byte(i)}, 64)).WithRole(pcie.RoleD2HData)
}

func TestInjectorSkipCountSemantics(t *testing.T) {
	inj := NewInjector(Plan{Seed: 5, Events: []Event{{Class: DropTLP, Role: pcie.RoleD2HData, Skip: 2, Count: 2}}})
	var dropped []int
	for i := 0; i < 8; i++ {
		if inj.Tap(trafficMWr(i)) == nil {
			dropped = append(dropped, i)
		}
	}
	// Skip=2: packets 0,1 pass; Count=2: packets 2,3 dropped; rest pass.
	if !reflect.DeepEqual(dropped, []int{2, 3}) {
		t.Fatalf("dropped %v, want [2 3]", dropped)
	}
	if uint64(len(inj.Log())) != 2 {
		t.Fatalf("fired %d times, want 2", uint64(len(inj.Log())))
	}
}

func TestInjectorDeterministicReplay(t *testing.T) {
	plan := Plan{Seed: 99, Events: []Event{
		{Class: CorruptTLP, Role: pcie.RoleD2HData, Skip: 3, Count: 2},
		{Class: TruncateTLP, Role: pcie.RoleD2HData, Skip: 1, Count: 3},
		{Class: DropTLP, Role: pcie.RoleD2HData, Skip: 6, Count: 1},
		{Class: CorruptTLP, Role: pcie.RoleD2HData, Skip: 20, Count: 4},
	}}
	run := func() ([][]byte, []Firing) {
		inj := NewInjector(plan)
		var out [][]byte
		for i := 0; i < 40; i++ {
			p := inj.Tap(trafficMWr(i))
			if p == nil {
				out = append(out, nil)
				continue
			}
			out = append(out, bytes.Clone(p.Payload))
		}
		return out, inj.Log()
	}
	o1, l1 := run()
	o2, l2 := run()
	if !reflect.DeepEqual(o1, o2) {
		t.Fatal("same plan + same traffic produced different packet mutations")
	}
	if !reflect.DeepEqual(l1, l2) {
		t.Fatalf("firing logs differ:\n%v\n%v", l1, l2)
	}
	if len(l1) == 0 {
		t.Fatal("plan never fired")
	}
}

func TestInjectorCorruptFlipsExactlyOneBit(t *testing.T) {
	inj := NewInjector(Plan{Seed: 3, Events: []Event{{Class: CorruptTLP, Role: pcie.RoleD2HData, Count: 1}}})
	orig := trafficMWr(0)
	got := inj.Tap(orig.Clone())
	if got == nil {
		t.Fatal("corrupt must not drop")
	}
	diff := 0
	for i := range orig.Payload {
		x := orig.Payload[i] ^ got.Payload[i]
		for ; x != 0; x &= x - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("flipped %d bits, want exactly 1", diff)
	}
}

func TestInjectorTruncateShortens(t *testing.T) {
	inj := NewInjector(Plan{Seed: 8, Events: []Event{{Class: TruncateTLP, Role: pcie.RoleD2HData, Count: 1}}})
	got := inj.Tap(trafficMWr(0))
	if got == nil {
		t.Fatal("truncate must not drop")
	}
	if len(got.Payload) >= 64 || got.Length != uint32(len(got.Payload)) {
		t.Fatalf("payload %d bytes (len field %d), want shorter than 64 and consistent", len(got.Payload), got.Length)
	}
}

func TestInjectorCompletionClasses(t *testing.T) {
	req := pcie.NewMemRead(pcie.MakeID(0, 8, 0), 0x8000_0000, 64, 7).WithRole(pcie.RoleH2DData)
	mk := func(tag uint8, fill byte) *pcie.Packet {
		r := req.Clone()
		r.Tag = tag
		return pcie.NewCompletion(r, pcie.MakeID(0, 2, 0), pcie.CplSuccess, bytes.Repeat([]byte{fill}, 64))
	}

	inj := NewInjector(Plan{Seed: 1, Events: []Event{{Class: DropCompletion, Role: pcie.RoleH2DData, Count: 1}}})
	if inj.Tap(mk(1, 0xaa)) != nil {
		t.Fatal("drop-completion should delete the completion")
	}
	if inj.Tap(mk(2, 0xbb)) == nil {
		t.Fatal("only one completion should be dropped")
	}

	inj = NewInjector(Plan{Seed: 1, Events: []Event{{Class: StaleCompletion, Role: pcie.RoleH2DData, Count: 2}}})
	if got := inj.Tap(mk(1, 0xaa)); got != nil {
		t.Fatal("first stale firing should delay (deliver nothing)")
	}
	got := inj.Tap(mk(2, 0xbb))
	if got == nil || got.Tag != 1 || got.Payload[0] != 0xaa {
		t.Fatalf("second firing should deliver the stale completion (tag 1), got %v", got)
	}
	if got := inj.Tap(mk(3, 0xcc)); got == nil || got.Tag != 3 {
		t.Fatalf("after plan exhausted completions flow untouched, got %v", got)
	}
}

func TestInjectorDeviceHooks(t *testing.T) {
	inj := NewInjector(Plan{Seed: 2, Events: []Event{
		{Class: DoorbellHang, Count: 1},
		{Class: DropMSI, Count: 1},
	}})
	if !inj.DeviceFault(xpu.FaultDoorbell) || inj.DeviceFault(xpu.FaultDoorbell) {
		t.Fatal("doorbell hang should fire exactly once")
	}
	if !inj.DeviceFault(xpu.FaultMSI) || inj.DeviceFault(xpu.FaultMSI) {
		t.Fatal("msi drop should fire exactly once")
	}
	if inj.DeviceFault("unknown-point") {
		t.Fatal("unknown hook points never fire")
	}
}

// TestInjectorCountsPerRole: an event counts only the packets of its
// role, so packets of any other role — however many, wherever they fall
// — neither fire it nor move which packet it hits.
func TestInjectorCountsPerRole(t *testing.T) {
	doorbell := func(i int) *pcie.Packet {
		return pcie.NewMemWrite(pcie.MakeID(0, 1, 0), 0xd010_0000, []byte{byte(i), 0, 0, 0, 0, 0, 0, 0}).WithRole(pcie.RoleRingDoorbell)
	}
	for _, extra := range []int{0, 1, 7} {
		inj := NewInjector(Plan{Seed: 4, Events: []Event{{Class: DropTLP, Role: pcie.RoleRingDoorbell, Skip: 1, Count: 1}}})
		var dropped []int
		for i := 0; i < 4; i++ {
			for j := 0; j < extra; j++ {
				if inj.Tap(trafficMWr(j)) == nil {
					t.Fatalf("extra=%d: a packet of another role was dropped", extra)
				}
			}
			if inj.Tap(doorbell(i)) == nil {
				dropped = append(dropped, i)
			}
		}
		if !reflect.DeepEqual(dropped, []int{1}) {
			t.Fatalf("extra=%d: dropped doorbells %v, want [1]", extra, dropped)
		}
		want := []Firing{{Class: DropTLP, Role: pcie.RoleRingDoorbell, Index: 1}}
		if log := inj.Log(); !reflect.DeepEqual(log, want) {
			t.Fatalf("extra=%d: log %v, want %v", extra, log, want)
		}
	}
}

func TestInjectorCryptoTransient(t *testing.T) {
	inj := NewInjector(Plan{Seed: 6, Events: []Event{{Class: CryptoTransient, Skip: 1, Count: 1}}})
	if err := inj.CryptoFault("seal"); err != nil {
		t.Fatalf("skip=1: first op must pass, got %v", err)
	}
	if err := inj.CryptoFault("seal"); err == nil {
		t.Fatal("second op should hit the transient fault")
	}
	if err := inj.CryptoFault("open"); err != nil {
		t.Fatalf("plan exhausted, got %v", err)
	}
}
