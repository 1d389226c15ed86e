package fault

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"ccai/internal/pcie"
)

// FuzzFaultPlan fuzzes the plan codec and drives every decodable plan
// through an injector against fixed traffic. Properties: the decoder
// never panics and never yields an out-of-bounds plan; it refuses a
// link class that names no role, a hook class that names one, and a
// role out of range; decode→encode→decode is a fixed point; and
// injection is deterministic — two injectors built from the same
// decoded plan mutate identical traffic identically.
func FuzzFaultPlan(f *testing.F) {
	f.Add(Plan{Seed: 1}.Marshal())
	f.Add(Plan{Seed: 2, Events: []Event{{Class: CorruptTLP, Role: pcie.RoleD2HData, Count: 1}}}.Marshal())
	f.Add(Plan{Seed: 3, Events: []Event{{Class: StaleCompletion, Role: pcie.RoleH2DData, Skip: 1, Count: 2}}}.Marshal())
	f.Add(Plan{Seed: 4, Events: []Event{{Class: DropTLP, Role: pcie.RoleSlotFetch, Count: 2}}}.Marshal())
	f.Add(Plan{Seed: 5, Events: []Event{{Class: HeadRegress, Role: pcie.RoleCompletionWord, Count: 1}}}.Marshal())
	f.Add(Plan{Seed: 6, Events: []Event{{Class: DoorbellHang, Skip: 1, Count: 2}}}.Marshal())
	f.Add(Plan{Seed: 7, Events: []Event{
		{Class: TruncateTLP, Role: pcie.RoleD2HData, Count: 3},
		{Class: DropCompletion, Role: pcie.RoleH2DData, Skip: 2},
		{Class: TagLoss, Skip: 1},
	}}.Marshal())
	f.Add([]byte("FPLN"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := UnmarshalPlan(data)
		if err != nil {
			return
		}
		if len(p.Events) > MaxEvents {
			t.Fatalf("decoder exceeded MaxEvents: %d", len(p.Events))
		}
		for i, e := range p.Events {
			if !e.Class.Valid() || e.Count == 0 || e.Count > MaxCount || e.Skip > MaxSkip || slices.Contains(pcie.Roles(), e.Role) == e.Class.Hook() {
				t.Fatalf("decoder admitted out-of-bounds event %v", e)
			}
			// The same plan with this event aimed wrong must not decode: a
			// link class at no role, a hook class at one, any class at a
			// role out of range.
			wrong := pcie.Role(0)
			if e.Class.Hook() {
				wrong = pcie.RoleMSI
			}
			for _, r := range []pcie.Role{wrong, pcie.Role(len(pcie.Roles()) + 1), 0xff} {
				q := Plan{Seed: p.Seed, Events: append([]Event(nil), p.Events...)}
				q.Events[i].Role = r
				if _, err := UnmarshalPlan(q.Marshal()); err == nil {
					t.Fatalf("decoder admitted %v aimed at role %d", e.Class, r)
				}
			}
		}
		reenc := p.Marshal()
		p2, err := UnmarshalPlan(reenc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded plan failed: %v", err)
		}
		if p2.Seed != p.Seed || !reflect.DeepEqual(p2.Events, p.Events) {
			t.Fatalf("decode/encode not a fixed point:\n %+v\n %+v", p, p2)
		}

		run := func() [][]byte {
			inj := NewInjector(p)
			var out [][]byte
			for i := 0; i < 24; i++ {
				var pkt *pcie.Packet
				role := pcie.Roles()[i%len(pcie.Roles())]
				if i%3 == 2 {
					req := pcie.NewMemRead(pcie.MakeID(0, 8, 0), 0x8000_0000, 32, uint8(i)).WithRole(role)
					pkt = pcie.NewCompletion(req, pcie.MakeID(0, 2, 0), pcie.CplSuccess, bytes.Repeat([]byte{byte(i)}, 32))
				} else {
					pkt = pcie.NewMemWrite(pcie.MakeID(0, 8, 0), 0x8000_0000+uint64(i)*32, bytes.Repeat([]byte{byte(i)}, 32)).WithRole(role)
				}
				got := inj.Tap(pkt)
				if got == nil {
					out = append(out, nil)
					continue
				}
				out = append(out, bytes.Clone(got.Payload))
			}
			return out
		}
		if !reflect.DeepEqual(run(), run()) {
			t.Fatal("same plan produced nondeterministic injection")
		}
	})
}
