package ccai

// A submission's command slots cross the untrusted bus as one verified
// run (DESIGN.md §6 invariant 2): run entries in the submission's sealed
// span, held at the SC, one device read served from them whole, nothing
// of the run kept once served, and no fetch of the command ring from the
// host. These are the platform-level cells; the SC-level ones (malformed
// run entries, reads that are not one whole run, a served run re-read)
// sit beside the rig in internal/core and internal/adaptor.

import (
	"bytes"
	"strings"
	"testing"

	"ccai/internal/adaptor"
	"ccai/internal/core"
	"ccai/internal/llm"
	"ccai/internal/pcie"
	"ccai/internal/xpu"
)

// cmdReads taps a slice's internal bus for the device's reads of its
// command ring and returns their lengths in slots, in order.
func cmdReads(internal *pcie.Bus) *[]int {
	var reads []int
	internal.AddTap(pcie.TapFunc(func(pk *pcie.Packet) *pcie.Packet {
		if pk.Kind == pcie.MRd && pk.Role == pcie.RoleCommandRun {
			reads = append(reads, int(pk.Length)/xpu.CmdSize)
		}
		return pk
	}))
	return &reads
}

// runCuts is where submissions of the given command counts, queued from
// ring position tail on, are cut into runs: at the end of the ring.
func runCuts(tail uint64, sizes ...int) []int {
	var cuts []int
	for _, n := range sizes {
		for n > 0 {
			k := min(n, ringEntries-int(tail%ringEntries))
			cuts = append(cuts, k)
			tail += uint64(k)
			n -= k
		}
	}
	return cuts
}

// TestCommandRunFetch: the device fetches each command run with one read.
// Over the wire ledger's 512-token decode session (a 4-command prefill,
// 63 three-command steps) and three 64 KiB tasks on one tenant, the internal segment
// carries one command MRd per run, cut at the end of the command ring,
// the SC answers each from the run its span carried, with no host fetch,
// and the host segment carries the wire ledger's decode-session rows,
// then its task-64KiB rows for each task.
func TestCommandRunFetch(t *testing.T) {
	mp := llmChassis(t, []xpu.Profile{xpu.A100}, WithLLMEngine(llm.EngineConfig{Workers: 1}))
	tenant := mp.Tenants[0]
	host, inner := recordWire(mp.Host), recordWire(tenant.internal)
	tail := tenant.Driver.Tail()

	runSession(t, tenant, decodeCfg, ledgerPrompt)
	shapes, cut := []string{"decode-session"}, []int{0, len(*host)}
	task := Task{Input: bytes.Repeat([]byte{7}, 64<<10), Kernel: KernelXOR, Param: 0x5a}
	for i := 0; i < 3; i++ {
		if _, err := tenant.RunTask(task); err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		shapes, cut = append(shapes, "task-64KiB"), append(cut, len(*host))
	}

	sizes := []int{4}
	for i := 1; i < decodeCfg.Chunks(); i++ {
		sizes = append(sizes, 3)
	}
	sizes = append(sizes, 3, 3, 3)
	want, device := runCuts(tail, sizes...), commandRuns(*inner)
	if len(device) != len(want) {
		t.Fatalf("%d device command reads, want one per run: %d", len(device), len(want))
	}
	for i, rd := range device {
		if slots := int(rd[1]) / xpu.CmdSize; slots != want[i] {
			t.Fatalf("device command read %d covers %d slots, want %d", i, slots, want[i])
		}
	}
	if fetches := commandRuns(*host); len(fetches) != 0 {
		t.Fatalf("the SC fetched command runs from the host: %v", fetches)
	}
	for i, shape := range shapes {
		got := shapeWire{host: (*host)[cut[i]:cut[i+1]]}.lines(shape, 1)
		if profile(got) != profile(goldenShape(t, shape, "host")) {
			t.Fatalf("host segment, part %d: not the wire ledger's %s rows:\n%s", i, shape, strings.Join(got, "\n"))
		}
	}
}

// TestA3RecordKeySpace: a command run's entries are positioned at the
// command ring region by its full id (core.ArmPosition), and the SC holds
// the run on that region's own record, so no part of the id is packed
// into a smaller key that could alias an earlier region's. 33,000 small tasks stage two regions
// each, so the command ring a re-trust then stages takes an id past
// 65,536, where a 16-bit key would collide with an earlier region's.
// Every task, before the re-trust and after, is exact with not one auth
// failure or recovery step.
func TestA3RecordKeySpace(t *testing.T) {
	if raceDetector {
		t.Skip("one goroutine, 33,000 tasks: the race detector adds 25 s and no coverage")
	}
	p := protectedPlatform(t, xpu.A100)
	in := bytes.Repeat([]byte{0x5a}, 256)
	run := func(i int) {
		out, err := p.RunTask(Task{Input: in, Kernel: KernelAdd, Param: 1})
		if err != nil {
			t.Fatalf("task %d: %v", i+1, err)
		}
		if out[0] != 0x5b || out[255] != 0x5b {
			t.Fatalf("task %d: wrong output", i+1)
		}
		if st := p.SC.Stats(); st.AuthFailures != 0 {
			t.Fatalf("task %d (command ring region %d): %d auth failures", i+1, p.ring.Desc.ID, st.AuthFailures)
		}
	}
	for i := 0; i < 33000; i++ {
		run(i)
	}
	if err := p.EstablishTrust(); err != nil {
		t.Fatal(err)
	}
	if id := p.ring.Desc.ID; id <= 1<<16 {
		t.Fatalf("the command ring re-staged as region %d: no region id past 16 bits was reached", id)
	}
	for i := 33000; i < 33100; i++ {
		run(i)
	}
	if rec := p.Adaptor.Recovery(); rec != (adaptor.RecoveryStats{}) {
		t.Fatalf("recovery activity on a fault-free run: %+v", rec)
	}
}

// TestVerifiedRunBusTamper: a three-command run crosses the host bus
// only inside its submission's sealed span. One bit flipped in flight in
// any of its three slots breaks the seal: the SC refuses that copy of
// the span whole, so not one command of it — not even the untouched
// ones — reaches the device, and fetches the span once more. The second
// copy checks: the device reads the run once, the task is exact, and
// the refusal is counted as one config reject, with no recovery step. A
// bit the host flips in the command ring in host memory once the run's
// entries went out reaches nobody: the device runs the bytes the seal
// covered, and the task is exact.
func TestVerifiedRunBusTamper(t *testing.T) {
	for slot := 0; slot < 3; slot++ {
		p := protectedPlatform(t, xpu.A100)
		reads := cmdReads(p.Internal)
		rejects, tampered := p.SC.Stats().ConfigRejects, false
		p.Host.AddTap(pcie.TapFunc(func(pk *pcie.Packet) *pcie.Packet {
			for i, s := range ringSlots(pk) {
				at := 0
				for _, e := range slotChain(s) {
					if !tampered && e.Op == core.RingOpRun {
						tampered = true
						q := pk.Clone()
						q.Payload[i*core.RingSlotSize+at+core.RingEntryHdrSize+core.RunHdrSize+slot*xpu.CmdSize+9] ^= 0x10
						return q
					}
					at += core.RingEntryHdrSize + len(e.Data)
				}
			}
			return pk
		}))
		in := taskInput()
		out, err := p.RunTask(Task{Input: in, Kernel: KernelAdd, Param: 2})
		if err != nil {
			t.Fatalf("slot %d: a transient bit flip must heal: %v", slot, err)
		}
		for i := range in {
			if out[i] != in[i]+2 {
				t.Fatalf("slot %d: output wrong at byte %d", slot, i)
			}
		}
		if rec, st := p.Adaptor.Recovery(), p.SC.Stats(); !tampered || len(*reads) != 1 || (*reads)[0] != 3 ||
			!p.trusted || rec != (adaptor.RecoveryStats{}) || st.AuthFailures != 0 || st.ConfigRejects != rejects+1 {
			t.Fatalf("slot %d: tampered %v, device command reads %v, trusted %v, %d auth failures, %d config rejects, recovery %+v; want one read of 3, one reject, no recovery",
				slot, tampered, *reads, p.trusted, st.AuthFailures, st.ConfigRejects-rejects, rec)
		}
	}

	p := protectedPlatform(t, xpu.A100)
	flipped := false
	p.Host.AddTap(pcie.TapFunc(func(pk *pcie.Packet) *pcie.Packet {
		if pk.Role == pcie.RoleRingDoorbell && !flipped {
			flipped = true
			slot := p.Driver.Tail() - 2 // the run's middle command
			p.ring.Buf.Bytes()[slot%ringEntries*xpu.CmdSize+9] ^= 0x10
		}
		return pk
	}))
	in := taskInput()
	out, err := p.RunTask(Task{Input: in, Kernel: KernelAdd, Param: 2})
	if err != nil || !flipped {
		t.Fatalf("the host rewrote the command ring behind the run's entries: %v (flipped %v)", err, flipped)
	}
	for i := range in {
		if out[i] != in[i]+2 {
			t.Fatalf("output wrong at byte %d: the host's bytes were run", i)
		}
	}
	if st := p.SC.Stats(); st.AuthFailures != 0 {
		t.Fatalf("%d auth failures", st.AuthFailures)
	}
}

// TestVerifiedRunWrap: the 22nd three-command task on a 64-slot command
// ring occupies slots 63, 0 and 1. That is one run, riding one run entry
// of three slots as an unwrapped run does, which the device reads in
// two — slot 63, then slots 0 and 1 — each read served from the held
// run; the output is byte-exact with no auth failure and nothing held.
func TestVerifiedRunWrap(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	in := taskInput()
	run := func() {
		t.Helper()
		out, err := p.RunTask(Task{Input: in, Kernel: KernelAdd, Param: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i := range in {
			if out[i] != in[i]+3 {
				t.Fatalf("output wrong at byte %d", i)
			}
		}
	}
	for i := 0; i < 21; i++ {
		run()
	}
	if tail := p.Driver.Tail(); tail != ringEntries-1 {
		t.Fatalf("driver tail %d after 21 tasks, want %d", tail, ringEntries-1)
	}
	reads := cmdReads(p.Internal)
	var entries []int // the run entries' sizes in slots
	p.Host.AddTap(pcie.TapFunc(func(pk *pcie.Packet) *pcie.Packet {
		for _, s := range ringSlots(pk) {
			for _, e := range slotChain(s) {
				if e.Op == core.RingOpRun {
					entries = append(entries, (len(e.Data)-core.RunHdrSize)/xpu.CmdSize)
				}
			}
		}
		return pk
	}))
	run()
	p.Host.ClearTaps()
	if got := *reads; len(got) != 2 || got[0] != 1 || got[1] != 2 || len(entries) != 1 || entries[0] != 3 {
		t.Fatalf("the straddling task: device command reads %v, want [1 2]; run entries of %v slots, want [3]", got, entries)
	}
	if st := p.SC.Stats(); st.AuthFailures != 0 || p.SC.HeldRuns() != 0 {
		t.Fatalf("%d auth failures, %d runs held", st.AuthFailures, p.SC.HeldRuns())
	}
	run() // and the ring goes on from slot 2
}

// TestKickReMACsRemainder: the device consumes the first of three
// commands and faults on the second (an opcode it does not know). The
// driver repairs the slot and kicks: the Kick re-sends the two pending
// slots as one run, and the SC serves that run from the fresh entries —
// not what is left of the first run's held copy, which still holds the
// broken command.
func TestKickReMACsRemainder(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	reads := cmdReads(p.Internal)
	in := taskInput()
	task := Task{Input: in, Kernel: KernelAdd, Param: 4}
	staged, err := p.Adaptor.StageH2D("task-input", in)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Adaptor.ReleaseRegion(staged)
	out, err := p.Adaptor.PrepareD2H("task-output", int64(len(in)))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Adaptor.ReleaseRegion(out)
	cmds := task.commands(staged.Buf.Base(), out.Buf.Base(), int64(len(in)))
	broken := cmds
	broken[1].Op = 0xdead
	before := p.Driver.Tail()
	if err := p.Driver.Submit(broken[:]...); err != nil {
		t.Fatal(err)
	}
	if head, err := p.Driver.Head(); err != nil || head != before+1 {
		t.Fatalf("device head %d (%v), want %d: one command consumed, the broken one refused", head, err, before+1)
	}
	slot := p.ring.Buf.Base() + (before+1)%ringEntries*xpu.CmdSize
	if err := p.Guest.Space.Write(slot, cmds[1].Marshal()); err != nil {
		t.Fatal(err)
	}
	if err := p.Driver.Kick(); err != nil {
		t.Fatal(err)
	}
	if head, err := p.Driver.Head(); err != nil || head != before+3 {
		t.Fatalf("device head %d (%v) after the kick, want %d", head, err, before+3)
	}
	got, err := p.Adaptor.CollectD2H(out, int64(len(in)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if got[i] != in[i]+4 {
			t.Fatalf("output wrong at byte %d: the stale held copy was served", i)
		}
	}
	if r := *reads; len(r) != 2 || r[0] != 3 || r[1] != 2 {
		t.Fatalf("device command reads %v, want [3 2]", r)
	}
	if st := p.SC.Stats(); st.AuthFailures != 0 || p.SC.HeldRuns() != 0 {
		t.Fatalf("%d auth failures, %d runs held", st.AuthFailures, p.SC.HeldRuns())
	}
}
