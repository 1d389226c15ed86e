package ccai

// A submission's command slots cross the untrusted bus as one verified
// run (DESIGN.md §6 invariant 2): one MAC record, one device read, one SC
// fetch, the run served whole and nothing of it kept. These are the
// platform-level cells; the SC-level ones (malformed records, reads that
// are not one whole run, a served run re-read) sit beside the rig in
// internal/core and internal/adaptor.

import (
	"bytes"
	"slices"
	"testing"

	"ccai/internal/adaptor"
	"ccai/internal/llm"
	"ccai/internal/pcie"
	"ccai/internal/xpu"
)

// cmdFetches taps a host bus for one slice's SC reads of its command
// ring and returns their lengths in slots, in order.
func cmdFetches(host *pcie.Bus, pl *pipeline) *[]int {
	var fetches []int
	host.AddTap(pcie.TapFunc(func(pk *pcie.Packet) *pcie.Packet {
		if pk.Kind == pcie.MRd && pk.Role == pcie.RoleCommandRun && pk.Requester == pl.SC.DeviceID() {
			fetches = append(fetches, int(pk.Length)/xpu.CmdSize)
		}
		return pk
	}))
	return &fetches
}

// cmdRead is one read of command slots: where it starts and how many
// slots it covers.
type cmdRead struct {
	addr  uint64
	slots int
}

// cmdReads taps bus for requester's reads of a command ring.
func cmdReads(bus *pcie.Bus, requester pcie.ID) *[]cmdRead {
	var reads []cmdRead
	bus.AddTap(pcie.TapFunc(func(pk *pcie.Packet) *pcie.Packet {
		if pk.Kind == pcie.MRd && pk.Role == pcie.RoleCommandRun && pk.Requester == requester {
			reads = append(reads, cmdRead{pk.Address, int(pk.Length) / xpu.CmdSize})
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
// Over a 512-token decode session (a 4-command prefill, 63 three-command
// steps) and three 64 KiB tasks on one tenant, the internal segment
// carries one command MRd per run, the SC answers each with one host
// fetch of the same slots, and the host segment's rows are the ones the
// per-slot reader left, pinned by a digest taken before the device read a
// run whole.
func TestCommandRunFetch(t *testing.T) {
	mp := llmChassis(t, []xpu.Profile{xpu.A100}, WithLLMEngine(llm.EngineConfig{Workers: 1}))
	tenant := mp.Tenants[0]
	host := recordWire(mp.Host)
	device := cmdReads(tenant.internal, tenant.XPUID)
	fetches := cmdReads(mp.Host, tenant.SC.DeviceID())
	tail := tenant.Driver.Tail()

	runSession(t, tenant, decodeCfg, []byte("one read per command run"))
	task := Task{Input: bytes.Repeat([]byte{7}, 64<<10), Kernel: KernelXOR, Param: 0x5a}
	for i := 0; i < 3; i++ {
		if _, err := tenant.RunTask(task); err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
	}

	sizes := []int{4}
	for i := 1; i < decodeCfg.Chunks(); i++ {
		sizes = append(sizes, 3)
	}
	sizes = append(sizes, 3, 3, 3)
	want := runCuts(tail, sizes...)
	if len(*device) != len(want) {
		t.Fatalf("%d device command reads, want one per run: %d", len(*device), len(want))
	}
	for i, rd := range *device {
		if rd.slots != want[i] {
			t.Fatalf("device command read %d covers %d slots, want %d", i, rd.slots, want[i])
		}
	}
	if !slices.Equal(*device, *fetches) {
		t.Fatalf("the SC's host fetches are not the device's reads:\ndevice %v\nhost   %v", *device, *fetches)
	}
	const rows, digest = 2178, "fca64671ccfc9f99fdcc8a8f7043fdc2e1d4adaa1910079b6cdb44cd0e1ecdde"
	if got := wireDigest(*host); len(*host) != rows || got != digest {
		t.Fatalf("host segment: %d rows, digest %s; want %d rows, %s", len(*host), got, rows, digest)
	}
}

// TestA3RecordKeySpace: the records of guarded writes (keyed by the A3
// sequence number) and of command-ring runs (keyed by region and slot)
// have separate identities, so no sequence number names a run's record.
// When both were counters of one stream, sequence numbers 65,536–65,599
// aliased region 1's slots: the tail write with sequence 65,548 replaced
// the record of slot 12, its read was an auth failure and the ladder had
// to repost. 33,000 small tasks take the sequence past that window with
// not one auth failure or recovery step.
func TestA3RecordKeySpace(t *testing.T) {
	if raceDetector {
		t.Skip("one goroutine, 33,000 tasks: the race detector adds 25 s and no coverage")
	}
	p := protectedPlatform(t, xpu.A100)
	in := bytes.Repeat([]byte{0x5a}, 256)
	for i := 0; i < 33000; i++ {
		out, err := p.RunTask(Task{Input: in, Kernel: KernelAdd, Param: 1})
		if err != nil {
			t.Fatalf("task %d: %v", i+1, err)
		}
		if out[0] != 0x5b || out[255] != 0x5b {
			t.Fatalf("task %d: wrong output", i+1)
		}
		if st := p.SC.Stats(); st.AuthFailures != 0 {
			t.Fatalf("task %d (A3 sequence %d): %d auth failures", i+1, p.Adaptor.MMIOSeq(), st.AuthFailures)
		}
	}
	if rec := p.Adaptor.Recovery(); rec != (adaptor.RecoveryStats{}) {
		t.Fatalf("recovery activity on a fault-free run: %+v", rec)
	}
	if seq := p.Adaptor.MMIOSeq(); seq <= 65600 {
		t.Fatalf("A3 sequence ended at %d: the aliasing window was not crossed", seq)
	}
}

// TestVerifiedRunBusTamper flips one bit in the SC's fetch of a
// three-command run, in each of the three slots in turn. The one MAC
// fails, so not even the untouched commands execute; the auth failure is
// counted, the ladder's Kick re-MACs the same three slots and the task
// completes byte-exact.
func TestVerifiedRunBusTamper(t *testing.T) {
	for slot := 0; slot < 3; slot++ {
		p := protectedPlatform(t, xpu.A100)
		fetches := cmdFetches(p.Host, &p.pipeline)
		tampered := false
		p.Host.AddTap(pcie.TapFunc(func(pk *pcie.Packet) *pcie.Packet {
			if tampered || pk.Kind != pcie.CplD || len(pk.Payload) != 3*xpu.CmdSize {
				return pk
			}
			tampered = true
			q := pk.Clone()
			q.Payload[slot*xpu.CmdSize+9] ^= 0x10
			return q
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
		// The Kick re-MACs [head, tail): a second fetch of all three slots
		// says the device's head never moved — nothing of the run executed.
		if got := *fetches; !tampered || len(got) != 2 || got[0] != 3 || got[1] != 3 {
			t.Fatalf("slot %d: tampered %v, command fetches %v, want [3 3]", slot, tampered, got)
		}
		if st, rec := p.SC.Stats(), p.Adaptor.Recovery(); st.AuthFailures != 1 || rec.FailClosed != 0 {
			t.Fatalf("slot %d: %d auth failures, recovery %+v; want 1 and no teardown", slot, st.AuthFailures, rec)
		}
	}
}

// TestVerifiedRunWrap: the 22nd three-command task on a 64-slot command
// ring occupies slots 63, 0 and 1. That is two runs — two records, each
// answering one fetch — and the output is byte-exact with no auth
// failure.
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
	fetches := cmdFetches(p.Host, &p.pipeline)
	run()
	if got := *fetches; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("command fetches of the straddling task: %v, want [1 2]", got)
	}
	if st := p.SC.Stats(); st.AuthFailures != 0 {
		t.Fatalf("%d auth failures", st.AuthFailures)
	}
	run() // and the ring goes on from slot 2
}

// TestKickReMACsRemainder: the device consumes the first of three
// commands and faults on the second (an opcode it does not know). The
// driver repairs the slot and kicks: the Kick re-MACs the two pending
// slots as one run, and the SC serves that run — fetched and verified
// anew — not what is left of the first run's verified copy, which still
// holds the broken command.
func TestKickReMACsRemainder(t *testing.T) {
	p := protectedPlatform(t, xpu.A100)
	fetches := cmdFetches(p.Host, &p.pipeline)
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
			t.Fatalf("output wrong at byte %d: the stale verified copy was served", i)
		}
	}
	if f := *fetches; len(f) != 2 || f[0] != 3 || f[1] != 2 {
		t.Fatalf("command fetches %v, want [3 2]", f)
	}
	if st := p.SC.Stats(); st.AuthFailures != 0 {
		t.Fatalf("%d auth failures", st.AuthFailures)
	}
}
