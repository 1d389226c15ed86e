// Adversary example: the paper's §8.2 security analysis run live. Each
// scenario aims one attack class from the threat model at a protected
// platform and reports the defence that stopped it. The first scenario
// runs against a *vanilla* platform to show the attacks are real.
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"

	"ccai"
	"ccai/internal/attack"
	"ccai/internal/core"
	"ccai/internal/pcie"
	"ccai/internal/xpu"
)

var secret = []byte("PROPRIETARY-LLM-WEIGHTS-BLOCK-7f3a")

func freshPlatform(mode ccai.Mode) *ccai.Platform {
	p, err := ccai.New(ccai.WithXPU(xpu.A100), ccai.WithMode(mode))
	if err != nil {
		log.Fatal(err)
	}
	if err := p.EstablishTrust(); err != nil {
		log.Fatal(err)
	}
	return p
}

func scenario(name string, fn func() string) {
	fmt.Printf("== %s\n", name)
	fmt.Printf("   %s\n\n", fn())
}

func main() {
	scenario("bus snooping on an UNPROTECTED platform (baseline)", func() string {
		p := freshPlatform(ccai.Vanilla)
		defer p.Close()
		snoop := attack.NewSnooper()
		p.Host.AddTap(snoop)
		if _, err := p.RunTask(ccai.Task{Input: secret, Kernel: ccai.KernelAdd, Param: 0}); err != nil {
			return "task failed: " + err.Error()
		}
		if snoop.SawPlaintext(secret) {
			return "LEAKED: the snooper read the model weights straight off the bus"
		}
		return "unexpectedly nothing leaked"
	})

	scenario("bus snooping with ccAI", func() string {
		p := freshPlatform(ccai.Protected)
		defer p.Close()
		snoop := attack.NewSnooper()
		p.Host.AddTap(snoop)
		if _, err := p.RunTask(ccai.Task{Input: secret, Kernel: ccai.KernelAdd, Param: 0}); err != nil {
			return "task failed: " + err.Error()
		}
		if snoop.SawPlaintext(secret) {
			return "BROKEN: plaintext on the untrusted bus"
		}
		return fmt.Sprintf("defended: %d payload bytes captured, all ciphertext (A2 encryption)", snoop.PayloadBytes())
	})

	scenario("in-flight tampering with encrypted data", func() string {
		p := freshPlatform(ccai.Protected)
		defer p.Close()
		t := &attack.Tamperer{Match: func(pk *pcie.Packet) bool {
			// Target ciphertext completions toward the SC. Submission-ring
			// fetches are skipped: a flip anywhere in a sealed span is the
			// separate fail-closed path, refused whole by the span's seal.
			return pk.Kind == pcie.CplD && pk.Requester == ccai.SCID && pk.Role == pcie.RoleH2DData
		}, Count: 1}
		p.Host.AddTap(t)
		out, err := p.RunTask(ccai.Task{Input: secret, Kernel: ccai.KernelAdd, Param: 0})
		if t.Tampered() == 0 {
			return "tamperer never fired; scenario vacuous"
		}
		if p.SC.Stats().AuthFailures == 0 {
			return "BROKEN: corrupted packet was not detected"
		}
		if err == nil {
			if !bytes.Equal(out, secret) {
				return "BROKEN: computed on corrupted data"
			}
			return fmt.Sprintf("defended: GCM tag mismatch rejected the packet (%d auth failures), task recovered with correct output",
				p.SC.Stats().AuthFailures)
		}
		return fmt.Sprintf("defended: GCM tag mismatch stopped the task (%d auth failures recorded)",
			p.SC.Stats().AuthFailures)
	})

	scenario("replaying captured encrypted traffic", func() string {
		p := freshPlatform(ccai.Protected)
		defer p.Close()
		rec := &attack.Recorder{Match: func(pk *pcie.Packet) bool { return pk.Kind == pcie.MWr }}
		p.Host.AddTap(rec)
		if _, err := p.RunTask(ccai.Task{Input: secret, Kernel: ccai.KernelAdd, Param: 0}); err != nil {
			return "task failed: " + err.Error()
		}
		before := p.SC.Stats().DecryptedChunks
		rec.Replay(p.Host)
		if p.SC.Stats().DecryptedChunks != before {
			return "BROKEN: replayed chunks were decrypted again"
		}
		return fmt.Sprintf("defended: %d replayed packets, zero fresh decryptions (IV counter discipline)", len(rec.Captured))
	})

	scenario("rogue TVM driving the xPU", func() string {
		p := freshPlatform(ccai.Protected)
		defer p.Close()
		rogue := &attack.RogueRequester{ID: pcie.MakeID(0, 9, 0), Bus: p.Host}
		rogue.Write(0xd000_0010, []byte{1, 0, 0, 0, 0, 0, 0, 0}) // doorbell
		cpl := rogue.Read(0xd000_0008, 8)                        // status
		if cpl != nil && cpl.Status == pcie.CplSuccess {
			return "BROKEN: rogue TVM reached the device"
		}
		return fmt.Sprintf("defended: L1 table dropped %d packets (fail-closed filter)",
			p.SC.Stats().Filter.Dropped)
	})

	scenario("malicious peripheral reading TVM memory", func() string {
		p := freshPlatform(ccai.Protected)
		defer p.Close()
		priv, err := p.Guest.Space.Alloc("private", "tvm-secret", 4096)
		if err != nil {
			return err.Error()
		}
		copy(priv.Bytes(), secret)
		evil := &attack.RogueRequester{ID: pcie.MakeID(3, 0, 0), Bus: p.Host}
		cpl := evil.Read(priv.Base(), 64)
		if cpl != nil && cpl.Status == pcie.CplSuccess {
			return "BROKEN: device read TVM private memory"
		}
		return fmt.Sprintf("defended: IOMMU default-deny (%d faults recorded)", len(p.IOMMU.Faults))
	})

	scenario("forged Packet Filter policy injection", func() string {
		p := freshPlatform(ccai.Protected)
		defer p.Close()
		l1Before, l2Before := p.SC.Filter().RuleCount()
		// A match-all allow rule, in plaintext (the attacker has no
		// config-stream key to seal it), pushed the one way policy
		// reaches the SC: as an entry of the submission ring, which sits
		// in host memory right behind the shared window's metadata page.
		// The attacker writes it at the head the SC last posted and rings
		// the doorbell in the TVM's name. It holds no ring-seal key
		// either, so the SC refuses the span before any entry of it acts.
		evil := core.Rule{ID: 99, Action: core.ActionPassThrough}.Marshal()
		const ring, slots = 0x8000_1000, 64
		head, err := p.Guest.Space.ReadUint64(ring)
		if err != nil {
			return "test broken: " + err.Error()
		}
		slot := make([]byte, core.RingEntryHdrSize, core.RingSlotSize)
		core.PutRingEntry((*[core.RingEntryHdrSize]byte)(slot), core.RingOpRule, uint16(len(evil)), 0)
		if err := p.Guest.Space.Write(ring+core.RingHdrSize+head%slots*core.RingSlotSize, append(slot, evil...)); err != nil {
			return "test broken: " + err.Error()
		}
		p.Host.Route(pcie.NewMemWrite(ccai.TVMID, 0xd010_0000+core.RegRingDoorbell, binary.LittleEndian.AppendUint64(nil, head+1)))
		// And, for good measure, at a control-BAR offset that names no
		// register.
		p.Host.Route(pcie.NewMemWrite(ccai.TVMID, 0xd010_0100, evil))
		l1After, l2After := p.SC.Filter().RuleCount()
		if l1After != l1Before || l2After != l2Before {
			return "BROKEN: unsealed policy installed"
		}
		if p.SC.Stats().ConfigRejects != 2 {
			return fmt.Sprintf("BROKEN: %d config rejects, want one per attempt", p.SC.Stats().ConfigRejects)
		}
		return "defended: the unsealed ring span was refused whole, the stray register write was refused (2 config rejects)"
	})

	scenario("data residue after the session", func() string {
		p := freshPlatform(ccai.Protected)
		if _, err := p.RunTask(ccai.Task{Input: secret, Kernel: ccai.KernelAdd, Param: 0}); err != nil {
			return "task failed: " + err.Error()
		}
		if !p.Device.MemResidue() {
			return "test broken: no residue before teardown"
		}
		p.Close() // environment guard triggers the device clean
		if p.Device.MemResidue() {
			return "BROKEN: workload residue survives on the xPU"
		}
		return "defended: environment guard wiped device memory/registers at teardown"
	})
}
