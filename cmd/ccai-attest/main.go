// Command ccai-attest walks through ccAI's trust establishment end to
// end (paper §6 / Figure 6): vendor provisioning, secure boot of the
// PCIe-SC with PCR measurement, chassis sealing, the four-step remote
// attestation protocol, and workload-key delivery. Pass -tamper to
// watch each defence reject a manipulated platform.
package main

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"flag"
	"fmt"
	"os"

	"ccai/internal/attest"
	"ccai/internal/core"
	"ccai/internal/hrot"
)

type sensor struct {
	name string
	ok   *bool
}

func (s sensor) Name() string            { return s.name }
func (s sensor) Sample() (float64, bool) { return 1.0, *s.ok }

func main() {
	tamper := flag.Bool("tamper", false, "tamper with firmware and chassis to demonstrate detection")
	flag.Parse()

	step := func(format string, args ...any) { fmt.Printf("== "+format+"\n", args...) }
	die := func(err error) {
		fmt.Fprintln(os.Stderr, "ccai-attest:", err)
		os.Exit(1)
	}

	step("vendor provisioning: root CA signs the HRoT-Blade endorsement key")
	vendorCA, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		die(err)
	}
	blade, err := hrot.NewBlade(vendorCA)
	if err != nil {
		die(err)
	}

	step("secure boot: decrypt + measure bitstream, firmware, boot policy, xPU firmware")
	images := []struct {
		name string
		pcr  int
		data string
	}{
		{"pcie-sc-bitstream", hrot.PCRBitstream, "packet filter + handlers + AES-GCM-SHA engine v1.0"},
		{"hrot-firmware", hrot.PCRFirmware, "hrot-blade firmware 1.0"},
		{"boot-policy", hrot.PCRPolicy, "static L1/L2 rules for TVM 00:01.0 / xPU 02:00.0"},
		{"xpu-firmware", hrot.PCRXPU, "NVIDIA A100 550.90.07"},
	}
	var chain []hrot.BootImage
	for _, im := range images {
		content := []byte(im.data)
		if *tamper && im.name == "hrot-firmware" {
			content = append(content, []byte(" <implant>")...)
			fmt.Println("   [tamper] firmware image modified after signing")
		}
		sig, err := hrot.SignImage(vendorCA, []byte(im.data))
		if err != nil {
			die(err)
		}
		chain = append(chain, hrot.BootImage{Name: im.name, PCR: im.pcr, Content: content, Signature: sig})
	}
	if err := blade.SecureBoot(&vendorCA.PublicKey, chain); err != nil {
		fmt.Println("   secure boot REFUSED:", err)
		fmt.Println("   (fail-closed: the PCIe-SC does not come up)")
		return
	}
	fmt.Println("   boot chain verified; AK generated")
	for _, im := range images {
		pcr := blade.PCRs().Read(im.pcr)
		fmt.Printf("   PCR[%d] %-18s = %x...\n", im.pcr, im.name, pcr[:8])
	}

	step("chassis sealing: pressure/temperature sensors polled over I²C")
	intact := true
	blade.AddSensor(sensor{"pressure", &intact})
	blade.AddSensor(sensor{"temperature", &intact})
	blade.PollSensors()
	goldenSealing := blade.PCRs().Read(hrot.PCRSealing)
	if *tamper {
		intact = false
		fmt.Println("   [tamper] chassis opened mid-session")
	}
	blade.PollSensors()

	step("remote attestation (Figure 6)")
	platform, err := attest.NewPlatform(blade)
	if err != nil {
		die(err)
	}
	verifier, err := attest.NewVerifier(&vendorCA.PublicKey)
	if err != nil {
		die(err)
	}
	if err := platform.Establish(verifier.Hello()); err != nil {
		die(err)
	}
	if err := verifier.Establish(platform.Hello()); err != nil {
		die(err)
	}
	fmt.Println("   ① DHKE complete; session key derived on both sides")

	if err := verifier.ValidateCertificates(platform.Certificates()); err != nil {
		die(err)
	}
	fmt.Println("   ② EK endorsed by vendor CA; AK endorsed by EK")

	sel := []int{hrot.PCRBitstream, hrot.PCRFirmware, hrot.PCRPolicy, hrot.PCRXPU, hrot.PCRSealing}
	golden := blade.PCRs().Snapshot(sel)
	if *tamper {
		// The verifier whitelists the intact platform, not whatever the
		// platform currently reports.
		copy(golden[len(golden)-32:], goldenSealing[:])
	}
	verifier.Expected = [][]byte{golden}
	ch, err := verifier.NewChallenge(1, sel)
	if err != nil {
		die(err)
	}
	fmt.Printf("   ③ challenge: keyID=%d, %d PCRs, nonce %x...\n", ch.KeyID, len(ch.PCRSel), ch.Nonce[:8])

	quote, err := platform.Respond(ch)
	if err != nil {
		die(err)
	}
	if err := verifier.Verify(ch, quote); err != nil {
		fmt.Println("   ④ report REJECTED:", err)
		fmt.Println("   verifier refuses to release workload keys")
		return
	}
	fmt.Println("   ④ report verified: nonce fresh, signatures valid, PCRs golden")

	step("workload key delivery")
	bundle := attest.NewKeyBundle([]string{core.StreamH2D, core.StreamD2H, core.StreamConfig, core.KeyRingSeal})
	sealed, err := verifier.Seal(bundle)
	if err != nil {
		die(err)
	}
	got, err := platform.OpenBundle(sealed)
	if err != nil {
		die(err)
	}
	fmt.Printf("   %d stream keys delivered under the session key: ", len(got.Streams))
	for name := range got.Streams {
		fmt.Printf("%s ", name)
	}
	fmt.Println()
	fmt.Println("trust established: the TVM and PCIe-SC can now run confidential xPU workloads")
}
