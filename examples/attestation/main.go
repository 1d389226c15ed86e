// Attestation example: a remote user verifies a ccAI platform before
// trusting it with a workload (paper §6, Figure 6), then the delivered
// keys drive an actual confidential task. The second half repeats the
// protocol against a platform whose firmware was swapped and shows the
// verifier walking away.
package main

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"fmt"
	"log"

	"ccai"
	"ccai/internal/attest"
	"ccai/internal/hrot"
	"ccai/internal/xpu"
)

// buildPlatform provisions and boots a blade with the given firmware
// string, returning the attestation endpoint.
func buildPlatform(ca *ecdsa.PrivateKey, firmware string) (*attest.Platform, *hrot.Blade, error) {
	blade, err := hrot.NewBlade(ca)
	if err != nil {
		return nil, nil, err
	}
	var chain []hrot.BootImage
	for _, im := range []struct {
		name string
		pcr  int
		data string
	}{
		{"pcie-sc-bitstream", hrot.PCRBitstream, "filter+handlers v1.0"},
		{"hrot-firmware", hrot.PCRFirmware, firmware},
	} {
		sig, err := hrot.SignImage(ca, []byte(im.data))
		if err != nil {
			return nil, nil, err
		}
		chain = append(chain, hrot.BootImage{Name: im.name, PCR: im.pcr, Content: []byte(im.data), Signature: sig})
	}
	if err := blade.SecureBoot(&ca.PublicKey, chain); err != nil {
		return nil, nil, err
	}
	p, err := attest.NewPlatform(blade)
	return p, blade, err
}

func attestOnce(v *attest.Verifier, p *attest.Platform) error {
	if err := p.Establish(v.Hello()); err != nil {
		return err
	}
	if err := v.Establish(p.Hello()); err != nil {
		return err
	}
	if err := v.ValidateCertificates(p.Certificates()); err != nil {
		return err
	}
	ch, err := v.NewChallenge(1, []int{hrot.PCRBitstream, hrot.PCRFirmware})
	if err != nil {
		return err
	}
	quote, err := p.Respond(ch)
	if err != nil {
		return err
	}
	return v.Verify(ch, quote)
}

func main() {
	ca, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		log.Fatal(err)
	}

	// Golden platform: what the operator published measurements for.
	golden, goldenBlade, err := buildPlatform(ca, "hrot-blade fw 1.0")
	if err != nil {
		log.Fatal(err)
	}
	sel := []int{hrot.PCRBitstream, hrot.PCRFirmware}

	verifier, err := attest.NewVerifier(&ca.PublicKey)
	if err != nil {
		log.Fatal(err)
	}
	verifier.Expected = [][]byte{goldenBlade.PCRs().Snapshot(sel)}

	fmt.Println("-- attesting the genuine platform --")
	if err := attestOnce(verifier, golden); err != nil {
		log.Fatal("unexpected rejection: ", err)
	}
	fmt.Println("report verified; delivering workload keys")

	// Key delivery feeds a real protected run.
	bundle := attest.NewKeyBundle([]string{"h2d", "d2h", "config", "mmio", "ring-seal"})
	sealed, err := verifier.Seal(bundle)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := golden.OpenBundle(sealed); err != nil {
		log.Fatal(err)
	}
	plat, err := ccai.New(ccai.WithXPU(xpu.A100), ccai.WithMode(ccai.Protected))
	if err != nil {
		log.Fatal(err)
	}
	defer plat.Close()
	if err := plat.EstablishTrust(); err != nil {
		log.Fatal(err)
	}
	out, err := plat.RunTask(ccai.Task{Input: []byte("attested workload"), Kernel: ccai.KernelAdd, Param: 0})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("confidential task ran after attestation: %q\n\n", out)

	// A platform running different (even validly signed) firmware does
	// not match the golden PCRs.
	fmt.Println("-- attesting a platform with swapped firmware --")
	shady, _, err := buildPlatform(ca, "hrot-blade fw 1.0-patched")
	if err != nil {
		log.Fatal(err)
	}
	verifier2, err := attest.NewVerifier(&ca.PublicKey)
	if err != nil {
		log.Fatal(err)
	}
	verifier2.Expected = [][]byte{goldenBlade.PCRs().Snapshot(sel)}
	if err := attestOnce(verifier2, shady); err != nil {
		fmt.Println("verifier rejected the platform:", err)
		fmt.Println("no keys released; the workload never leaves the user")
		return
	}
	log.Fatal("swapped firmware was accepted — attestation broken")
}
