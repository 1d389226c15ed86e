package ccai

import (
	"crypto/ecdsa"
	"fmt"

	"ccai/internal/core"
	"ccai/internal/hrot"
)

// SecureBoot runs the platform's measured boot (§6): the HRoT-Blade
// verifies vendor signatures over the PCIe-SC bitstream, the
// controller firmware, the *actual* static packet-filter policy this
// platform installed, and the xPU firmware — extending each into its
// PCR. The returned blade is what remote attestation quotes against;
// the measured policy means a platform booted with different filter
// rules produces different PCRs and fails the verifier's golden check.
//
// vendorCA signs the shipped images; in deployment it lives with the
// hardware vendor, here the caller generates it (see
// examples/attestation).
func (p *Platform) SecureBoot(vendorCA *ecdsa.PrivateKey) (*hrot.Blade, error) {
	if p.Mode != Protected {
		return nil, fmt.Errorf("ccai: secure boot applies to protected platforms")
	}
	blade, err := hrot.NewBlade(vendorCA)
	if err != nil {
		return nil, err
	}
	images := []struct {
		name    string
		pcr     int
		content []byte
	}{
		{"pcie-sc-bitstream", hrot.PCRBitstream, []byte("ccai packet filter + handlers + aes-gcm-sha engine v1.0")},
		{"controller-firmware", hrot.PCRFirmware, []byte("pcie-sc fw 1.0")},
		{"boot-policy", hrot.PCRPolicy, p.BootPolicyImage()},
		{"xpu-firmware", hrot.PCRXPU, []byte(p.Device.Profile().FirmwareVersion)},
	}
	chain := make([]hrot.BootImage, 0, len(images))
	for _, im := range images {
		sig, err := hrot.SignImage(vendorCA, im.content)
		if err != nil {
			return nil, err
		}
		chain = append(chain, hrot.BootImage{Name: im.name, PCR: im.pcr, Content: im.content, Signature: sig})
	}
	if err := blade.SecureBoot(&vendorCA.PublicKey, chain); err != nil {
		return nil, err
	}
	blade.SetObserver(p.Obs)
	p.Blade = blade
	return blade, nil
}

// BootPolicyImage serializes the static packet-filter policy installed
// at assembly into the byte image measured during secure boot. Using
// the live rules (not a constant) is what makes the PCR sensitive to
// policy substitution.
func (p *Platform) BootPolicyImage() []byte {
	if p.SC == nil {
		return nil
	}
	var img []byte
	for _, r := range p.bootRules {
		img = append(img, r.Marshal()...)
	}
	return img
}

// recordBootRule appends to the policy image measured at secure boot.
func (p *Platform) recordBootRule(r core.Rule) { p.bootRules = append(p.bootRules, r) }
