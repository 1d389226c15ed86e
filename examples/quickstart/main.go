// Quickstart: run one confidential task on a simulated A100 behind the
// PCIe Security Controller, then show the security properties that held
// while it ran: the untrusted bus never saw the plaintext, and the
// device was wiped at teardown.
package main

import (
	"bytes"
	"fmt"
	"log"

	"ccai"
	"ccai/internal/attack"
	"ccai/internal/xpu"
)

func main() {
	// 1. Assemble a protected platform: TVM + Adaptor + PCIe-SC + A100.
	plat, err := ccai.New(ccai.WithXPU(xpu.A100), ccai.WithMode(ccai.Protected))
	if err != nil {
		log.Fatal(err)
	}

	// 2. Establish trust: stream keys installed on the TVM and the
	//    PCIe-SC (in deployment this falls out of remote attestation;
	//    see examples/attestation).
	if err := plat.EstablishTrust(); err != nil {
		log.Fatal(err)
	}

	// 3. Put a bus snooper on the untrusted segment, as the paper's
	//    adversary would.
	snoop := attack.NewSnooper()
	plat.Host.AddTap(snoop)

	// 4. Run a confidential task through the unmodified native driver.
	secret := []byte("patient-837: tumor classifier input tensor")
	out, err := plat.RunTask(ccai.Task{Input: secret, Kernel: ccai.KernelXOR, Param: 0x00})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("task output matches input (XOR 0): %v\n", bytes.Equal(out, secret))

	// 5. The adversary saw traffic — but only ciphertext.
	fmt.Printf("snooper captured %d payload bytes on the untrusted bus\n", snoop.PayloadBytes())
	fmt.Printf("plaintext visible to the snooper:  %v\n", snoop.SawPlaintext(secret))

	// 6. Teardown: keys destroyed, xPU environment cleaned.
	plat.Close()
	fmt.Printf("workload residue on the device after teardown: %v\n", plat.Device.MemResidue())

	st := plat.SC.Stats()
	fmt.Printf("PCIe-SC: %d chunks decrypted, %d encrypted, %d A3 slots and writes verified, %d packets dropped\n",
		st.DecryptedChunks, st.EncryptedChunks, st.VerifiedChunks, st.Filter.Dropped)
}
