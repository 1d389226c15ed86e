// Tiny neural network inference through the confidential path: a
// two-layer int8 MLP whose weights and inputs cross the untrusted bus
// only as AES-GCM ciphertext, get decrypted inline by the PCIe-SC, and
// run on the simulated xPU's fully-connected kernel. The device output
// returns encrypted and is checked against a host-side reference
// implementation — the end-to-end "protect the model AND the input"
// story of the paper, functional and byte-exact.
package main

import (
	"bytes"
	"fmt"
	"log"

	"ccai"
	"ccai/internal/attack"
	"ccai/internal/sim"
	"ccai/internal/xpu"
)

const (
	inDim     = 64
	hiddenDim = 16
	outDim    = 4
)

// reference computes the same int8 matvec+relu the device kernel runs.
func reference(w []byte, x []byte, rows, cols int) []byte {
	out := make([]byte, rows)
	for r := 0; r < rows; r++ {
		var acc int32
		for c := 0; c < cols; c++ {
			acc += int32(int8(w[r*cols+c])) * int32(int8(x[c]))
		}
		acc >>= 6
		if acc < 0 {
			acc = 0
		}
		if acc > 127 {
			acc = 127
		}
		out[r] = byte(acc)
	}
	return out
}

func main() {
	// Deterministic "proprietary" weights.
	rng := sim.NewRand(2025)
	w1 := make([]byte, hiddenDim*inDim)
	w2 := make([]byte, outDim*hiddenDim)
	rng.Bytes(w1)
	rng.Bytes(w2)
	input := make([]byte, inDim)
	rng.Bytes(input)

	plat, err := ccai.New(ccai.WithXPU(xpu.A100), ccai.WithMode(ccai.Protected))
	if err != nil {
		log.Fatal(err)
	}
	defer plat.Close()
	if err := plat.EstablishTrust(); err != nil {
		log.Fatal(err)
	}
	snoop := attack.NewSnooper()
	plat.Host.AddTap(snoop)

	// Stage model + input through encrypted bounce buffers.
	model := append(append([]byte(nil), w1...), w2...)
	modelRegion, err := plat.Adaptor.StageH2D("mlp-weights", model)
	if err != nil {
		log.Fatal(err)
	}
	inputRegion, err := plat.Adaptor.StageH2D("mlp-input", input)
	if err != nil {
		log.Fatal(err)
	}
	outRegion, err := plat.Adaptor.PrepareD2H("mlp-scores", outDim)
	if err != nil {
		log.Fatal(err)
	}
	// The three regions ride the submission's one doorbell, and go back
	// to the SC with one more.
	defer plat.Adaptor.ReleaseRegion(modelRegion, inputRegion, outRegion)

	// Device memory plan: [W1 | x] for layer 1, [W2 | h] for layer 2.
	const (
		devW1 = 0x0000
		devX  = devW1 + hiddenDim*inDim
		devW2 = 0x2000
		devH  = devW2 + outDim*hiddenDim
		devY  = 0x3000
	)
	cmds := []xpu.Command{
		{Op: xpu.OpCopyH2D, Src: modelRegion.Buf.Base(), Dst: devW1, Len: hiddenDim * inDim},
		{Op: xpu.OpCopyH2D, Src: modelRegion.Buf.Base() + hiddenDim*inDim, Dst: devW2, Len: outDim * hiddenDim},
		{Op: xpu.OpCopyH2D, Src: inputRegion.Buf.Base(), Dst: devX, Len: inDim},
		{Op: xpu.OpKernel, Param: xpu.KernelMatVecRelu<<16 | inDim, Src: devW1, Dst: devH, Len: hiddenDim},
		{Op: xpu.OpKernel, Param: xpu.KernelMatVecRelu<<16 | hiddenDim, Src: devW2, Dst: devY, Len: outDim},
		{Op: xpu.OpCopyD2H, Src: devY, Dst: outRegion.Buf.Base(), Len: outDim},
	}
	if err := plat.Driver.Submit(cmds...); err != nil {
		log.Fatal(err)
	}
	head, err := plat.Driver.Head()
	if err != nil {
		log.Fatal(err)
	}
	if head != uint64(len(cmds)) {
		log.Fatalf("device executed %d/%d commands", head, len(cmds))
	}
	scores, err := plat.Adaptor.CollectD2H(outRegion, outDim)
	if err != nil {
		log.Fatal(err)
	}

	// Host-side reference.
	hidden := reference(w1, input, hiddenDim, inDim)
	want := reference(w2, hidden, outDim, hiddenDim)

	fmt.Printf("device scores:    %v\n", scores)
	fmt.Printf("reference scores: %v\n", want)
	fmt.Printf("match: %v\n", bytes.Equal(scores, want))
	fmt.Printf("weights visible to bus snooper: %v\n", snoop.SawPlaintext(w1[:48]))
	fmt.Printf("input visible to bus snooper:   %v\n", snoop.SawPlaintext(input[:48]))
	st := plat.SC.Stats()
	fmt.Printf("PCIe-SC: %d chunks decrypted inline, %d results encrypted\n",
		st.DecryptedChunks, st.EncryptedChunks)
}
