package xpu

import (
	"bytes"
	"testing"

	"ccai/internal/pcie"
)

// TestKernelWordwiseMatchesBytewise pins the word-wise element kernels
// to the ascending byte loop they replaced: every length 0–70 (so every
// tail length around one, and across eight, word steps), source and
// destination at every alignment within a word, every Param byte, and
// ranges that overlap in both directions and exactly.
func TestKernelWordwiseMatchesBytewise(t *testing.T) {
	const memSize = 512
	d := NewDevice(A100, pcie.MakeID(2, 0, 0), 0xf000_0000, memSize)
	seed := make([]byte, memSize)
	for i := range seed {
		seed[i] = byte(i*131 + 17)
	}
	kernels := []struct {
		id uint32
		op func(b, k byte) byte
	}{
		{KernelVecAddConst, func(b, k byte) byte { return b + k }},
		{KernelXORMask, func(b, k byte) byte { return b ^ k }},
	}
	// Destination offsets relative to the source: disjoint at every word
	// alignment, identical, and overlapping from either side by less and
	// by more than a word.
	const srcBase = 128
	dstOffs := []int{200, 201, 202, 203, 204, 205, 206, 207, 0, 1, 3, 8, 13, -1, -5, -8, -11}
	want := make([]byte, memSize)
	for _, kern := range kernels {
		for n := 0; n <= 70; n++ {
			for srcAlign := 0; srcAlign < 8; srcAlign++ {
				for _, off := range dstOffs {
					src := srcBase + srcAlign
					dst := src + off
					// Every Param byte on a sample of shapes, a spread of
					// them everywhere: 256 × the full cross product is slow
					// under -race and adds nothing the lanes do not share.
					step := 37
					if n == 70 || (srcAlign == 3 && off == 205) {
						step = 1
					}
					for k := 0; k < 256; k += step {
						copy(d.devMem, seed)
						copy(want, seed)
						for i := 0; i < n; i++ {
							want[dst+i] = kern.op(want[src+i], byte(k))
						}
						cmd := Command{Op: OpKernel, Param: kern.id<<16 | uint32(k), Src: uint64(src), Dst: uint64(dst), Len: uint64(n)}
						if !d.kernel(cmd) {
							t.Fatalf("kernel %d refused len=%d src=%d dst=%d", kern.id, n, src, dst)
						}
						if !bytes.Equal(d.devMem, want) {
							t.Fatalf("kernel %d len=%d src=%d dst=%d k=%#x: device memory differs from the byte loop", kern.id, n, src, dst, k)
						}
					}
				}
			}
		}
	}
}
