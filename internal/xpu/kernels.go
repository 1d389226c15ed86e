package xpu

import "encoding/binary"

// The element-wise reference kernels run eight bytes per iteration
// (SWAR: eight independent byte lanes in one uint64) with a byte tail.
// The result is byte-for-byte that of the ascending byte loop as long as
// src and dst do not overlap; when they do, an ascending byte loop feeds
// its own earlier stores back in as later loads, which no wider step
// reproduces, so overlapping ranges keep the byte loop.

const (
	swarLanes = 0x0101010101010101 // one in every byte lane
	swarLow7  = 0x7f7f7f7f7f7f7f7f // every lane's low seven bits
	swarHigh  = 0x8080808080808080 // every lane's top bit
)

// vecAddConst computes dst[i] = src[i] + k (mod 256). len(dst) == len(src).
func vecAddConst(dst, src []byte, k byte, overlap bool) {
	i := 0
	if !overlap {
		kk := uint64(k) * swarLanes
		for n := len(src) &^ 7; i < n; i += 8 {
			x := binary.LittleEndian.Uint64(src[i:])
			// Add the low seven bits of every lane — no carry can leave a
			// lane — then fold each lane's top bit in with XOR, which is
			// addition mod 2 with the carry out of the lane dropped.
			sum := ((x & swarLow7) + (kk & swarLow7)) ^ ((x ^ kk) & swarHigh)
			binary.LittleEndian.PutUint64(dst[i:], sum)
		}
	}
	for ; i < len(src); i++ {
		dst[i] = src[i] + k
	}
}

// xorMask computes dst[i] = src[i] ^ k. len(dst) == len(src).
func xorMask(dst, src []byte, k byte, overlap bool) {
	i := 0
	if !overlap {
		kk := uint64(k) * swarLanes
		for n := len(src) &^ 7; i < n; i += 8 {
			binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(src[i:])^kk)
		}
	}
	for ; i < len(src); i++ {
		dst[i] = src[i] ^ k
	}
}
