package llm

import "encoding/binary"

// Deterministic token material for the serving datapath. Real decode
// output depends on model weights; here the stream is a seeded function
// of (prompt, seed) with one crucial property preserved: every decode
// chunk is computed *on the device, from the device-resident KV bytes*
// (a keyed XOR window over the KV region), so the host-side expected
// stream below only matches if the KV-cache actually survived, sealed,
// in device memory across every step. Tests and the soak oracle lean on
// that: byte-identical streams across runs ⇒ determinism; any KV
// corruption or stale re-stage ⇒ a visible mismatch.

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// Digest condenses (seed, prompt) into the session's generator state
// via FNV-1a — stable across runs and platforms.
func Digest(seed uint64, prompt []byte) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < 8; i++ {
		h ^= (seed >> (8 * i)) & 0xff
		h *= fnvPrime64
	}
	for _, b := range prompt {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	if h == 0 {
		h = fnvOffset64
	}
	return h
}

// mix64 is splitmix64's finalizer: a cheap, well-distributed PRF over
// the digest and a step index.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// KVInit derives the session's initial KV-cache image: n bytes of
// splitmix64 stream keyed by the digest. Prefill derives the same bytes
// with KVInitInto into a buffer of its own; oracles build theirs here.
func KVInit(digest uint64, n int64) []byte {
	out := make([]byte, n)
	KVInitInto(out, digest)
	return out
}

// KVInitInto fills dst with the first len(dst) bytes of the KV image:
// byte i is byte i%8 of mix64(digest + i/8), little-endian. Four words
// go out per iteration behind one bounds check; the tail of an image
// that is not a multiple of eight takes the low bytes of the next word.
func KVInitInto(dst []byte, digest uint64) {
	w := digest
	for len(dst) >= 32 {
		q := (*[32]byte)(dst)
		binary.LittleEndian.PutUint64(q[0:], mix64(w))
		binary.LittleEndian.PutUint64(q[8:], mix64(w+1))
		binary.LittleEndian.PutUint64(q[16:], mix64(w+2))
		binary.LittleEndian.PutUint64(q[24:], mix64(w+3))
		dst, w = dst[32:], w+4
	}
	for ; len(dst) >= 8; dst, w = dst[8:], w+1 {
		binary.LittleEndian.PutUint64(dst, mix64(w))
	}
	for i, x := 0, mix64(w); i < len(dst); i, x = i+1, x>>8 {
		dst[i] = byte(x)
	}
}

// StepKey is the XOR key the device kernel applies for chunk idx.
func StepKey(digest uint64, chunk int) byte {
	k := byte(mix64(digest ^ (uint64(chunk)+1)*0x9e3779b97f4a7c15))
	if k == 0 {
		k = 0xa5 // never the identity: silent-corruption oracles need dst≠src
	}
	return k
}

// StepOffset is the KV-region window chunk idx reads: deterministic,
// in-bounds for a window of span bytes.
func StepOffset(digest uint64, chunk int, kvLen, span int64) int64 {
	if kvLen <= span {
		return 0
	}
	return int64(mix64(digest+0x5bd1e995*uint64(chunk+1)) % uint64(kvLen-span+1))
}

// TokenIDs is the small host→device payload for one decode step: the
// token ids "sampled" for chunk idx, tokens×tokenBytes wide. They are
// written into dst's backing array when it is large enough (a session
// passes the same scratch every step), else into a fresh one.
func TokenIDs(dst []byte, digest uint64, chunk, tokens, tokenBytes int) []byte {
	out := dst[:0]
	if n := tokens * tokenBytes; cap(out) >= n {
		out = out[:n]
	} else {
		out = make([]byte, n)
	}
	for t := 0; t < tokens; t++ {
		w := mix64(digest ^ uint64(chunk)<<20 ^ uint64(t))
		for b := 0; b < tokenBytes; b++ {
			out[t*tokenBytes+b] = byte(w >> (8 * b))
		}
	}
	return out
}

// ExpectedChunk computes, host-side, the bytes the device must produce
// for chunk idx: the chunk's KV window XORed with its step key. kv is
// the session's KVInit image; span the chunk's wire size.
func ExpectedChunk(kv []byte, digest uint64, chunk int, span int64) []byte {
	off := StepOffset(digest, chunk, int64(len(kv)), span)
	key := StepKey(digest, chunk)
	out := make([]byte, span)
	for i := range out {
		out[i] = kv[off+int64(i)] ^ key
	}
	return out
}
