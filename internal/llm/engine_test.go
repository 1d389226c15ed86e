package llm

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func TestConfigNormalizeAndChunks(t *testing.T) {
	c := Config{MaxNewTokens: 10}
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	if c.ChunkTokens != DefaultChunkTokens || c.TokenBytes != DefaultTokenBytes || c.KVBytesPerToken != DefaultKVBytesPerToken {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if got := c.Chunks(); got != 2 {
		t.Fatalf("Chunks = %d, want 2", got)
	}
	if got := c.ChunkSpan(0); got != 8 {
		t.Fatalf("ChunkSpan(0) = %d, want 8", got)
	}
	if got := c.ChunkSpan(1); got != 2 {
		t.Fatalf("ChunkSpan(1) = %d, want 2", got)
	}
	bad := Config{}
	if err := bad.Normalize(); err == nil {
		t.Fatal("zero MaxNewTokens accepted")
	}
}

func TestTokenMaterialDeterministic(t *testing.T) {
	d := Digest(42, []byte("the quick brown fox"))
	if d != Digest(42, []byte("the quick brown fox")) {
		t.Fatal("digest not stable")
	}
	if d == Digest(43, []byte("the quick brown fox")) {
		t.Fatal("digest ignores seed")
	}
	kv := KVInit(d, 512)
	kv2 := KVInit(d, 512)
	for i := range kv {
		if kv[i] != kv2[i] {
			t.Fatal("KVInit not deterministic")
		}
	}
	for chunk := 0; chunk < 4; chunk++ {
		if StepKey(d, chunk) == 0 {
			t.Fatalf("chunk %d: identity step key", chunk)
		}
		off := StepOffset(d, chunk, 512, 32)
		if off < 0 || off+32 > 512 {
			t.Fatalf("chunk %d: offset %d out of bounds", chunk, off)
		}
		exp := ExpectedChunk(kv, d, chunk, 32)
		for i, b := range exp {
			if b != kv[off+int64(i)]^StepKey(d, chunk) {
				t.Fatalf("chunk %d byte %d mismatch", chunk, i)
			}
		}
	}
	ids := TokenIDs(nil, d, 1, 8, 4)
	if len(ids) != 32 {
		t.Fatalf("TokenIDs len %d, want 32", len(ids))
	}
}

// TestStepLogIsBounded drives 10,000 steps through one engine: the
// dispatch log keeps the last StepLogCap records in order, the newest
// last, and Requeue still drops exactly the newest after the ring wrapped.
func TestStepLogIsBounded(t *testing.T) {
	e, err := NewEngine(EngineConfig{KVBudget: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	const steps = 10000
	s, err := e.Admit(Config{MaxNewTokens: steps, ChunkTokens: 1, KVBytesPerToken: 1}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(s); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		st, ok := e.Next(nil)
		if !ok || st.Chunk != i {
			t.Fatalf("step %d: got %+v, %v", i, st, ok)
		}
		if i == steps-1 {
			// Claimed but not executed: the record must leave the log again.
			e.Requeue(st)
			if st, ok = e.Next(nil); !ok || st.Chunk != i {
				t.Fatalf("requeued step %d came back as %+v, %v", i, st, ok)
			}
		}
		if e.Complete(st) != (i < steps-1) {
			t.Fatalf("step %d: wrong more-steps verdict", i)
		}
	}
	log := e.StepLog()
	if len(log) != StepLogCap {
		t.Fatalf("%d records retained after %d steps, want %d", len(log), steps, StepLogCap)
	}
	for i, r := range log {
		if want := steps - StepLogCap + i; r.Chunk != want || r.Session != s.ID {
			t.Fatalf("log[%d] = %+v, want chunk %d of session %d", i, r, want, s.ID)
		}
	}
}

// TestKVInitWordwiseMatchesByteStream pins the KV image's definition —
// byte i is byte i%8 of mix64(digest + i/8) — against KVInit's
// word-wise fill, for lengths on and off a word boundary.
func TestKVInitWordwiseMatchesByteStream(t *testing.T) {
	for _, n := range []int64{0, 1, 7, 8, 9, 33, 4096, 65280, 65283} {
		got := KVInit(0xfeedface, n)
		if int64(len(got)) != n {
			t.Fatalf("KVInit(%d) returned %d bytes", n, len(got))
		}
		for i, b := range got {
			if want := byte(mix64(0xfeedface+uint64(i/8)) >> (8 * (i % 8))); b != want {
				t.Fatalf("KVInit(%d)[%d] = %#x, want %#x", n, i, b, want)
			}
		}
	}
}

// kvInitWordwise is the one-word-per-iteration fill KVInitInto unrolled:
// the reference its four-word loop must match byte for byte.
func kvInitWordwise(dst []byte, digest uint64) {
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], mix64(digest+uint64(i/8)))
	}
	for w := mix64(digest + uint64(i/8)); i < len(dst); i++ {
		dst[i] = byte(w)
		w >>= 8
	}
}

// TestKVInitIntoMatchesWordwise holds KVInitInto to the word-at-a-time
// loop for every length 0–100 (each tail of the four-word, one-word and
// byte loops) and the two KV images the benchmark shapes stage. It fills
// a dirty buffer and writes nothing past len(dst); KVInit is the same
// bytes in a fresh slice.
func TestKVInitIntoMatchesWordwise(t *testing.T) {
	lengths := []int{33792, 65280}
	for n := 0; n <= 100; n++ {
		lengths = append(lengths, n)
	}
	const digest, guard = 0x5eed0fc0ffee, 0xa5
	for _, n := range lengths {
		want := make([]byte, n)
		kvInitWordwise(want, digest)
		buf := bytes.Repeat([]byte{guard}, n+8)
		KVInitInto(buf[:n], digest)
		if !bytes.Equal(buf[:n], want) {
			t.Fatalf("KVInitInto(%d bytes) differs from the word-at-a-time fill", n)
		}
		if !bytes.Equal(buf[n:], bytes.Repeat([]byte{guard}, 8)) {
			t.Fatalf("KVInitInto(%d bytes) wrote past its buffer", n)
		}
		if !bytes.Equal(KVInit(digest, int64(n)), want) {
			t.Fatalf("KVInit(%d) differs from KVInitInto", n)
		}
	}
}

// BenchmarkKVInitInto fills the llm-prefill workload's 65,280-byte KV
// image; BenchmarkKVInitWordwise is the one-word loop it replaced.
func BenchmarkKVInitInto(b *testing.B)     { benchKVFill(b, KVInitInto) }
func BenchmarkKVInitWordwise(b *testing.B) { benchKVFill(b, kvInitWordwise) }

func benchKVFill(b *testing.B, fill func([]byte, uint64)) {
	dst := make([]byte, 65280)
	b.SetBytes(int64(len(dst)))
	for i := 0; i < b.N; i++ {
		fill(dst, uint64(i))
	}
}
