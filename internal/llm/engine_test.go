package llm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"ccai/internal/sched"
)

func testCfg(maxNew int) Config {
	return Config{MaxNewTokens: maxNew, ChunkTokens: 4, Seed: 7}
}

// drain runs the engine's dispatch loop to completion for the given
// sessions, returning the executed step log.
func drainEngine(t *testing.T, e *Engine, sessions []*SessionState) []StepRecord {
	t.Helper()
	for _, s := range sessions {
		if err := e.Start(s); err != nil {
			t.Fatalf("Start: %v", err)
		}
	}
	live := len(sessions)
	stop := make(chan struct{})
	for live > 0 {
		st, ok := e.Next(stop)
		if !ok {
			t.Fatalf("Next returned !ok with %d sessions live", live)
		}
		if !e.Complete(st) {
			live--
		}
	}
	return e.StepLog()
}

func TestEngineInterleavesSessions(t *testing.T) {
	e, err := NewEngine(EngineConfig{MaxSessions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	a, err := e.Admit(testCfg(16), 8, nil) // 4 chunks
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Admit(testCfg(16), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	log := drainEngine(t, e, []*SessionState{a, b})

	if want := 2 * 4; len(log) != want {
		t.Fatalf("got %d steps, want %d", len(log), want)
	}
	// Chunk 0 of each session is a prefill, rest decode; chunks arrive
	// in order per session.
	next := map[uint64]int{}
	for i, r := range log {
		if r.Chunk != next[r.Session] {
			t.Fatalf("step %d: session %d chunk %d, want %d", i, r.Session, r.Chunk, next[r.Session])
		}
		next[r.Session]++
		wantKind := StepDecode
		if r.Chunk == 0 {
			wantKind = StepPrefill
		}
		if r.Kind != wantKind {
			t.Fatalf("step %d: kind %v, want %v", i, r.Kind, wantKind)
		}
	}
	// Yield must interleave: session a's decode steps cannot all run
	// before b's prefill ever dispatches. Count the longest same-session
	// run; with two equal-weight flows it must be short.
	longest, run := 0, 0
	var prev uint64
	for _, r := range log {
		if r.Session == prev {
			run++
		} else {
			run, prev = 1, r.Session
		}
		if run > longest {
			longest = run
		}
	}
	if longest > 2 {
		t.Fatalf("longest same-session dispatch run %d; Yield is not interleaving", longest)
	}
}

func TestEngineDeterministicStepLog(t *testing.T) {
	run := func() ([]StepRecord, []uint64) {
		e, err := NewEngine(EngineConfig{MaxSessions: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		var ss []*SessionState
		for i := 0; i < 3; i++ {
			s, err := e.Admit(testCfg(8+4*i), 4+i, nil)
			if err != nil {
				t.Fatal(err)
			}
			ss = append(ss, s)
		}
		var ids []uint64 // minted in admission order
		for _, s := range ss {
			ids = append(ids, s.ID)
		}
		return drainEngine(t, e, ss), ids
	}
	log1, adm1 := run()
	log2, adm2 := run()
	if len(log1) != len(log2) {
		t.Fatalf("step counts differ: %d vs %d", len(log1), len(log2))
	}
	for i := range log1 {
		if log1[i] != log2[i] {
			t.Fatalf("step %d differs: %+v vs %+v", i, log1[i], log2[i])
		}
	}
	for i := range adm1 {
		if adm1[i] != adm2[i] {
			t.Fatalf("admit order differs at %d: %d vs %d", i, adm1[i], adm2[i])
		}
	}
}

func TestEngineKVBudget(t *testing.T) {
	cfg := testCfg(16)
	cfg.KVBytesPerToken = 64
	perSession := cfg.KVBytes(8) // (8+16)*64 = 1536
	e, err := NewEngine(EngineConfig{KVBudget: 2*perSession + 1, MaxSessions: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	a, err := e.Admit(cfg, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Admit(cfg, 8, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Admit(cfg, 8, nil); !errors.Is(err, ErrKVBudget) {
		t.Fatalf("third admit: got %v, want ErrKVBudget", err)
	}
	if got := e.KVInUse(); got != 2*perSession {
		t.Fatalf("KVInUse %d, want %d", got, 2*perSession)
	}
	// Release frees budget; admission succeeds again. Idempotent.
	e.Release(a)
	e.Release(a)
	if got := e.KVInUse(); got != perSession {
		t.Fatalf("KVInUse after release %d, want %d", got, perSession)
	}
	if _, err := e.Admit(cfg, 8, nil); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
}

func TestEngineSlotExhaustion(t *testing.T) {
	e, err := NewEngine(EngineConfig{MaxSessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s1, _ := e.Admit(testCfg(8), 4, nil)
	if _, err := e.Admit(testCfg(8), 4, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Admit(testCfg(8), 4, nil); !errors.Is(err, sched.ErrQueueFull) {
		t.Fatalf("got %v, want sched.ErrQueueFull", err)
	}
	e.Release(s1)
	if _, err := e.Admit(testCfg(8), 4, nil); err != nil {
		t.Fatalf("admit after slot release: %v", err)
	}
}

func TestEngineReleaseCancelsQueued(t *testing.T) {
	e, err := NewEngine(EngineConfig{MaxSessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s, _ := e.Admit(testCfg(8), 4, nil)
	if err := e.Start(s); err != nil {
		t.Fatal(err)
	}
	e.Release(s)
	// Nothing must dispatch for a released session.
	e.Close()
	stop := make(chan struct{})
	if st, ok := e.Next(stop); ok {
		t.Fatalf("dispatched step %+v for released session", st)
	}
}

func TestEngineRequeueKeepsLogExact(t *testing.T) {
	e, err := NewEngine(EngineConfig{MaxSessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s, _ := e.Admit(testCfg(8), 4, nil) // 2 chunks
	if err := e.Start(s); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	st, ok := e.Next(stop)
	if !ok {
		t.Fatal("no step")
	}
	e.Requeue(st) // injected stall: dispatch undone, log rewound
	if got := len(e.StepLog()); got != 0 {
		t.Fatalf("log has %d records after requeue, want 0", got)
	}
	for {
		st, ok := e.Next(stop)
		if !ok {
			t.Fatal("Next returned !ok before session finished")
		}
		if !e.Complete(st) {
			break
		}
	}
	log := e.StepLog()
	want := []StepRecord{
		{Session: s.ID, Kind: StepPrefill, Chunk: 0},
		{Session: s.ID, Kind: StepDecode, Chunk: 1},
	}
	if len(log) != len(want) {
		t.Fatalf("log %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log[%d] = %+v, want %+v", i, log[i], want[i])
		}
	}

	// Two sessions: another session's step is claimed after the one
	// that is requeued, so the requeued step's claim is not the newest.
	// Each step is still logged exactly once, when it is settled.
	e2, err := NewEngine(EngineConfig{MaxSessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	a, _ := e2.Admit(testCfg(8), 4, nil)
	b, _ := e2.Admit(testCfg(8), 4, nil)
	for _, s := range []*SessionState{a, b} {
		if err := e2.Start(s); err != nil {
			t.Fatal(err)
		}
	}
	stA, okA := e2.Next(stop)
	stB, okB := e2.Next(stop)
	if !okA || !okB || stA.S != a || stB.S != b {
		t.Fatalf("claims %+v, %+v: want session %d then %d", stA, stB, a.ID, b.ID)
	}
	e2.Requeue(stA)
	live := 2
	if !e2.Complete(stB) {
		live--
	}
	for live > 0 {
		st, ok := e2.Next(stop)
		if !ok {
			t.Fatalf("Next returned !ok with %d sessions live", live)
		}
		if !e2.Complete(st) {
			live--
		}
	}
	log = e2.StepLog()
	seen := make(map[StepRecord]int)
	for _, r := range log {
		seen[r]++
	}
	if len(log) != 4 || len(seen) != 4 {
		t.Fatalf("log %v: want each of the 4 steps once", log)
	}
	if first := (StepRecord{Session: b.ID, Kind: StepPrefill, Chunk: 0}); log[0] != first {
		t.Fatalf("log[0] = %+v, want %+v: the requeued step settled later", log[0], first)
	}
}

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
