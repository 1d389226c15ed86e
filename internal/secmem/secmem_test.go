package secmem

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func testStreamPair(t *testing.T) (*Stream, *Stream) {
	t.Helper()
	key := FreshKey()
	nonce := FreshNonce()
	tx, err := NewStream(key, nonce)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewStream(key, nonce)
	if err != nil {
		t.Fatal(err)
	}
	return tx, rx
}

func TestSealOpenRoundTrip(t *testing.T) {
	tx, rx := testStreamPair(t)
	aad := []byte("MWr addr=0x1000")
	sealed, err := tx.Seal([]byte("model weights"), aad)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := rx.Open(sealed, aad)
	if err != nil {
		t.Fatal(err)
	}
	if string(pt) != "model weights" {
		t.Fatalf("plaintext = %q", pt)
	}
}

func TestCiphertextDiffersFromPlaintext(t *testing.T) {
	tx, _ := testStreamPair(t)
	msg := []byte("sensitive prompt: my diagnosis history")
	sealed, _ := tx.Seal(msg, nil)
	if bytes.Contains(sealed.Ciphertext, msg[:8]) {
		t.Fatal("ciphertext leaks plaintext prefix")
	}
}

func TestSameplaintextDistinctCiphertexts(t *testing.T) {
	tx, _ := testStreamPair(t)
	a, _ := tx.Seal([]byte("repeat"), nil)
	b, _ := tx.Seal([]byte("repeat"), nil)
	if bytes.Equal(a.Ciphertext, b.Ciphertext) {
		t.Fatal("IV counter not advancing: identical ciphertexts")
	}
}

func TestTamperedCiphertextRejected(t *testing.T) {
	tx, rx := testStreamPair(t)
	sealed, _ := tx.Seal([]byte("payload"), nil)
	sealed.Ciphertext[0] ^= 1
	if _, err := rx.Open(sealed, nil); !errors.Is(err, ErrAuth) {
		t.Fatalf("tampered ciphertext accepted: %v", err)
	}
}

func TestTamperedTagRejected(t *testing.T) {
	tx, rx := testStreamPair(t)
	sealed, _ := tx.Seal([]byte("payload"), nil)
	sealed.Tag[3] ^= 0x80
	if _, err := rx.Open(sealed, nil); !errors.Is(err, ErrAuth) {
		t.Fatalf("tampered tag accepted: %v", err)
	}
}

func TestAADBindingEnforced(t *testing.T) {
	tx, rx := testStreamPair(t)
	sealed, _ := tx.Seal([]byte("payload"), []byte("addr=0x1000"))
	if _, err := rx.Open(sealed, []byte("addr=0x9999")); !errors.Is(err, ErrAuth) {
		t.Fatalf("rerouted packet (changed AAD) accepted: %v", err)
	}
}

func TestReplayRejected(t *testing.T) {
	tx, rx := testStreamPair(t)
	sealed, _ := tx.Seal([]byte("one"), nil)
	if _, err := rx.Open(sealed, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rx.Open(sealed, nil); !errors.Is(err, ErrReplay) {
		t.Fatalf("replay accepted: %v", err)
	}
}

func TestReorderRejected(t *testing.T) {
	tx, rx := testStreamPair(t)
	first, _ := tx.Seal([]byte("one"), nil)
	second, _ := tx.Seal([]byte("two"), nil)
	if _, err := rx.Open(second, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rx.Open(first, nil); !errors.Is(err, ErrReplay) {
		t.Fatalf("out-of-order packet accepted: %v", err)
	}
}

func TestWrongKeyRejected(t *testing.T) {
	tx, _ := testStreamPair(t)
	other, err := NewStream(FreshKey(), FreshNonce())
	if err != nil {
		t.Fatal(err)
	}
	sealed, _ := tx.Seal([]byte("secret"), nil)
	sealed2 := *sealed
	if _, err := other.Open(&sealed2, nil); !errors.Is(err, ErrAuth) {
		t.Fatalf("foreign key decrypted stream: %v", err)
	}
}

func TestIVExhaustionForcesRekey(t *testing.T) {
	tx, _ := testStreamPair(t)
	tx.ForceCounter(^uint32(0) - 1)
	if _, err := tx.Seal([]byte("last"), nil); err != nil {
		t.Fatalf("penultimate counter failed: %v", err)
	}
	if _, err := tx.Seal([]byte("overflow"), nil); !errors.Is(err, ErrIVExhausted) {
		t.Fatalf("IV exhaustion not detected: %v", err)
	}
	if tx.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", tx.Remaining())
	}
}

func TestRekeyResetsAndIsolatesEpochs(t *testing.T) {
	key, nonce := FreshKey(), FreshNonce()
	tx, _ := NewStream(key, nonce)
	rx, _ := NewStream(key, nonce)
	old, _ := tx.Seal([]byte("pre-rekey"), nil)

	k2, n2 := FreshKey(), FreshNonce()
	if err := tx.Rekey(k2, n2); err != nil {
		t.Fatal(err)
	}
	if err := rx.Rekey(k2, n2); err != nil {
		t.Fatal(err)
	}
	if tx.Epoch() != 1 || tx.SendCounter() != 0 {
		t.Fatalf("epoch=%d ctr=%d after rekey", tx.Epoch(), tx.SendCounter())
	}
	// A pre-rekey chunk must not open post-rekey (epoch pinning).
	if _, err := rx.Open(old, nil); !errors.Is(err, ErrReplay) {
		t.Fatalf("cross-epoch replay accepted: %v", err)
	}
	fresh, _ := tx.Seal([]byte("post-rekey"), nil)
	if pt, err := rx.Open(fresh, nil); err != nil || string(pt) != "post-rekey" {
		t.Fatalf("post-rekey traffic broken: %v", err)
	}
}

func TestStreamValidatesMaterial(t *testing.T) {
	if _, err := NewStream(make([]byte, 7), FreshNonce()); err == nil {
		t.Fatal("short key accepted")
	}
	if _, err := NewStream(FreshKey(), make([]byte, 3)); err == nil {
		t.Fatal("short nonce accepted")
	}
}

// Property: every payload round-trips under matching streams.
func TestSealOpenProperty(t *testing.T) {
	key, nonce := FreshKey(), FreshNonce()
	tx, _ := NewStream(key, nonce)
	rx, _ := NewStream(key, nonce)
	f := func(payload, aad []byte) bool {
		sealed, err := tx.Seal(payload, aad)
		if err != nil {
			return false
		}
		pt, err := rx.Open(sealed, aad)
		return err == nil && bytes.Equal(pt, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// --- key store -------------------------------------------------------------

func TestKeyStoreLifecycle(t *testing.T) {
	ks := NewKeyStore()
	if err := ks.Install("h2d", FreshKey(), FreshNonce()); err != nil {
		t.Fatal(err)
	}
	if ks.Count() != 1 {
		t.Fatal("installed key missing")
	}
	if _, err := ks.Stream("h2d"); err != nil {
		t.Fatal(err)
	}
	if _, err := ks.Stream("d2h"); err == nil {
		t.Fatal("missing stream constructed")
	}
	ks.DestroyAll()
	if _, err := ks.Stream("h2d"); err == nil {
		t.Fatal("destroyed key still present")
	}
}

func TestKeyStoreDestroyAll(t *testing.T) {
	ks := NewKeyStore()
	for _, n := range []string{"h2d", "d2h", "config"} {
		if err := ks.Install(n, FreshKey(), FreshNonce()); err != nil {
			t.Fatal(err)
		}
	}
	ks.DestroyAll()
	if ks.Count() != 0 {
		t.Fatalf("count = %d after DestroyAll", ks.Count())
	}
}

func TestKeyStoreRejectsBadMaterial(t *testing.T) {
	ks := NewKeyStore()
	if err := ks.Install("x", make([]byte, 5), FreshNonce()); err == nil {
		t.Fatal("bad key accepted")
	}
	if err := ks.Install("x", FreshKey(), make([]byte, 2)); err == nil {
		t.Fatal("bad nonce accepted")
	}
}

func TestKeyStoreSharedMaterialInterops(t *testing.T) {
	ks := NewKeyStore()
	if err := ks.Install("h2d", FreshKey(), FreshNonce()); err != nil {
		t.Fatal(err)
	}
	tx, _ := ks.Stream("h2d")
	rx, _ := ks.Stream("h2d")
	sealed, _ := tx.Seal([]byte("hello"), nil)
	if pt, err := rx.Open(sealed, nil); err != nil || string(pt) != "hello" {
		t.Fatalf("store-derived streams don't interoperate: %v", err)
	}
}

// TestKeyStoreMaterialCopies: the store keeps copies of the key and
// nonce it is given, so a caller reusing its buffers changes nothing
// the store's streams seal under.
func TestKeyStoreMaterialCopies(t *testing.T) {
	ks := NewKeyStore()
	key, nonce := FreshKey(), FreshNonce()
	if err := ks.Install("s", key, nonce); err != nil {
		t.Fatal(err)
	}
	rx, err := NewStream(key, nonce)
	if err != nil {
		t.Fatal(err)
	}
	key[0] ^= 1
	nonce[0] ^= 1
	tx, err := ks.Stream("s")
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := tx.Seal([]byte("kept"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if pt, err := rx.Open(sealed, nil); err != nil || string(pt) != "kept" {
		t.Fatalf("the store aliases its caller's material: %v", err)
	}
}
