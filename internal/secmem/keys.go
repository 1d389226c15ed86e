package secmem

import (
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"hash"
	"sync"
)

// KeyStore holds the symmetric workload keys shared between a TVM and
// its PCIe-SC (§6 "Workload key management"). Keys live only inside a
// trust module on each side; teardown destroys them so a captured
// device cannot decrypt recorded traffic afterwards.
type KeyStore struct {
	mu      sync.Mutex
	entries map[string]*keyEntry
}

type keyEntry struct {
	key   []byte
	nonce []byte
	// mac is the lazily built, reusable HMAC-SHA256 state for MACSum;
	// msg and sum are its reusable input and output scratch. All three
	// are guarded by ks.mu and die with the entry (Install replaces the
	// entry, so a fresh key can never reuse a stale HMAC state).
	mac hash.Hash
	msg []byte
	sum []byte
	// aead is the lazily built AES-GCM instance for this key epoch.
	// Streams handed out by Stream share it, so the AES key schedule
	// runs once per Install instead of once per Stream call. Like mac,
	// it is guarded by ks.mu and dies with the entry — Install replaces
	// the entry wholesale, so a rekeyed stream can never be served a
	// cipher from the previous epoch.
	aead cipher.AEAD
}

// NewKeyStore returns an empty store.
func NewKeyStore() *KeyStore {
	return &KeyStore{entries: make(map[string]*keyEntry)}
}

// Install stores key material for a named stream (e.g. "h2d", "d2h",
// "config"). The slices are copied.
func (ks *KeyStore) Install(name string, key, nonce []byte) error {
	if len(key) != KeySize {
		return fmt.Errorf("secmem: key %q must be %d bytes", name, KeySize)
	}
	if len(nonce) != nonceBase {
		return fmt.Errorf("secmem: nonce base %q must be %d bytes", name, nonceBase)
	}
	ks.mu.Lock()
	defer ks.mu.Unlock()
	ks.entries[name] = &keyEntry{
		key:   append([]byte(nil), key...),
		nonce: append([]byte(nil), nonce...),
	}
	return nil
}

// Stream constructs a protected Stream from stored material. The
// underlying AES-GCM instance is cached per key epoch: repeated calls
// (re-establishment after teardown, multi-tenant activation storms)
// reuse one expanded key schedule until Install rotates the entry.
func (ks *KeyStore) Stream(name string) (*Stream, error) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	e, ok := ks.entries[name]
	if !ok {
		return nil, fmt.Errorf("secmem: no key material for stream %q", name)
	}
	if e.aead == nil {
		aead, err := newAEAD(e.key)
		if err != nil {
			return nil, err
		}
		e.aead = aead
	}
	return NewStreamAEAD(e.aead, e.nonce)
}

// Material returns copies of the stored key and nonce base.
func (ks *KeyStore) Material(name string) (key, nonce []byte, err error) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	e, ok := ks.entries[name]
	if !ok {
		return nil, nil, fmt.Errorf("secmem: no key material for stream %q", name)
	}
	return append([]byte(nil), e.key...), append([]byte(nil), e.nonce...), nil
}

// MACSum computes the A3 integrity MAC over (header, payload) under
// the named stream's key without copying the key out of the store and
// without constructing a fresh HMAC per call: the per-entry HMAC state
// is cached and Reset between uses. ks.mu is a leaf lock, so callers
// may hold their own locks across this call. The message is assembled
// in store-owned scratch before it meets the hash.Hash interface, so a
// caller's stack arrays stay on the stack: the steady-state cost is zero
// allocations on both sides of the call. The scratch holds only bytes
// the bus carries in the clear (A3 is integrity-only).
func (ks *KeyStore) MACSum(name string, header, payload []byte) ([32]byte, error) {
	var out [32]byte
	ks.mu.Lock()
	defer ks.mu.Unlock()
	e, ok := ks.entries[name]
	if !ok {
		return out, fmt.Errorf("secmem: no key material for stream %q", name)
	}
	if e.mac == nil {
		e.mac = hmac.New(sha256.New, e.key)
	}
	e.mac.Reset()
	e.msg = append(append(e.msg[:0], header...), payload...)
	e.mac.Write(e.msg)
	e.sum = e.mac.Sum(e.sum[:0])
	copy(out[:], e.sum)
	return out, nil
}

// Has reports whether material exists for the stream.
func (ks *KeyStore) Has(name string) bool {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	_, ok := ks.entries[name]
	return ok
}

// Destroy zeroizes and removes one stream's material.
func (ks *KeyStore) Destroy(name string) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if e, ok := ks.entries[name]; ok {
		zeroize(e.key)
		zeroize(e.nonce)
		delete(ks.entries, name)
	}
}

// DestroyAll zeroizes everything — task teardown per §6 ("securely
// destroy shared symmetric keys").
func (ks *KeyStore) DestroyAll() {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	for name, e := range ks.entries {
		zeroize(e.key)
		zeroize(e.nonce)
		delete(ks.entries, name)
	}
}

// Count reports how many streams hold material.
func (ks *KeyStore) Count() int {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	return len(ks.entries)
}

func zeroize(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// FreshKey generates a random AES key.
func FreshKey() []byte {
	k := make([]byte, KeySize)
	if _, err := rand.Read(k); err != nil {
		panic(fmt.Sprintf("secmem: entropy failure: %v", err))
	}
	return k
}

// FreshNonce generates a random 8-byte nonce base.
func FreshNonce() []byte {
	n := make([]byte, nonceBase)
	if _, err := rand.Read(n); err != nil {
		panic(fmt.Sprintf("secmem: entropy failure: %v", err))
	}
	return n
}
