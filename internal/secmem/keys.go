package secmem

import (
	"crypto/cipher"
	"crypto/rand"
	"fmt"
	"sync"
	"sync/atomic"
)

// KeyStore holds the symmetric workload keys shared between a TVM and
// its PCIe-SC (§6 "Workload key management"). Keys live only inside a
// trust module on each side; teardown destroys them so a captured
// device cannot decrypt recorded traffic afterwards. All methods are
// safe for concurrent use.
type KeyStore struct {
	// mu serializes the writers (Install, DestroyAll) and guards every
	// read of an entry's nonce bytes (Stream), so a DestroyAll never
	// zeroes bytes a reader is copying.
	mu sync.Mutex
	// table is the live entries. A writer publishes a new slice under mu
	// and never changes a published one, so lookups (GMAC, Count) read it
	// with no lock.
	table atomic.Pointer[[]*keyEntry]
}

type keyEntry struct {
	name  string
	key   []byte
	nonce []byte
	// aead is the entry's AES-GCM instance, built by Install and never
	// changed. Streams handed out by Stream share it, so the AES key
	// schedule runs once per Install instead of once per Stream call, and
	// GMAC reads it with no lock. It dies with the entry (Install replaces
	// the entry), so a rekeyed stream can never be served a cipher from
	// the previous epoch.
	aead cipher.AEAD
}

// NewKeyStore returns an empty store.
func NewKeyStore() *KeyStore {
	ks := &KeyStore{}
	ks.table.Store(new([]*keyEntry))
	return ks
}

// find returns the live entry for name, nil when there is none.
func (ks *KeyStore) find(name string) *keyEntry {
	for _, e := range *ks.table.Load() {
		if e.name == name {
			return e
		}
	}
	return nil
}

// publish replaces the entry for e.name with e (e nil: removes name).
// Callers hold ks.mu.
func (ks *KeyStore) publish(name string, e *keyEntry) {
	old := *ks.table.Load()
	next := make([]*keyEntry, 0, len(old)+1)
	for _, o := range old {
		if o.name != name {
			next = append(next, o)
		}
	}
	if e != nil {
		next = append(next, e)
	}
	ks.table.Store(&next)
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
	aead, err := newAEAD(key)
	if err != nil {
		return err
	}
	ks.mu.Lock()
	defer ks.mu.Unlock()
	ks.publish(name, &keyEntry{
		name:  name,
		key:   append([]byte(nil), key...),
		nonce: append([]byte(nil), nonce...),
		aead:  aead,
	})
	return nil
}

// Stream constructs a protected Stream from stored material. The
// underlying AES-GCM instance is cached per key epoch: repeated calls
// (re-establishment after teardown, multi-tenant activation storms)
// reuse one expanded key schedule until Install rotates the entry.
func (ks *KeyStore) Stream(name string) (*Stream, error) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	e := ks.find(name)
	if e == nil {
		return nil, fmt.Errorf("secmem: no key material for stream %q", name)
	}
	return NewStreamAEAD(e.aead, e.nonce)
}

// GCMNonceSize is the nonce length GMAC takes.
const GCMNonceSize = 12

// GMAC writes the AES-GCM tag over aad alone (no plaintext) under the
// named key and a GCMNonceSize-byte nonce into tag, TagSize bytes. The
// caller owns nonce uniqueness per key. It takes no lock and allocates
// nothing, provided nonce, aad and tag are not stack arrays: they meet
// the cipher.AEAD interface.
func (ks *KeyStore) GMAC(name string, nonce, aad, tag []byte) error {
	e := ks.find(name)
	if e == nil {
		return fmt.Errorf("secmem: no key material for %q", name)
	}
	e.aead.Seal(tag[:0], nonce, nil, aad)
	return nil
}

// DestroyAll zeroizes everything — task teardown per §6 ("securely
// destroy shared symmetric keys").
func (ks *KeyStore) DestroyAll() {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	for _, e := range *ks.table.Load() {
		zeroize(e.key)
		zeroize(e.nonce)
	}
	ks.table.Store(new([]*keyEntry))
}

// Count reports how many streams hold material. A test seam for
// sliceHygiene and the protocol model: a torn-down slice holds none.
func (ks *KeyStore) Count() int {
	return len(*ks.table.Load())
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
