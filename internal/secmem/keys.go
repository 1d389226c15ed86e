package secmem

import (
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"hash"
	"sync"
	"sync/atomic"
)

// KeyStore holds the symmetric workload keys shared between a TVM and
// its PCIe-SC (§6 "Workload key management"). Keys live only inside a
// trust module on each side; teardown destroys them so a captured
// device cannot decrypt recorded traffic afterwards. All methods are
// safe for concurrent use.
type KeyStore struct {
	// mu serializes the writers (Install, Destroy, DestroyAll) and
	// guards every read of an entry's key and nonce bytes (Stream,
	// Material, the first MACSum of an entry), so a Destroy never zeroes
	// bytes a reader is copying. It also guards the lazily built aead.
	mu sync.Mutex
	// table is the live entries. A writer publishes a new slice under mu
	// and never changes a published one, so lookups (MACSum, Has, Count)
	// read it with no lock.
	table atomic.Pointer[[]*keyEntry]
}

type keyEntry struct {
	name  string
	key   []byte
	nonce []byte
	// mac is the entry's reusable HMAC-SHA256 state for MACSum. A MACSum
	// takes it with a swap and puts it back when done, so one caller at a
	// time owns it without a lock; a caller that finds it taken builds
	// its own. It dies with the entry (Install replaces the entry, so a
	// fresh key can never reuse a stale HMAC state).
	mac atomic.Pointer[macState]
	// aead is the lazily built AES-GCM instance for this key epoch.
	// Streams handed out by Stream share it, so the AES key schedule
	// runs once per Install instead of once per Stream call. Guarded by
	// ks.mu; like mac it dies with the entry, so a rekeyed stream can
	// never be served a cipher from the previous epoch.
	aead cipher.AEAD
}

// macState is an HMAC over one key with its reusable input and output
// scratch. The scratch holds only bytes the bus carries in the clear
// (A3 is integrity-only).
type macState struct {
	h   hash.Hash
	msg []byte
	sum []byte
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
	ks.mu.Lock()
	defer ks.mu.Unlock()
	ks.publish(name, &keyEntry{
		name:  name,
		key:   append([]byte(nil), key...),
		nonce: append([]byte(nil), nonce...),
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
	e := ks.find(name)
	if e == nil {
		return nil, nil, fmt.Errorf("secmem: no key material for stream %q", name)
	}
	return append([]byte(nil), e.key...), append([]byte(nil), e.nonce...), nil
}

// MACSum computes the A3 integrity MAC over (header, payload) under
// the named stream's key without copying the key out of the store and
// without constructing a fresh HMAC per call: the entry's HMAC state is
// cached and Reset between uses. It takes no lock once the entry's
// state exists — the lookup reads the published table and the state is
// taken with a swap — so callers may hold their own locks across this
// call. The message is assembled in the state's scratch before it meets
// the hash.Hash interface, so a caller's stack arrays stay on the
// stack: the steady-state cost is zero allocations on both sides of the
// call.
func (ks *KeyStore) MACSum(name string, header, payload []byte) ([32]byte, error) {
	var out [32]byte
	e := ks.find(name)
	var m *macState
	if e != nil {
		if m = e.mac.Swap(nil); m == nil {
			m = ks.newMAC(e)
		}
	}
	if m == nil {
		return out, fmt.Errorf("secmem: no key material for stream %q", name)
	}
	m.h.Reset()
	m.msg = append(append(m.msg[:0], header...), payload...)
	m.h.Write(m.msg)
	m.sum = m.h.Sum(m.sum[:0])
	copy(out[:], m.sum)
	e.mac.Store(m)
	return out, nil
}

// newMAC builds an HMAC state over e's key under ks.mu, so it never
// reads key bytes a Destroy is zeroing; nil once e is no longer live.
func (ks *KeyStore) newMAC(e *keyEntry) *macState {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if ks.find(e.name) != e {
		return nil
	}
	return &macState{h: hmac.New(sha256.New, e.key)}
}

// Has reports whether material exists for the stream.
func (ks *KeyStore) Has(name string) bool {
	return ks.find(name) != nil
}

// Destroy zeroizes and removes one stream's material.
func (ks *KeyStore) Destroy(name string) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if e := ks.find(name); e != nil {
		zeroize(e.key)
		zeroize(e.nonce)
		ks.publish(name, nil)
	}
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

// Count reports how many streams hold material.
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
