// Package secmem implements ccAI's cryptographic machinery: AES-GCM
// protected streams with the paper's IV discipline (12-byte nonce +
// 4-byte big-endian counter, §7.2), IV-exhaustion rekeying (§6), and the
// GMAC that seals the submission ring's spans, the one integrity check on
// Write-Protected (A3) traffic. It moves real bytes
// through real AES-GCM; what the crypto costs in time is priced by the
// analytic cost model in internal/bench.
package secmem

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ccai/internal/arena"
	"ccai/internal/obsv"
)

// KeySize is the AES key length in bytes. The prototype uses AES-128
// (§7.1 "AES-128 in our prototype").
const KeySize = 16

// TagSize is the GCM authentication tag length (§7.2: 16-byte tag).
const TagSize = 16

// NonceSize is the GCM IV length: 12-byte nonce; the low 4 bytes of the
// nonce's companion counter give "12-byte nonce and 4-byte counter".
const nonceBase = 8
const NonceSize = 12

// ErrIVExhausted reports that a stream consumed its entire 32-bit
// counter space. Continuing would reuse an IV — the GCM fragility the
// paper cites ([23, 29, 42]) — so callers must rekey first.
var ErrIVExhausted = errors.New("secmem: IV counter exhausted; rekey required")

// ErrAuth reports a failed integrity check on a protected payload.
var ErrAuth = errors.New("secmem: authentication failed")

// ErrReplay reports a sequence counter that moved backwards or repeated,
// i.e. a replayed or reordered protected packet.
var ErrReplay = errors.New("secmem: replayed or out-of-order counter")

// ErrTransient reports a recoverable crypto-engine fault (a pipeline
// stall, an ECC hiccup in the engine's working SRAM). The operation
// consumed no stream state — in particular no IV counter — so the
// caller may simply retry; the fault layer injects these to exercise
// recovery paths.
var ErrTransient = errors.New("secmem: transient crypto-engine fault")

// Stream is one direction of a protected channel between the Adaptor and
// the PCIe-SC. Both ends derive the same key and nonce base during trust
// establishment; each encrypted chunk consumes one counter value, and
// the receiver enforces strictly increasing counters, which defeats
// replay and reordering on the untrusted bus segment (§8.2).
type Stream struct {
	// batchOffs is OpenBatchInto's reusable offset prefix sums, guarded
	// by mu, which a batch open holds from validation to the watermark
	// advance.
	batchOffs []int

	// sealScr is the batch seal's scratch (SealBatchStream,
	// SealBatchInto), owned by whichever batch flipped sealBusy; it
	// carries no secret material (an IV and a view of ciphertext).
	sealBusy atomic.Bool
	sealScr  sealScratch

	mu        sync.Mutex
	aead      cipher.AEAD
	nonceBase [nonceBase]byte
	recvCtr   uint32 // highest counter accepted so far (0 = none)

	// ctr is the key epoch (high 32 bits, incremented by Rekey) and the
	// send counter (low 32 bits, the last counter sealed) in one atomic
	// word. Only holders of mu write it, so a seal's check-and-reserve
	// stays one step; Epoch, SendCounter and Remaining read it with no
	// lock, and a Rekey replaces both halves in one store, so no reader
	// sees the new epoch with the old epoch's counter or the reverse.
	ctr atomic.Uint64

	// ivScratch is the IV assembly buffer for single-chunk Seal calls.
	// Guarded by mu; batches build IVs in their own scratch (sealScr,
	// the open buffer), so this never races with them.
	ivScratch [NonceSize]byte

	// fault, when set, is consulted before each engine operation and
	// may return ErrTransient to model a recoverable engine error. It
	// fires before any stream state changes, so a failed operation
	// never consumes an IV counter.
	fault func(op string) error
	// ivAudit, when set, observes every (epoch, counter) pair consumed
	// by Seal — the test oracle for the "no IV is ever reused"
	// invariant.
	ivAudit func(epoch, counter uint32)

	// obs carries the optional observability handles. All fields are
	// nil-safe, so the uninstrumented hot path pays one nil check.
	obs *streamObs
}

// Attribute keys and values of the stream spans, resolved once.
var (
	keyStream    = obsv.NewKey("stream")
	keyBytes     = obsv.NewKey("bytes")
	keyChunks    = obsv.NewKey("chunks")
	keyCtr       = obsv.NewKey("ctr")
	keyCtrFirst  = obsv.NewKey("ctr_first")
	keyEpoch     = obsv.NewKey("epoch")
	keyMode      = obsv.NewKey("mode")
	symStateless = obsv.Intern("stateless")
)

// streamObs holds cached metric handles and the tracer for one stream
// endpoint. Spans and counters carry only metadata (stream name, side,
// byte counts, counters) — never plaintext or ciphertext bytes.
type streamObs struct {
	tracer *obsv.Tracer
	// The stream's span sites on its side's track, and its name as an
	// attribute value, resolved when the stream is handed its hub.
	seal, open, sealStream, rekey obsv.Site
	name                          obsv.Sym

	sealOps, sealBytes *obsv.Counter
	openOps, openBytes *obsv.Counter
	authFail, replay   *obsv.Counter
	rekeys             *obsv.Counter
}

// SetObserver instruments this stream endpoint. track names the tracer
// track (e.g. "tvm/adaptor/crypto"); name is the stream ("h2d"). A nil
// hub clears instrumentation.
func (s *Stream) SetObserver(h *obsv.Hub, track, name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h == nil {
		s.obs = nil
		return
	}
	reg := h.Reg()
	label := func(base string) string { return obsv.Name(base, "stream", name, "side", track) }
	s.obs = &streamObs{
		tracer:     h.T(),
		seal:       obsv.NewSite(track, "seal"),
		open:       obsv.NewSite(track, "open"),
		sealStream: obsv.NewSite(track, "seal_stream"),
		rekey:      obsv.NewSite(track, "rekey"),
		name:       obsv.Intern(name),
		sealOps:    reg.Counter(label("secmem.seal.ops")),
		sealBytes:  reg.Counter(label("secmem.seal.bytes")),
		openOps:    reg.Counter(label("secmem.open.ops")),
		openBytes:  reg.Counter(label("secmem.open.bytes")),
		authFail:   reg.Counter(label("secmem.auth_failures")),
		replay:     reg.Counter(label("secmem.replay_rejects")),
		rekeys:     reg.Counter(label("secmem.rekeys")),
	}
}

// newAEAD runs the AES key schedule and builds the GCM instance — the
// expensive, key-dependent half of stream construction. GCM AEADs are
// stateless per operation, so one instance may back any number of
// streams over the same key epoch.
func newAEAD(key []byte) (cipher.AEAD, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("secmem: key must be %d bytes, got %d", KeySize, len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// NewStream builds a protected stream from a 16-byte key and an 8-byte
// nonce base (unique per stream direction).
func NewStream(key []byte, nonce []byte) (*Stream, error) {
	aead, err := newAEAD(key)
	if err != nil {
		return nil, err
	}
	return NewStreamAEAD(aead, nonce)
}

// NewStreamAEAD builds a protected stream around an already-constructed
// AEAD — the KeyStore's per-key-epoch cipher cache hands these out so
// the AES key schedule runs once per Install, not once per Stream call.
// The caller must guarantee the AEAD was built over a KeySize key that
// is unique to this stream's key epoch.
func NewStreamAEAD(aead cipher.AEAD, nonce []byte) (*Stream, error) {
	if aead == nil {
		return nil, errors.New("secmem: nil AEAD")
	}
	if len(nonce) != nonceBase {
		return nil, fmt.Errorf("secmem: nonce base must be %d bytes, got %d", nonceBase, len(nonce))
	}
	s := &Stream{aead: aead}
	copy(s.nonceBase[:], nonce)
	return s, nil
}

// sealScratch is what one seal batch needs on the heap.
type sealScratch struct {
	iv    [NonceSize]byte
	chunk Sealed
}

// Sealed is one protected chunk: ciphertext, its GCM tag (carried by a
// companion tag packet on the wire) and the counter that fixes its IV
// and its position in the stream.
type Sealed struct {
	Counter    uint32
	Epoch      uint32
	Ciphertext []byte
	Tag        [TagSize]byte
}

// Seal encrypts plaintext with the next counter, binding aad (typically
// the serialized TLP header fields) into the tag. Safe for concurrent
// use: the counter check and increment happen under the stream lock, so
// pipelined in-flight packets can never double-allocate (and therefore
// never reuse) an IV, even at the exhaustion boundary.
func (s *Stream) Seal(plaintext, aad []byte) (*Sealed, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fault != nil {
		if err := s.fault("seal"); err != nil {
			return nil, err
		}
	}
	st := s.ctr.Load()
	epoch, sent := splitCtr(st)
	if sent == ^uint32(0) {
		return nil, ErrIVExhausted
	}
	var sp obsv.ActiveSpan
	if o := s.obs; o != nil {
		sp = o.tracer.Start(o.seal, keyStream.Str(o.name), keyBytes.I64(int64(len(plaintext))))
	}
	s.ctr.Store(st + 1)
	c := sent + 1
	if s.ivAudit != nil {
		s.ivAudit(epoch, c)
	}
	copy(s.ivScratch[:], s.nonceBase[:])
	binary.BigEndian.PutUint32(s.ivScratch[nonceBase:], c)
	out := s.aead.Seal(nil, s.ivScratch[:], plaintext, aad)
	n := len(out) - TagSize
	sealed := &Sealed{Counter: c, Epoch: epoch, Ciphertext: out[:n]}
	copy(sealed.Tag[:], out[n:])
	if o := s.obs; o != nil {
		sp.Set(keyCtr.U64(uint64(c)), keyEpoch.U64(uint64(epoch)))
		sp.End()
		o.sealOps.Inc()
		o.sealBytes.Add(uint64(len(plaintext)))
	}
	return sealed, nil
}

// Open authenticates and decrypts one chunk, enforcing the
// strictly-increasing counter discipline.
func (s *Stream) Open(sealed *Sealed, aad []byte) ([]byte, error) {
	return s.OpenDst(sealed, aad, nil)
}

// OpenDst is Open with the plaintext written into dst's backing array
// (allocated when its capacity is short of the ciphertext) — the variant
// for callers that hand the plaintext on in a buffer they pool.
func (s *Stream) OpenDst(sealed *Sealed, aad, dst []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fault != nil {
		if err := s.fault("open"); err != nil {
			return nil, err
		}
	}
	if epoch := s.Epoch(); sealed.Epoch != epoch {
		s.obsReplay()
		return nil, fmt.Errorf("%w: epoch %d vs %d", ErrReplay, sealed.Epoch, epoch)
	}
	if sealed.Counter <= s.recvCtr {
		s.obsReplay()
		return nil, fmt.Errorf("%w: counter %d after %d", ErrReplay, sealed.Counter, s.recvCtr)
	}
	var sp obsv.ActiveSpan
	if o := s.obs; o != nil {
		sp = o.tracer.Start(o.open, keyStream.Str(o.name),
			keyBytes.I64(int64(len(sealed.Ciphertext))), keyCtr.U64(uint64(sealed.Counter)))
	}
	pt, err := s.decryptLocked(sealed, aad, dst)
	if err != nil {
		if o := s.obs; o != nil {
			o.authFail.Inc()
		}
		return nil, ErrAuth
	}
	s.recvCtr = sealed.Counter
	if o := s.obs; o != nil {
		sp.End()
		o.openOps.Inc()
		o.openBytes.Add(uint64(len(pt)))
	}
	return pt, nil
}

// decryptLocked runs the AEAD open of one chunk into dst[:0]. One arena
// buffer carries ciphertext||tag, the IV and a copy of the AAD — the AEAD
// is an interface, and what it is handed escapes, so the caller's AAD
// array stays on its stack. Everything in the buffer is public bytes, so
// Put (not PutZero) on release. Callers hold s.mu.
func (s *Stream) decryptLocked(sealed *Sealed, aad, dst []byte) ([]byte, error) {
	ctLen := len(sealed.Ciphertext)
	buf := arena.Get(ctLen + TagSize + NonceSize + len(aad))
	copy(buf, sealed.Ciphertext)
	copy(buf[ctLen:], sealed.Tag[:])
	iv := buf[ctLen+TagSize:][:NonceSize]
	copy(iv, s.nonceBase[:])
	binary.BigEndian.PutUint32(iv[nonceBase:], sealed.Counter)
	ad := buf[ctLen+TagSize+NonceSize:]
	copy(ad, aad)
	pt, err := s.aead.Open(dst[:0], iv, buf[:ctLen+TagSize], ad)
	arena.Put(buf)
	return pt, err
}

// obsReplay counts one replay rejection. Callers hold s.mu.
func (s *Stream) obsReplay() {
	if o := s.obs; o != nil {
		o.replay.Inc()
	}
}

// OpenStateless authenticates and decrypts a chunk that was ALREADY
// accepted once (its counter is at or below the receive watermark)
// without advancing any stream state. This is the duplicate-read
// suppression primitive: a benign retransmit — the device re-fetching a
// chunk after a link fault — re-verifies against the retained tag and
// is re-served, while the strictly-increasing discipline of Open keeps
// rejecting genuinely replayed traffic presented as new data. Chunks
// that were never accepted do not qualify and fail with ErrReplay.
func (s *Stream) OpenStateless(sealed *Sealed, aad []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fault != nil {
		if err := s.fault("open"); err != nil {
			return nil, err
		}
	}
	if epoch := s.Epoch(); sealed.Epoch != epoch {
		s.obsReplay()
		return nil, fmt.Errorf("%w: epoch %d vs %d", ErrReplay, sealed.Epoch, epoch)
	}
	if sealed.Counter > s.recvCtr {
		s.obsReplay()
		return nil, fmt.Errorf("%w: counter %d never accepted (watermark %d)", ErrReplay, sealed.Counter, s.recvCtr)
	}
	var sp obsv.ActiveSpan
	if o := s.obs; o != nil {
		sp = o.tracer.Start(o.open, keyStream.Str(o.name), keyMode.Str(symStateless),
			keyBytes.I64(int64(len(sealed.Ciphertext))), keyCtr.U64(uint64(sealed.Counter)))
	}
	pt, err := s.decryptLocked(sealed, aad, nil)
	if err != nil {
		if o := s.obs; o != nil {
			o.authFail.Inc()
		}
		return nil, ErrAuth
	}
	if o := s.obs; o != nil {
		sp.End()
		o.openOps.Inc()
		o.openBytes.Add(uint64(len(pt)))
	}
	return pt, nil
}

// SetFaultHook installs (or clears, with nil) the transient-fault
// injection point consulted before each engine operation.
func (s *Stream) SetFaultHook(fn func(op string) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fault = fn
}

// SetIVAudit installs an observer for every IV (epoch, counter) the
// seal side consumes. Test instrumentation only; it must not block.
func (s *Stream) SetIVAudit(fn func(epoch, counter uint32)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ivAudit = fn
}

// splitCtr splits the ctr word into the key epoch and the send counter.
func splitCtr(st uint64) (epoch, sent uint32) { return uint32(st >> 32), uint32(st) }

// SendCounter reports how many chunks have been sealed.
func (s *Stream) SendCounter() uint32 {
	_, sent := splitCtr(s.ctr.Load())
	return sent
}

// Epoch reports the stream's key epoch.
func (s *Stream) Epoch() uint32 {
	epoch, _ := splitCtr(s.ctr.Load())
	return epoch
}

// Remaining reports how many counter values are left before exhaustion.
func (s *Stream) Remaining() uint32 {
	return ^uint32(0) - s.SendCounter()
}

// Rekey installs a fresh key + nonce base and resets both counters,
// bumping the epoch. This is the paper's IV-exhaustion mitigation
// ("generating and exchanging a new key", following H100 practice).
func (s *Stream) Rekey(key, nonce []byte) error {
	ns, err := NewStream(key, nonce)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.aead = ns.aead
	s.nonceBase = ns.nonceBase
	s.recvCtr = 0
	epoch := s.Epoch() + 1
	s.ctr.Store(uint64(epoch) << 32)
	if o := s.obs; o != nil {
		o.rekeys.Inc()
		o.tracer.Mark(o.rekey, keyStream.Str(o.name), keyEpoch.U64(uint64(epoch)))
	}
	return nil
}

// ForceCounter positions the send counter for testing exhaustion paths.
func (s *Stream) ForceCounter(c uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ctr.Store(uint64(s.Epoch())<<32 | uint64(c))
}
