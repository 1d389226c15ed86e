package secmem

// Fence pins a stream's key epoch at a point in time, so long-lived
// sealed state can detect a rekey that happened underneath it. A
// session's KV-cache is sealed under one epoch at admission and then
// lives in device memory for thousands of decode steps; when counter
// pressure rekeys the stream mid-decode, the resident ciphertext (and
// its cached per-epoch cipher) belongs to the *fenced* epoch, not the
// stream's current one. Holders check Valid() at step boundaries: a
// tripped fence means "the stream moved on — your sealed bytes are
// still good, but nothing new may be sealed under the old epoch."
type Fence struct {
	s     *Stream
	epoch uint32
}

// Fence captures the stream's current epoch.
func (s *Stream) Fence() Fence {
	return Fence{s: s, epoch: s.Epoch()}
}

// Epoch reports the pinned epoch. A test seam: the fence cells check
// which epoch a fence pinned.
func (f Fence) Epoch() uint32 { return f.epoch }

// Valid reports whether the stream is still in the pinned epoch. The
// zero Fence is invalid.
func (f Fence) Valid() bool {
	return f.s != nil && f.s.Epoch() == f.epoch
}
