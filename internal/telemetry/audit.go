package telemetry

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Entry is one security event in the audit chain. Hash covers the
// previous entry's hash plus every field, so any mutation anywhere in
// the log breaks verification from that entry forward; Prev makes the
// break locatable.
type Entry struct {
	Seq    uint64 `json:"seq"`
	T      int64  `json:"t"` // ns since epoch (or virtual, in tests)
	Kind   string `json:"kind"`
	Tenant string `json:"tenant,omitempty"`
	Detail string `json:"detail,omitempty"`
	Prev   string `json:"prev"`
	Hash   string `json:"hash"`
}

// trailer closes a serialized log: without it, truncating whole tail
// lines would be undetectable (every prefix of a hash chain is itself
// a valid chain).
type trailer struct {
	Trailer bool   `json:"trailer"`
	Count   uint64 `json:"count"`
	Dropped uint64 `json:"dropped"`
	Head    string `json:"head"`
}

// entryHash computes an entry's chain hash: SHA-256 over the previous
// hash and every field, each length-prefixed so field boundaries
// cannot be shifted.
func entryHash(prev []byte, seq uint64, t int64, kind, tenant, detail string) []byte {
	h := sha256.New()
	h.Write(prev)
	var num [8]byte
	binary.BigEndian.PutUint64(num[:], seq)
	h.Write(num[:])
	binary.BigEndian.PutUint64(num[:], uint64(t))
	h.Write(num[:])
	for _, s := range []string{kind, tenant, detail} {
		binary.BigEndian.PutUint64(num[:], uint64(len(s)))
		h.Write(num[:])
		h.Write([]byte(s))
	}
	return h.Sum(nil)
}

// genesis is the chain anchor: 32 zero bytes.
var genesis = make([]byte, sha256.Size)

// Log is the hash-chained security audit log. Appends link each entry
// to its predecessor; Head() is the external anchor an operator notes
// down — republishing a mutated log requires recomputing every hash
// after the mutation, which changes the head. A nil *Log ignores
// appends. The log is bounded: past auditCap entries, new ones are
// dropped and counted (the chain from genesis stays intact and
// verifiable).
type Log struct {
	mu      sync.Mutex
	entries []Entry
	head    []byte
	seq     uint64
	dropped uint64
	cap     int          // auditCap; in-package tests lower it
	now     func() int64 // the wall clock; in-package tests inject one
}

// auditCap bounds the in-memory audit log.
const auditCap = 4096

// NewLog builds an audit log holding at most auditCap entries, stamped
// by the wall clock.
func NewLog() *Log {
	return &Log{head: genesis, cap: auditCap, now: func() int64 { return time.Now().UnixNano() }}
}

// Append records one event and extends the chain.
func (l *Log) Append(kind, tenant, detail string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) >= l.cap {
		l.dropped++
		return
	}
	seq := l.seq
	t := l.now()
	hash := entryHash(l.head, seq, t, kind, tenant, detail)
	l.entries = append(l.entries, Entry{
		Seq: seq, T: t, Kind: kind, Tenant: tenant, Detail: detail,
		Prev: hex.EncodeToString(l.head), Hash: hex.EncodeToString(hash),
	})
	l.head = hash
	l.seq++
}

// Head returns the chain head (count, hex hash) — the anchor to record
// out of band.
func (l *Log) Head() (uint64, string) {
	if l == nil {
		return 0, hex.EncodeToString(genesis)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq, hex.EncodeToString(l.head)
}

// Entries returns a copy of the chained entries.
func (l *Log) Entries() []Entry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Entry(nil), l.entries...)
}

// CountKinds tallies entries by kind (for smoke assertions).
func (l *Log) CountKinds() map[string]uint64 {
	out := make(map[string]uint64)
	for _, e := range l.Entries() {
		out[e.Kind]++
	}
	return out
}

// WriteJSONL serializes the log: one JSON entry per line, closed by a
// trailer line binding the count and head hash.
func (l *Log) WriteJSONL(w io.Writer) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	entries := append([]Entry(nil), l.entries...)
	tr := trailer{Trailer: true, Count: l.seq, Dropped: l.dropped,
		Head: hex.EncodeToString(l.head)}
	l.mu.Unlock()

	enc := json.NewEncoder(w)
	for i := range entries {
		if err := enc.Encode(&entries[i]); err != nil {
			return err
		}
	}
	return enc.Encode(&tr)
}

// Verify re-walks an in-memory chain from genesis, recomputing every
// hash. It reports the entry count and head hash, or the first break.
func Verify(entries []Entry) (uint64, string, error) {
	prev := genesis
	for i := range entries {
		e := &entries[i]
		if e.Seq != uint64(i) {
			return 0, "", fmt.Errorf("audit entry %d: seq %d out of order", i, e.Seq)
		}
		if e.Prev != hex.EncodeToString(prev) {
			return 0, "", fmt.Errorf("audit entry %d: prev-hash link broken", i)
		}
		want := entryHash(prev, e.Seq, e.T, e.Kind, e.Tenant, e.Detail)
		got, err := hex.DecodeString(e.Hash)
		if err != nil || !bytes.Equal(got, want) {
			return 0, "", fmt.Errorf("audit entry %d (%s): hash mismatch — entry mutated", i, e.Kind)
		}
		prev = want
	}
	return uint64(len(entries)), hex.EncodeToString(prev), nil
}

// VerifyJSONL verifies a serialized log: every entry hash, the chain
// links, and the trailer's count and head (so truncation — of tail
// entries or of the trailer itself — is detected, not just mutation).
func VerifyJSONL(r io.Reader) (uint64, string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var entries []Entry
	var tr *trailer
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if tr != nil {
			return 0, "", fmt.Errorf("audit line %d: data after trailer", line)
		}
		if bytes.Contains(raw, []byte(`"trailer":true`)) {
			var t trailer
			if err := json.Unmarshal(raw, &t); err != nil {
				return 0, "", fmt.Errorf("audit line %d: bad trailer: %w", line, err)
			}
			tr = &t
			continue
		}
		var e Entry
		if err := json.Unmarshal(raw, &e); err != nil {
			return 0, "", fmt.Errorf("audit line %d: bad entry: %w", line, err)
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return 0, "", err
	}
	if tr == nil {
		return 0, "", fmt.Errorf("audit log has no trailer — truncated")
	}
	count, head, err := Verify(entries)
	if err != nil {
		return 0, "", err
	}
	if tr.Count != count {
		return 0, "", fmt.Errorf("audit trailer count %d != %d entries — truncated", tr.Count, count)
	}
	if tr.Head != head {
		return 0, "", fmt.Errorf("audit trailer head mismatch — log truncated or mutated")
	}
	return count, head, nil
}
