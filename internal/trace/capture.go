package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"ccai/internal/arena"
	"ccai/internal/pcie"
	"ccai/internal/sim"
)

// Capture file format: a pcap-style dump of TLPs crossing a segment,
// for offline inspection and replay into test fixtures.
//
//	header : magic(4) version(2) reserved(2)
//	record : timestamp(8) length(4) tlp-bytes(length)
//
// All integers little-endian. TLP bytes are pcie.Packet.Marshal output,
// so a capture round-trips through pcie.Unmarshal exactly.

const (
	captureMagic   = 0x63634149 // "ccAI"
	captureVersion = 1
)

// Record is one captured packet with its virtual-time stamp.
type Record struct {
	At     sim.Time
	Packet *pcie.Packet
}

// Writer streams capture records to an io.Writer.
type Writer struct {
	w     *bufio.Writer
	count int
}

// NewWriter emits the capture header and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], captureMagic)
	binary.LittleEndian.PutUint16(hdr[4:], captureVersion)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Write appends one record. The wire bytes are staged in an arena
// buffer (released after the bufio copy), so steady-state capture of a
// busy segment does not allocate per packet.
func (w *Writer) Write(rec Record) error {
	buf := arena.Get(rec.Packet.MarshalSize())
	body := rec.Packet.SerializeInto(buf)
	var pre [12]byte
	binary.LittleEndian.PutUint64(pre[0:], uint64(rec.At))
	binary.LittleEndian.PutUint32(pre[8:], uint32(len(body)))
	if _, err := w.w.Write(pre[:]); err != nil {
		arena.Put(buf)
		return err
	}
	_, err := w.w.Write(body)
	arena.Put(buf)
	if err != nil {
		return err
	}
	w.count++
	return nil
}

// Count reports records written.
func (w *Writer) Count() int { return w.count }

// Flush drains buffered output.
func (w *Writer) Flush() error { return w.w.Flush() }

// ReadCapture parses a complete capture stream.
func ReadCapture(r io.Reader) ([]Record, error) {
	br := bufio.NewReader(r)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: short capture header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != captureMagic {
		return nil, fmt.Errorf("trace: bad capture magic")
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != captureVersion {
		return nil, fmt.Errorf("trace: unsupported capture version %d", v)
	}
	var out []Record
	for {
		var pre [12]byte
		if _, err := io.ReadFull(br, pre[:]); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("trace: truncated record header: %w", err)
		}
		n := binary.LittleEndian.Uint32(pre[8:])
		if n > 1<<20 {
			return nil, fmt.Errorf("trace: implausible record size %d", n)
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(br, body); err != nil {
			return nil, fmt.Errorf("trace: truncated record body: %w", err)
		}
		pkt, err := pcie.Unmarshal(body)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", len(out), err)
		}
		out = append(out, Record{At: sim.Time(binary.LittleEndian.Uint64(pre[0:])), Packet: pkt})
	}
}

// CaptureTap adapts a Writer into a pcie.Tap stamping records with a
// caller-supplied clock (virtual or monotonic-counter).
type CaptureTap struct {
	W     *Writer
	Clock func() sim.Time
}

// Tap implements pcie.Tap.
func (c *CaptureTap) Tap(p *pcie.Packet) *pcie.Packet {
	var at sim.Time
	if c.Clock != nil {
		at = c.Clock()
	}
	// A failed write sticks in the Writer's buffer and surfaces at its
	// Flush, which the capture's owner checks.
	_ = c.W.Write(Record{At: at, Packet: p})
	return p
}
