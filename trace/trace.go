// Package trace persists workloads (subscription sets and event
// streams) in a compact binary format, so that generated experiments can
// be stored, shared and replayed bit-for-bit:
//
//	file   := magic kind uvarint(count) record*
//	magic  := "APCMTRC1" (8 bytes)
//	kind   := 'X' (expressions) | 'E' (events)
//	record := uvarint(len) payload
//	payload := expr.AppendExpression | expr.AppendEvent encoding
//
// Both streaming (Writer/Reader) and slice-at-once entry points are
// provided; cmd/apcm-gen writes traces and the harness replays them.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/streammatch/apcm/expr"
)

const magic = "APCMTRC1"

// Kind discriminates trace contents.
type Kind byte

// Trace kinds.
const (
	KindExpressions Kind = 'X'
	KindEvents      Kind = 'E'
)

// Writer streams records into a trace. The record count is written up
// front, so the caller declares it at creation.
type Writer struct {
	w      *bufio.Writer
	kind   Kind
	left   uint64
	buf    []byte
	closed bool
}

// NewWriter starts a trace of exactly count records of the given kind.
func NewWriter(w io.Writer, kind Kind, count int) (*Writer, error) {
	if kind != KindExpressions && kind != KindEvents {
		return nil, fmt.Errorf("trace: invalid kind %q", kind)
	}
	if count < 0 {
		return nil, fmt.Errorf("trace: negative count %d", count)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(byte(kind)); err != nil {
		return nil, err
	}
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(count))
	if _, err := bw.Write(hdr[:n]); err != nil {
		return nil, err
	}
	return &Writer{w: bw, kind: kind, left: uint64(count)}, nil
}

// WriteExpression appends one expression record.
func (t *Writer) WriteExpression(x *expr.Expression) error {
	if t.kind != KindExpressions {
		return fmt.Errorf("trace: expression record in %q trace", t.kind)
	}
	return t.write(expr.AppendExpression(t.buf[:0], x))
}

// WriteEvent appends one event record.
func (t *Writer) WriteEvent(e *expr.Event) error {
	if t.kind != KindEvents {
		return fmt.Errorf("trace: event record in %q trace", t.kind)
	}
	return t.write(expr.AppendEvent(t.buf[:0], e))
}

func (t *Writer) write(rec []byte) error {
	if t.closed {
		return fmt.Errorf("trace: write after Close")
	}
	if t.left == 0 {
		return fmt.Errorf("trace: more records than declared")
	}
	t.buf = rec
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(rec)))
	if _, err := t.w.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := t.w.Write(rec); err != nil {
		return err
	}
	t.left--
	return nil
}

// Close flushes the trace. It errors if fewer records than declared were
// written.
func (t *Writer) Close() error {
	if t.closed {
		return nil
	}
	t.closed = true
	if t.left != 0 {
		return fmt.Errorf("trace: %d records short of declared count", t.left)
	}
	return t.w.Flush()
}

// Reader streams records out of a trace.
type Reader struct {
	r    *bufio.Reader
	kind Kind
	left uint64
	buf  []byte
}

// NewReader validates the header and positions at the first record.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(hdr) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", hdr)
	}
	kb, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("trace: reading kind: %w", err)
	}
	kind := Kind(kb)
	if kind != KindExpressions && kind != KindEvents {
		return nil, fmt.Errorf("trace: invalid kind %q", kind)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading count: %w", err)
	}
	return &Reader{r: br, kind: kind, left: count}, nil
}

// Kind returns the trace's record kind.
func (t *Reader) Kind() Kind { return t.kind }

// Remaining returns the number of unread records.
func (t *Reader) Remaining() int { return int(t.left) }

// prealloc bounds a slice capacity derived from the declared record
// count: the count is untrusted input and must not size an allocation
// by itself (a corrupt header could declare 2^63 records, which would
// overflow int or OOM before the first record read fails).
func (t *Reader) prealloc() int {
	const limit = 1 << 16
	n := t.Remaining()
	if n < 0 || n > limit {
		return limit
	}
	return n
}

// maxRecord guards against corrupt length prefixes.
const maxRecord = 1 << 22

// fill reads the next length-prefixed record into t.buf and decodes it.
func (t *Reader) fill(decode func([]byte) (int, error)) error {
	if t.left == 0 {
		return io.EOF
	}
	size, err := binary.ReadUvarint(t.r)
	if err != nil {
		return fmt.Errorf("trace: truncated record length (%d records remaining): %w", t.left, err)
	}
	if size > maxRecord {
		return fmt.Errorf("trace: record of %d bytes exceeds %d; corrupt stream", size, maxRecord)
	}
	if cap(t.buf) < int(size) {
		t.buf = make([]byte, size)
	}
	t.buf = t.buf[:size]
	if _, err := io.ReadFull(t.r, t.buf); err != nil {
		return fmt.Errorf("trace: truncated record body: %w", err)
	}
	n, err := decode(t.buf)
	if err != nil {
		return fmt.Errorf("trace: corrupt record: %w", err)
	}
	if n != int(size) {
		return fmt.Errorf("trace: record decoded %d of %d bytes", n, size)
	}
	t.left--
	return nil
}

// ReadExpression returns the next expression record, or io.EOF when the
// trace is exhausted.
func (t *Reader) ReadExpression() (*expr.Expression, error) {
	if t.kind != KindExpressions {
		return nil, fmt.Errorf("trace: expression read from %q trace", t.kind)
	}
	var out *expr.Expression
	err := t.fill(func(b []byte) (int, error) {
		x, n, err := expr.DecodeExpression(b)
		if err == nil {
			out = x
		}
		return n, err
	})
	return out, err
}

// ReadExpressionSlab is ReadExpression decoding through dec's shared
// slabs (see expr.SlabDecoder): the cold-start restore uses it to
// amortize the per-record decode allocations that dominate cold start.
func (t *Reader) ReadExpressionSlab(dec *expr.SlabDecoder) (*expr.Expression, error) {
	if t.kind != KindExpressions {
		return nil, fmt.Errorf("trace: expression read from %q trace", t.kind)
	}
	var out *expr.Expression
	err := t.fill(func(b []byte) (int, error) {
		x, n, err := dec.Decode(b)
		if err == nil {
			out = x
		}
		return n, err
	})
	return out, err
}

// ReadEvent returns the next event record, or io.EOF when the trace is
// exhausted.
func (t *Reader) ReadEvent() (*expr.Event, error) {
	if t.kind != KindEvents {
		return nil, fmt.Errorf("trace: event read from %q trace", t.kind)
	}
	var out *expr.Event
	err := t.fill(func(b []byte) (int, error) {
		e, n, err := expr.DecodeEvent(b)
		if err == nil {
			out = e
		}
		return n, err
	})
	return out, err
}

// WriteExpressions writes xs as a complete trace.
func WriteExpressions(w io.Writer, xs []*expr.Expression) error {
	t, err := NewWriter(w, KindExpressions, len(xs))
	if err != nil {
		return err
	}
	for _, x := range xs {
		if err := t.WriteExpression(x); err != nil {
			return err
		}
	}
	return t.Close()
}

// ReadExpressions reads a complete expression trace.
func ReadExpressions(r io.Reader) ([]*expr.Expression, error) {
	t, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	out := make([]*expr.Expression, 0, t.prealloc())
	for {
		x, err := t.ReadExpression()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, x)
	}
}

// ReadEvents reads a complete event trace.
func ReadEvents(r io.Reader) ([]*expr.Event, error) {
	t, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	out := make([]*expr.Event, 0, t.prealloc())
	for {
		e, err := t.ReadEvent()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
}
