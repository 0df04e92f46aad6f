// Package commitlog is a segmented append-only record log with
// batch-commit semantics, modeled on the simple-commit-log design: an
// append stages its record into an in-memory batch, batches are flushed
// to fixed-size segment files when they reach a byte threshold or a
// block-time deadline (whichever first), and a commit wait does not
// return until its batch is on disk (fsync'd unless Config.NoFsync).
// Recovery scans the segment chain, truncates a torn tail batch back to
// the last valid boundary, and resumes appending at the recovered
// offset, so the commit point — the moment WaitCommitted (or Append,
// which is Stage plus that wait) returns — survives crashes.
//
// The log also holds each consumer's acknowledged position (Ack,
// Acked) as offsets batches, which take no record offset: Read skips
// them, replication ships them verbatim, and recovery, ingest and
// install fold them into the table. The broker's durable state lives
// under one directory:
//
//	dir/
//	  00000000000000000000.seg   segment files, named by base offset
//	  00000000000000004096.seg
//	  epoch                      replication epoch (see StoreEpoch)
package commitlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// MaxRecord bounds a single record's payload (matches the broker's
// MaxFrame, so any deliverable frame is loggable).
const MaxRecord = 1 << 20

// maxBatchData is a sanity bound on a batch's data length, rejecting
// absurd headers before any allocation or long walk. It comfortably
// exceeds the largest batch a Log can stage (FlushBytes cap + one max
// record).
const maxBatchData = 1 << 25

// Batch header layout (headerSize bytes, big-endian):
//
//	[0]     magic (batchMagic)
//	[1:5]   crc32 (IEEE) over bytes [5:end-of-batch]
//	[5:13]  base offset of the first record
//	[13:17] record count; offsetsFlag marks an offsets batch
//	[17:21] data length (bytes of record data after the header)
//
// Record data is a sequence of (uvarint length, payload) pairs. The crc
// covers the base offset, count, data length and every record byte, so
// a torn write, a bit flip or a spliced header all fail closed.
//
// An offsets batch sets offsetsFlag in the count field (inside the
// crc) and holds, instead of records, a uvarint sequence number — 1 +
// the number of offsets batches at the same base before it — followed
// by count (uvarint name length, name, uvarint next offset) pairs. Its
// base is the next record offset and it consumes none, so (base, seq)
// names its position between the record batches around it.
const (
	batchMagic  = 0xA7
	headerSize  = 21
	offsetsFlag = 1 << 31
)

// ErrCorrupt marks a batch that fails structural or checksum
// validation. Scanner wraps it with detail; recovery truncates at the
// first corrupt batch; readers treat it as fatal.
var ErrCorrupt = errors.New("commitlog: corrupt batch")

// fillHeader writes the batch header into b[0:headerSize], where
// b[headerSize:] already holds the record data. It is the only batch
// encoder; callers reserve the header space up front so encoding is a
// fill-in-place, not a copy.
//
//apcm:hotpath
func fillHeader(b []byte, base uint64, count uint32) {
	b[0] = batchMagic
	binary.BigEndian.PutUint64(b[5:13], base)
	binary.BigEndian.PutUint32(b[13:17], count)
	binary.BigEndian.PutUint32(b[17:21], uint32(len(b)-headerSize))
	binary.BigEndian.PutUint32(b[1:5], crc32.ChecksumIEEE(b[5:]))
}

// appendBatch encodes records as one batch starting at base and appends
// it to dst (test and tooling helper; the Log's flush path encodes in
// place via fillHeader).
func appendBatch(dst []byte, base uint64, records [][]byte) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, headerSize)...)
	for _, rec := range records {
		dst = binary.AppendUvarint(dst, uint64(len(rec)))
		dst = append(dst, rec...)
	}
	fillHeader(dst[start:], base, uint32(len(records)))
	return dst
}

// appendOffsetsBatch encodes acks as one offsets batch at position
// (base, seq) and appends it to dst.
func appendOffsetsBatch(dst []byte, base uint64, seq uint32, acks map[string]uint64) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, headerSize)...)
	dst = binary.AppendUvarint(dst, uint64(seq))
	for name, next := range acks {
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
		dst = binary.AppendUvarint(dst, next)
	}
	fillHeader(dst[start:], base, offsetsFlag|uint32(len(acks)))
	return dst
}

// walkAcks validates an offsets batch body of n pairs, returning its
// sequence number and calling fn (when non-nil) for every pair; name
// aliases body.
func walkAcks(body []byte, n uint32, fn func(name []byte, next uint64)) (uint32, error) {
	seq, k := binary.Uvarint(body)
	if k <= 0 || seq == 0 || seq > math.MaxUint32 {
		return 0, fmt.Errorf("%w: offsets batch sequence malformed", ErrCorrupt)
	}
	for body = body[k:]; n > 0; n-- {
		nlen, k := binary.Uvarint(body)
		if k <= 0 || nlen == 0 || uint64(len(body)-k) < nlen {
			return 0, fmt.Errorf("%w: offsets pair malformed", ErrCorrupt)
		}
		name := body[k : k+int(nlen)]
		next, j := binary.Uvarint(body[k+int(nlen):])
		if j <= 0 {
			return 0, fmt.Errorf("%w: offsets pair malformed", ErrCorrupt)
		}
		body = body[k+int(nlen)+j:]
		if fn != nil {
			fn(name, next)
		}
	}
	if len(body) != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes after the offsets pairs", ErrCorrupt, len(body))
	}
	return uint32(seq), nil
}

// Scanner iterates the batches of one segment's bytes. It never panics
// or over-reads on corrupt input: Next returns false at the first
// invalid, truncated or discontinuous batch, Err reports why (nil for a
// clean end of input), and ValidBytes marks the truncation point — the
// end of the last fully valid batch — that recovery rolls back to.
type Scanner struct {
	data  []byte
	pos   int    // end of the last valid batch
	start int    // start of the current batch
	next  uint64 // expected base offset of the next batch
	err   error

	base  uint64 // base offset of the current batch
	count uint32
	recs  [][]byte // records of the current batch (aliases data)
	seq   uint32   // offsets batch sequence number; 0 for a records batch
	acks  []byte   // offsets batch body (aliases data)
	nacks uint32   // offsets batch pair count
}

// NewScanner scans data, expecting the first batch to start at offset
// base (a segment's base offset; 0 for standalone byte streams).
func NewScanner(data []byte, base uint64) *Scanner {
	return &Scanner{data: data, next: base}
}

// Next advances to the next batch, validating structure, checksum and
// offset continuity. It returns false at end of input or on the first
// invalid batch (Err distinguishes the two).
func (s *Scanner) Next() bool {
	if s.err != nil || s.pos == len(s.data) {
		return false
	}
	rest := s.data[s.pos:]
	if len(rest) < headerSize {
		s.err = fmt.Errorf("%w: %d-byte tail shorter than header", ErrCorrupt, len(rest))
		return false
	}
	if rest[0] != batchMagic {
		s.err = fmt.Errorf("%w: bad magic 0x%02x", ErrCorrupt, rest[0])
		return false
	}
	base := binary.BigEndian.Uint64(rest[5:13])
	count := binary.BigEndian.Uint32(rest[13:17])
	offsets := count&offsetsFlag != 0
	count &^= offsetsFlag
	dataLen := binary.BigEndian.Uint32(rest[17:21])
	if dataLen > maxBatchData {
		s.err = fmt.Errorf("%w: data length %d exceeds bound", ErrCorrupt, dataLen)
		return false
	}
	if count > dataLen { // every record costs at least 1 length byte
		s.err = fmt.Errorf("%w: %d records in %d data bytes", ErrCorrupt, count, dataLen)
		return false
	}
	end := headerSize + int(dataLen)
	if len(rest) < end {
		s.err = fmt.Errorf("%w: batch of %d bytes truncated at %d", ErrCorrupt, end, len(rest))
		return false
	}
	if got := crc32.ChecksumIEEE(rest[5:end]); got != binary.BigEndian.Uint32(rest[1:5]) {
		s.err = fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
		return false
	}
	if base != s.next {
		s.err = fmt.Errorf("%w: batch base %d, expected %d", ErrCorrupt, base, s.next)
		return false
	}
	// Checksum holds; the record walk below can still fail if the batch
	// was encoded wrong (lengths not summing to dataLen), which is
	// corruption of a different kind — same verdict.
	s.recs = s.recs[:0]
	body := rest[headerSize:end]
	if offsets {
		seq, err := walkAcks(body, count, nil)
		if err != nil {
			s.err = err
			return false
		}
		s.base, s.count, s.seq, s.acks, s.nacks = base, 0, seq, body, count
		s.start = s.pos
		s.pos += end
		return true
	}
	s.seq, s.acks = 0, nil
	for i := uint32(0); i < count; i++ {
		rlen, n := binary.Uvarint(body)
		if n <= 0 || rlen > MaxRecord || uint64(len(body)-n) < rlen {
			s.err = fmt.Errorf("%w: record %d/%d malformed", ErrCorrupt, i, count)
			return false
		}
		s.recs = append(s.recs, body[n:n+int(rlen)])
		body = body[n+int(rlen):]
	}
	if len(body) != 0 {
		s.err = fmt.Errorf("%w: %d trailing bytes after %d records", ErrCorrupt, len(body), count)
		return false
	}
	s.base = base
	s.count = count
	s.start = s.pos
	s.pos += end
	s.next = base + uint64(count)
	return true
}

// Base returns the base offset of the current batch (valid after a true
// Next).
func (s *Scanner) Base() uint64 { return s.base }

// Records returns the current batch's records (none for an offsets
// batch); the slices alias the scanned data and are invalidated by the
// next call to Next.
func (s *Scanner) Records() [][]byte { return s.recs }

// Count returns the record count of the current batch (0 for an
// offsets batch).
func (s *Scanner) Count() uint32 { return s.count }

// IsOffsets reports whether the current batch is an offsets batch.
func (s *Scanner) IsOffsets() bool { return s.seq != 0 }

// Pos returns the position just past the current batch.
func (s *Scanner) Pos() Pos { return Pos{Off: s.next, Acks: s.seq} }

// foldAcks raises table's entry for every pair of the current offsets
// batch to the pair's offset (a no-op on a records batch).
func (s *Scanner) foldAcks(table map[string]uint64) {
	if s.seq == 0 {
		return
	}
	_, _ = walkAcks(s.acks, s.nacks, func(name []byte, next uint64) {
		if next > table[string(name)] {
			table[string(name)] = next
		}
	}) // validated by Next
}

// RawBatch returns the current batch's full on-disk bytes, header
// included — the unit replication ships verbatim so the follower's
// batch boundaries (and therefore its resume offsets) always coincide
// with the leader's. The slice aliases the scanned data.
func (s *Scanner) RawBatch() []byte { return s.data[s.start:s.pos] }

// Err returns nil after a clean scan to end of input, or an ErrCorrupt-
// wrapped error describing why scanning stopped early.
func (s *Scanner) Err() error { return s.err }

// ValidBytes is the byte length of the longest valid batch prefix seen
// so far — the truncation point recovery rolls a torn segment back to.
func (s *Scanner) ValidBytes() int { return s.pos }

// NextOffset is the offset one past the last scanned record (the
// segment base before any batch is read).
func (s *Scanner) NextOffset() uint64 { return s.next }
