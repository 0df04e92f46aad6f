package commitlog

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzScanner feeds arbitrary bytes to the batch decoder. The contract
// under fuzz: never panic, never over-read, never yield an offsets
// batch's bytes as records, keep record offsets contiguous across
// offsets batches, and always leave a valid truncation point —
// rescanning the ValidBytes prefix must succeed cleanly and yield the
// same records (this is exactly what recovery relies on when it
// truncates a torn segment).
func FuzzScanner(f *testing.F) {
	// Seeds: empty, a valid single-record batch, two consecutive
	// batches, an empty batch, offsets batches alone and between two
	// record batches, and corrupted/truncated variants of each.
	f.Add([]byte{})
	valid := appendBatch(nil, 0, [][]byte{[]byte("hello")})
	f.Add(valid)
	two := appendBatch(valid, 1, [][]byte{[]byte("a"), nil, []byte("bb")})
	f.Add(two)
	f.Add(appendBatch(nil, 0, nil))
	f.Add(two[:len(two)-3]) // truncated tail
	corrupt := append([]byte(nil), two...)
	corrupt[len(corrupt)/2] ^= 0x40
	f.Add(corrupt)
	badMagic := append([]byte(nil), valid...)
	badMagic[0] = 0x00
	f.Add(badMagic)
	acks := appendOffsetsBatch(nil, 0, 1, map[string]uint64{"c1": 3})
	f.Add(acks)
	f.Add(acks[:len(acks)-2]) // torn offsets batch
	between := appendOffsetsBatch(append([]byte(nil), valid...), 1, 1, map[string]uint64{"c1": 1})
	between = appendBatch(between, 1, [][]byte{[]byte("b")})
	f.Add(between)
	for _, b := range [][]byte{valid, acks} {
		flipped := append([]byte(nil), b...)
		flipped[13] ^= 0x80 // the kind bit, covered by the crc
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		sc := NewScanner(data, 0)
		var n int
		var recs [][]byte
		var next uint64
		for sc.Next() {
			n++
			if n > len(data) {
				t.Fatalf("more batches (%d) than input bytes (%d)", n, len(data))
			}
			if sc.Base() != next {
				t.Fatalf("batch %d at offset %d, want %d (offsets not contiguous)", n, sc.Base(), next)
			}
			if sc.IsOffsets() && (len(sc.Records()) != 0 || sc.Count() != 0) {
				t.Fatalf("offsets batch %d yielded %d records", n, len(sc.Records()))
			}
			next += uint64(sc.Count())
			if sc.NextOffset() != next {
				t.Fatalf("batch %d ends at offset %d, want %d", n, sc.NextOffset(), next)
			}
			for _, rec := range sc.Records() {
				recs = append(recs, append([]byte(nil), rec...))
			}
		}
		valid := sc.ValidBytes()
		if valid < 0 || valid > len(data) {
			t.Fatalf("ValidBytes %d out of range [0,%d]", valid, len(data))
		}
		if sc.Err() == nil && valid != len(data) {
			t.Fatalf("clean scan stopped at %d of %d bytes", valid, len(data))
		}
		if sc.Err() != nil && !errors.Is(sc.Err(), ErrCorrupt) {
			t.Fatalf("scan error %v does not wrap ErrCorrupt", sc.Err())
		}
		// Truncate-to-last-valid: the valid prefix rescans cleanly and
		// reproduces the same records.
		re := NewScanner(data[:valid], 0)
		var again [][]byte
		for re.Next() {
			for _, rec := range re.Records() {
				again = append(again, append([]byte(nil), rec...))
			}
		}
		if re.Err() != nil {
			t.Fatalf("rescan of valid prefix failed: %v", re.Err())
		}
		if re.ValidBytes() != valid {
			t.Fatalf("rescan ValidBytes = %d, want %d", re.ValidBytes(), valid)
		}
		if len(again) != len(recs) {
			t.Fatalf("rescan yielded %d records, first scan %d", len(again), len(recs))
		}
		for i := range again {
			if !bytes.Equal(again[i], recs[i]) {
				t.Fatalf("record %d differs between scans", i)
			}
		}
	})
}
