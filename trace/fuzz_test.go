package trace

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/streammatch/apcm/expr"
)

// FuzzReadTrace feeds arbitrary bytes to both trace readers: corrupt
// input of any shape must produce an error, never a panic or a
// count-driven huge allocation. Seed corpus: valid traces of both
// kinds plus targeted corruptions (bad magic, bad kind, truncated
// records, absurd declared counts).
func FuzzReadTrace(f *testing.F) {
	var xbuf bytes.Buffer
	WriteExpressions(&xbuf, []*expr.Expression{
		expr.MustNew(1, expr.Eq(1, 5)),
		expr.MustNew(2, expr.Rng(3, -9, 9), expr.Any(2, 1, 4)),
	})
	f.Add(xbuf.Bytes())
	var ebuf bytes.Buffer
	writeEvents(&ebuf, []*expr.Event{
		expr.MustEvent(expr.P(1, 5)),
		expr.MustEvent(expr.P(1, -5), expr.P(9, 0)),
	})
	f.Add(ebuf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("APCMTRC1"))          // header only, no kind
	f.Add([]byte("APCMTRC1Z\x01"))     // invalid kind
	f.Add([]byte("WRONGMAG\x58\x01"))  // bad magic
	f.Add(xbuf.Bytes()[:xbuf.Len()-3]) // truncated final record
	f.Add(append([]byte("APCMTRC1X"),  // count 2^63: must not drive an allocation
		binary.AppendUvarint(nil, 1<<63)...))
	f.Add(append([]byte("APCMTRC1E"),
		binary.AppendUvarint(nil, 1<<40)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		xs, xerr := ReadExpressions(bytes.NewReader(data))
		evs, eerr := ReadEvents(bytes.NewReader(data))
		// At most one kind can succeed (the kind byte discriminates).
		if xerr == nil && eerr == nil && (len(xs) > 0 || len(evs) > 0) {
			t.Fatal("both trace kinds decoded the same bytes")
		}
		// Whatever decoded must survive a write/read round trip.
		if xerr == nil {
			var buf bytes.Buffer
			if err := WriteExpressions(&buf, xs); err != nil {
				t.Fatalf("re-encoding decoded expressions: %v", err)
			}
			back, err := ReadExpressions(&buf)
			if err != nil || len(back) != len(xs) {
				t.Fatalf("round trip lost expressions: %v (%d vs %d)", err, len(back), len(xs))
			}
		}
		if eerr == nil {
			var buf bytes.Buffer
			if err := writeEvents(&buf, evs); err != nil {
				t.Fatalf("re-encoding decoded events: %v", err)
			}
			back, err := ReadEvents(&buf)
			if err != nil || len(back) != len(evs) {
				t.Fatalf("round trip lost events: %v (%d vs %d)", err, len(back), len(evs))
			}
		}
	})
}

// FuzzStreamingReader drives the record-at-a-time Reader the way
// LoadSubscriptions does, checking Remaining bookkeeping never goes
// negative and errors are sticky enough to terminate a read loop.
func FuzzStreamingReader(f *testing.F) {
	var buf bytes.Buffer
	WriteExpressions(&buf, []*expr.Expression{expr.MustNew(1, expr.Eq(1, 1))})
	f.Add(buf.Bytes())
	f.Add([]byte("APCMTRC1X\x05\x01\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Every successful record consumes at least one input byte, so a
		// loop longer than the input means the reader spun without
		// progress.
		for i := 0; i <= len(data); i++ {
			if r.Kind() == KindExpressions {
				_, err = r.ReadExpression()
			} else {
				_, err = r.ReadEvent()
			}
			if err != nil {
				return
			}
			if r.Remaining() < 0 {
				t.Fatal("Remaining went negative")
			}
		}
		t.Fatal("reader produced more records than input bytes")
	})
}
