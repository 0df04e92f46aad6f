package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/workload"
)

// writeEvents writes events as a complete trace through the streaming
// Writer.
func writeEvents(w io.Writer, events []*expr.Event) error {
	t, err := NewWriter(w, KindEvents, len(events))
	if err != nil {
		return err
	}
	for _, e := range events {
		if err := t.WriteEvent(e); err != nil {
			return err
		}
	}
	return t.Close()
}

func genWorkload(t *testing.T) ([]*expr.Expression, []*expr.Event) {
	t.Helper()
	p := workload.Default()
	p.NumAttrs = 20
	p.EventAttrs = 6
	p.WNegated = 0.05
	g := workload.MustNew(p)
	return g.Expressions(300), g.Events(300)
}

func TestExpressionRoundTrip(t *testing.T) {
	xs, _ := genWorkload(t)
	var buf bytes.Buffer
	if err := WriteExpressions(&buf, xs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadExpressions(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(xs) {
		t.Fatalf("read %d of %d", len(got), len(xs))
	}
	for i := range xs {
		if got[i].String() != xs[i].String() || got[i].ID != xs[i].ID {
			t.Fatalf("record %d: %s != %s", i, got[i], xs[i])
		}
	}
}

func TestEventRoundTrip(t *testing.T) {
	_, events := genWorkload(t)
	var buf bytes.Buffer
	if err := writeEvents(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d of %d", len(got), len(events))
	}
	for i := range events {
		if got[i].String() != events[i].String() {
			t.Fatalf("record %d: %s != %s", i, got[i], events[i])
		}
	}
}

func TestStreamingReader(t *testing.T) {
	xs, _ := genWorkload(t)
	var buf bytes.Buffer
	if err := WriteExpressions(&buf, xs); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind() != KindExpressions {
		t.Fatalf("Kind = %q", r.Kind())
	}
	if r.Remaining() != len(xs) {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
	n := 0
	for {
		_, err := r.ReadExpression()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != len(xs) {
		t.Fatalf("streamed %d of %d", n, len(xs))
	}
	if _, err := r.ReadExpression(); err != io.EOF {
		t.Fatalf("read past end = %v, want EOF", err)
	}
}

func TestKindMismatch(t *testing.T) {
	xs, events := genWorkload(t)
	var buf bytes.Buffer
	if err := WriteExpressions(&buf, xs); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadEvent(); err == nil {
		t.Fatal("event read from expression trace should fail")
	}

	w, err := NewWriter(io.Discard, KindEvents, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteExpression(xs[0]); err == nil {
		t.Fatal("expression write to event trace should fail")
	}
	if err := w.WriteEvent(events[0]); err != nil {
		t.Fatal(err)
	}
}

func TestWriterCountEnforcement(t *testing.T) {
	xs, _ := genWorkload(t)
	w, err := NewWriter(io.Discard, KindExpressions, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteExpression(xs[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("short trace should fail to Close")
	}

	w2, _ := NewWriter(io.Discard, KindExpressions, 1)
	if err := w2.WriteExpression(xs[0]); err != nil {
		t.Fatal(err)
	}
	if err := w2.WriteExpression(xs[1]); err == nil {
		t.Fatal("overlong trace should fail")
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal("Close should be idempotent")
	}
	if err := w2.WriteExpression(xs[0]); err == nil {
		t.Fatal("write after Close should fail")
	}
}

func TestNewWriterValidation(t *testing.T) {
	if _, err := NewWriter(io.Discard, Kind('Z'), 1); err == nil {
		t.Fatal("invalid kind accepted")
	}
	if _, err := NewWriter(io.Discard, KindEvents, -1); err == nil {
		t.Fatal("negative count accepted")
	}
}

func TestCorruptInputs(t *testing.T) {
	xs, _ := genWorkload(t)
	var buf bytes.Buffer
	if err := WriteExpressions(&buf, xs[:5]); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Bad magic.
	bad := append([]byte("NOTMAGIC"), full[8:]...)
	if _, err := NewReader(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Bad kind.
	bad2 := append([]byte(nil), full...)
	bad2[8] = 'Z'
	if _, err := NewReader(bytes.NewReader(bad2)); err == nil {
		t.Fatal("bad kind accepted")
	}
	// Truncations at every boundary must error, not panic or loop.
	for cut := 0; cut < len(full); cut += 7 {
		_, err := ReadExpressions(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Empty stream.
	if _, err := NewReader(strings.NewReader("")); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := writeEvents(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("read %d from empty trace", len(got))
	}
}

func TestReplayedWorkloadMatchesIdentically(t *testing.T) {
	// The point of traces: replay must reproduce exact match results.
	xs, events := genWorkload(t)
	var xbuf, ebuf bytes.Buffer
	if err := WriteExpressions(&xbuf, xs); err != nil {
		t.Fatal(err)
	}
	if err := writeEvents(&ebuf, events); err != nil {
		t.Fatal(err)
	}
	xs2, err := ReadExpressions(&xbuf)
	if err != nil {
		t.Fatal(err)
	}
	events2, err := ReadEvents(&ebuf)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range events {
		for j, x := range xs {
			if x.MatchesEvent(ev) != xs2[j].MatchesEvent(events2[i]) {
				t.Fatalf("replayed workload diverges at event %d expression %d", i, j)
			}
		}
	}
}
