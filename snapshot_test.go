package apcm_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/trace"
)

// TestPartialLoadAdvancesIDAllocator: a load that fails partway keeps
// the subscriptions read before the failure, and the id allocator must
// be past every one of them — NewID colliding with a survivor would
// silently cross-wire two subscriptions.
func TestPartialLoadAdvancesIDAllocator(t *testing.T) {
	var buf bytes.Buffer
	xs := []*expr.Expression{
		expr.MustNew(100, expr.Eq(1, 1)),
		expr.MustNew(200, expr.Eq(2, 2)),
	}
	if err := trace.WriteExpressions(&buf, xs); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	eng := apcm.MustNew(apcm.Options{Workers: 1})
	defer eng.Close()
	// Chop the trace mid-second-record: the first expression loads, the
	// second fails.
	n, err := eng.LoadSubscriptions(bytes.NewReader(full[:len(full)-1]))
	if err == nil {
		t.Fatal("truncated trace loaded without error")
	}
	if n != 1 {
		t.Fatalf("loaded %d subscriptions from the truncated trace, want 1", n)
	}
	if got := eng.Len(); got != 1 {
		t.Fatalf("engine holds %d subscriptions, want 1", got)
	}
	if id := eng.NewID(); id <= 100 {
		t.Fatalf("NewID = %d after restoring id 100, want > 100", id)
	}
}

func TestCheckpointRoundtrip(t *testing.T) {
	eng := apcm.MustNew(apcm.Options{Workers: 1})
	defer eng.Close()
	for i := expr.ID(1); i <= 5; i++ {
		if err := eng.Subscribe(expr.MustNew(i, expr.Eq(expr.AttrID(i), expr.Value(i)))); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "subs.ckpt")
	if err := eng.CheckpointSubscriptions(path); err != nil {
		t.Fatal(err)
	}

	restored := apcm.MustNew(apcm.Options{Workers: 1})
	defer restored.Close()
	n, err := restored.RestoreSubscriptions(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 || restored.Len() != 5 {
		t.Fatalf("restored %d subscriptions (engine holds %d), want 5", n, restored.Len())
	}
	if id := restored.NewID(); id <= 5 {
		t.Fatalf("NewID = %d after restoring ids 1..5, want > 5", id)
	}
	got := restored.Match(expr.MustEvent(expr.P(3, 3)))
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("restored engine matched %v, want [3]", got)
	}
}

// TestCheckpointFailureKeepsPrevious: a checkpoint attempt whose
// content writer fails after writing part of the file must leave the
// previous checkpoint byte-for-byte intact and no temporary litter
// behind.
func TestCheckpointFailureKeepsPrevious(t *testing.T) {
	eng := apcm.MustNew(apcm.Options{Workers: 1})
	defer eng.Close()
	if err := eng.Subscribe(expr.MustNew(1, expr.Eq(1, 1))); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "subs.ckpt")
	if err := eng.CheckpointSubscriptions(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Fail the next write after the temp file holds some bytes.
	errWrite := errors.New("write failed")
	err = apcm.WriteCheckpoint(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("partial")); err != nil {
			return err
		}
		return errWrite
	})
	if !errors.Is(err, errWrite) {
		t.Fatalf("failed checkpoint returned %v, want %v", err, errWrite)
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("previous checkpoint gone after failed attempt: %v", err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed checkpoint attempt modified the previous checkpoint")
	}
	leftover, err := filepath.Glob(filepath.Join(dir, ".apcm-checkpoint-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftover) != 0 {
		t.Fatalf("temp files left behind: %v", leftover)
	}
	restored := apcm.MustNew(apcm.Options{Workers: 1})
	defer restored.Close()
	if n, err := restored.RestoreSubscriptions(path); err != nil || n != 1 {
		t.Fatalf("RestoreSubscriptions = %d, %v after failed re-checkpoint, want 1, nil", n, err)
	}
}

// TestRestoreMissingCheckpoint: first boot, no checkpoint yet — not an
// error.
func TestRestoreMissingCheckpoint(t *testing.T) {
	eng := apcm.MustNew(apcm.Options{Workers: 1})
	defer eng.Close()
	n, err := eng.RestoreSubscriptions(filepath.Join(t.TempDir(), "never-written.ckpt"))
	if err != nil || n != 0 {
		t.Fatalf("RestoreSubscriptions = %d, %v for a missing file, want 0, nil", n, err)
	}
}

func TestLoadSubscriptionsPartialFailure(t *testing.T) {
	// A duplicate id mid-trace stops the load; the error reports how far
	// it got and earlier subscriptions remain live.
	xs := []*expr.Expression{
		expr.MustNew(1, expr.Eq(1, 1)),
		expr.MustNew(2, expr.Eq(1, 2)),
		expr.MustNew(1, expr.Eq(1, 3)), // duplicate id
	}
	var buf bytes.Buffer
	if err := writeExpressionTrace(&buf, xs); err != nil {
		t.Fatal(err)
	}
	e := apcm.MustNew(apcm.Options{Workers: 1})
	defer e.Close()
	n, err := e.LoadSubscriptions(&buf)
	if err == nil {
		t.Fatal("duplicate id in trace should fail the load")
	}
	if n != 2 {
		t.Fatalf("loaded %d before failure, want 2", n)
	}
	if e.Len() != 2 {
		t.Fatalf("Len = %d after partial load", e.Len())
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	g := testWorkload(11)
	xs := g.Expressions(500)
	events := g.Events(100)
	src := apcm.MustNew(apcm.Options{Workers: 1})
	defer src.Close()
	for _, x := range xs {
		if err := src.Subscribe(x); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := src.SaveSubscriptions(&buf); err != nil {
		t.Fatal(err)
	}

	for _, workers := range engineWorkers {
		dst := apcm.MustNew(apcm.Options{Workers: workers})
		n, err := dst.LoadSubscriptions(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if n != len(xs) || dst.Len() != len(xs) {
			t.Fatalf("workers=%d: loaded %d, Len %d, want %d", workers, n, dst.Len(), len(xs))
		}
		for _, ev := range events {
			a := sorted(src.Match(ev))
			b := sorted(dst.Match(ev))
			if !equalIDs(a, b) {
				t.Fatalf("workers=%d: snapshot changed matching: %v vs %v", workers, b, a)
			}
		}
		// NewID must not collide with restored ids.
		if id := dst.NewID(); id <= 500 {
			t.Fatalf("workers=%d: NewID after load = %d, may collide", workers, id)
		}
		dst.Close()
	}
}

func TestLoadRejectsEventTrace(t *testing.T) {
	var buf bytes.Buffer
	g := testWorkload(12)
	evs := g.Events(3)
	if err := writeEventTrace(&buf, evs); err != nil {
		t.Fatal(err)
	}
	e := apcm.MustNew(apcm.Options{Workers: 1})
	defer e.Close()
	if _, err := e.LoadSubscriptions(&buf); err == nil {
		t.Fatal("event trace accepted as subscriptions")
	}
}

func TestSaveAfterClose(t *testing.T) {
	e := apcm.MustNew(apcm.Options{Workers: 1})
	e.Close()
	var buf bytes.Buffer
	if err := e.SaveSubscriptions(&buf); err != apcm.ErrClosed {
		t.Fatalf("SaveSubscriptions after close = %v", err)
	}
}
