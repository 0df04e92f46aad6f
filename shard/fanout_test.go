package shard_test

import (
	"runtime"
	"testing"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/shard"
)

// TestFanOutSequentialOnSingleProc: with GOMAXPROCS=1 the fan-out
// degrades to an inline loop over the shards (see Group.runFan) — the
// worker pool would only add handoff latency. The degraded path must be
// observationally identical to pooled fan-out: same matches and same
// batch segments.
func TestFanOutSequentialOnSingleProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w := testWorkload(41)
	xs := w.Expressions(600)
	events := w.Events(128)

	g := shard.MustNew(shard.Options{Shards: 4, Workers: 2})
	defer g.Close()
	subscribeAll(t, g, xs)

	ref := apcm.MustNew(apcm.Options{Workers: 1})
	defer ref.Close()
	for _, x := range xs {
		if err := ref.Subscribe(x); err != nil {
			t.Fatal(err)
		}
	}

	for i, ev := range events {
		want := sorted(ref.Match(ev))
		if got := sorted(g.Match(ev)); !equalIDs(got, want) {
			t.Fatalf("event %d: %v, want %v", i, got, want)
		}
	}

	var r apcm.BatchResult
	g.MatchBatchInto(events[:32], &r)
	for i := 0; i < 32; i++ {
		want := sorted(ref.Match(events[i]))
		got := sorted(append([]expr.ID(nil), r.For(i)...))
		if !equalIDs(got, want) {
			t.Fatalf("batch event %d: %v, want %v", i, got, want)
		}
	}
}
