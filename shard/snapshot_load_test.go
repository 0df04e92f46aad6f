package shard_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/metrics"
	"github.com/streammatch/apcm/shard"
	"github.com/streammatch/apcm/trace"
)

// atProcs runs fn as one subtest per GOMAXPROCS setting. The restore
// takes the same code path at every setting, but the interleaving of
// its reader and per-shard insert goroutines differs.
func atProcs(t *testing.T, fn func(t *testing.T)) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			fn(t)
		})
	}
}

// TestGroupLoadEquivalence: a restore must agree with a per-call
// Subscribe build across shard counts — same Len, same matches, same
// id-allocator state.
func TestGroupLoadEquivalence(t *testing.T) {
	w := testWorkload(31)
	xs := w.Expressions(1200)
	events := w.Events(60)
	var buf bytes.Buffer
	if err := trace.WriteExpressions(&buf, xs); err != nil {
		t.Fatal(err)
	}
	var maxID expr.ID
	for _, x := range xs {
		maxID = max(maxID, x.ID)
	}

	ref := shard.MustNew(shard.Options{Shards: 2, Workers: 2})
	defer ref.Close()
	subscribeAll(t, ref, xs)

	atProcs(t, func(t *testing.T) {
		for _, shards := range []int{1, 2, 3} {
			g := shard.MustNew(shard.Options{Shards: shards, Workers: 2})
			n, err := g.LoadSubscriptions(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%d shards: %v", shards, err)
			}
			if n != len(xs) || g.Len() != len(xs) {
				t.Fatalf("%d shards: loaded %d (Len %d), want %d", shards, n, g.Len(), len(xs))
			}
			if id := g.NewID(); id <= maxID {
				t.Fatalf("%d shards: NewID = %d after loading ids up to %d", shards, id, maxID)
			}
			for i, ev := range events {
				if got, want := sorted(g.Match(ev)), sorted(ref.Match(ev)); !equalIDs(got, want) {
					t.Fatalf("%d shards: event %d: %v, want %v", shards, i, got, want)
				}
			}
			g.Close()
		}
	})
}

// TestGroupLoadTruncated: a truncated tail fails the load but keeps
// every complete record.
func TestGroupLoadTruncated(t *testing.T) {
	w := testWorkload(37)
	xs := w.Expressions(500)
	var buf bytes.Buffer
	if err := trace.WriteExpressions(&buf, xs); err != nil {
		t.Fatal(err)
	}
	atProcs(t, func(t *testing.T) {
		g := shard.MustNew(shard.Options{Shards: 3, Workers: 2})
		defer g.Close()
		n, err := g.LoadSubscriptions(bytes.NewReader(buf.Bytes()[:buf.Len()-2]))
		if err == nil {
			t.Fatal("truncated trace loaded without error")
		}
		if n != len(xs)-1 || g.Len() != n {
			t.Fatalf("loaded %d (Len %d) from the truncated trace, want %d", n, g.Len(), len(xs)-1)
		}
	})
}

// TestGroupLoadDuplicate: a duplicate id stops its owning shard at the
// duplicate, the error surfaces, and the other shards finish their
// share — every record routed to them is loaded.
func TestGroupLoadDuplicate(t *testing.T) {
	// The failing shard receives about 500 records before the duplicate,
	// so it fails in its first chunk, and several chunks after it. The
	// trace runs on well past what the lane queues can buffer, so the
	// other shards' later records load only if reading goes on after
	// the failure.
	xs := testWorkload(41).Expressions(16000)
	const at = 1500 // the duplicate is record at+1
	dup := *xs[10]
	recs := make([]*expr.Expression, 0, len(xs)+1)
	recs = append(recs, xs[:at]...)
	recs = append(recs, &dup)
	recs = append(recs, xs[at:]...)
	var buf bytes.Buffer
	if err := trace.WriteExpressions(&buf, recs); err != nil {
		t.Fatal(err)
	}
	atProcs(t, func(t *testing.T) {
		g := shard.MustNew(shard.Options{Shards: 3, Workers: 2})
		defer g.Close()
		n, err := g.LoadSubscriptions(bytes.NewReader(buf.Bytes()))
		if err == nil {
			t.Fatal("duplicate-id trace loaded without error")
		}
		if g.Len() != n {
			t.Fatalf("loaded %d but group holds %d", n, g.Len())
		}
		failing := g.ShardOf(&dup)
		for i, x := range recs {
			if i == at {
				continue
			}
			want := g.ShardOf(x) != failing || i < at
			if got := g.Unsubscribe(x.ID); got != want {
				t.Fatalf("record %d (id %d, shard %d of failing %d): loaded = %v, want %v",
					i+1, x.ID, g.ShardOf(x), failing, got, want)
			}
		}
		if id := g.NewID(); id <= expr.ID(len(xs)) {
			t.Fatalf("NewID = %d after a load that read ids up to %d", id, len(xs))
		}
	})
}

// TestGroupRestoreMetrics: a group restore is recorded under the
// apcm_coldstart_* instruments, in the same series an engine sharing
// the registry records into.
func TestGroupRestoreMetrics(t *testing.T) {
	reg := metrics.New()
	g := shard.MustNew(shard.Options{Shards: 3, Workers: 2, Metrics: reg})
	defer g.Close()
	eng := apcm.MustNew(apcm.Options{Workers: 1, Metrics: reg})
	defer eng.Close()
	restores := reg.Counter("apcm_coldstart_restores_total", "")
	subs := reg.Counter("apcm_coldstart_subscriptions_total", "")
	latency := reg.Histogram("apcm_coldstart_latency_ns", "")

	var buf bytes.Buffer
	if err := trace.WriteExpressions(&buf, testWorkload(43).Expressions(300)); err != nil {
		t.Fatal(err)
	}
	n, err := g.LoadSubscriptions(bytes.NewReader(buf.Bytes()))
	if err != nil || n != 300 {
		t.Fatalf("group restore = %d, %v", n, err)
	}
	if restores.Value() != 1 || subs.Value() != 300 || latency.Count() != 1 {
		t.Fatalf("after a group restore: restores %d, subscriptions %d, latency samples %d; want 1, 300, 1",
			restores.Value(), subs.Value(), latency.Count())
	}
	if _, err := eng.LoadSubscriptions(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if restores.Value() != 2 || subs.Value() != 600 {
		t.Fatalf("after an engine restore on the shared registry: restores %d, subscriptions %d; want 2, 600",
			restores.Value(), subs.Value())
	}
}
