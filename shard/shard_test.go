package shard_test

import (
	"bytes"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/metrics"
	"github.com/streammatch/apcm/shard"
	"github.com/streammatch/apcm/workload"
)

func testWorkload(seed int64) *workload.Generator {
	p := workload.Default()
	p.Seed = seed
	p.NumAttrs = 25
	p.Cardinality = 50
	p.EventAttrs = 8
	p.PredsMin, p.PredsMax = 1, 4
	p.MatchFraction = 0.3
	p.WNegated = 0.05
	return workload.MustNew(p)
}

func sorted(ids []expr.ID) []expr.ID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func subscribeAll(tb testing.TB, g *shard.Group, xs []*expr.Expression) {
	tb.Helper()
	for _, x := range xs {
		if err := g.Subscribe(x); err != nil {
			tb.Fatal(err)
		}
	}
}

func TestGroupOptions(t *testing.T) {
	if _, err := shard.New(shard.Options{Shards: -1}); err == nil {
		t.Fatal("negative shard count accepted")
	}
	g := shard.MustNew(shard.Options{})
	defer g.Close()
	if n := len(g.Stats().PerShard); n < 1 {
		t.Fatalf("zero-value Options built %d shards", n)
	}
}

// TestRoutingSpread checks that hash routing spreads a realistic
// expression population roughly uniformly over every shard.
func TestRoutingSpread(t *testing.T) {
	g := shard.MustNew(shard.Options{Shards: 8, Workers: 1})
	defer g.Close()
	w := testWorkload(7)
	xs := w.Expressions(4000)
	subscribeAll(t, g, xs)
	st := g.Stats()
	if st.Subscriptions != len(xs) {
		t.Fatalf("%d subscriptions routed, want %d", st.Subscriptions, len(xs))
	}
	want := len(xs) / len(st.PerShard)
	for s, ss := range st.PerShard {
		if ss.Subscriptions < want/2 || ss.Subscriptions > want*2 {
			t.Errorf("shard %d occupancy %d, want ~%d", s, ss.Subscriptions, want)
		}
	}
}

func TestGroupSubscribeMatchUnsubscribe(t *testing.T) {
	g := shard.MustNew(shard.Options{Shards: 4, Workers: 2})
	defer g.Close()
	w := testWorkload(11)
	xs := w.Expressions(1200)
	events := w.Events(150)
	subscribeAll(t, g, xs)
	if g.Len() != len(xs) {
		t.Fatalf("Len() = %d, want %d", g.Len(), len(xs))
	}
	g.Prepare()
	for i, ev := range events {
		var want []expr.ID
		for _, x := range xs {
			if x.MatchesEvent(ev) {
				want = append(want, x.ID)
			}
		}
		if got := sorted(g.Match(ev)); !equalIDs(got, sorted(want)) {
			t.Fatalf("event %d: group %v, oracle %v", i, got, want)
		}
	}
	for _, x := range xs[:300] {
		if !g.Unsubscribe(x.ID) {
			t.Fatalf("Unsubscribe(%d) reported absent", x.ID)
		}
	}
	if g.Unsubscribe(xs[0].ID) {
		t.Fatal("double Unsubscribe reported present")
	}
	if g.Len() != len(xs)-300 {
		t.Fatalf("Len() = %d after removals, want %d", g.Len(), len(xs)-300)
	}
}

func TestGroupNewIDUnique(t *testing.T) {
	g := shard.MustNew(shard.Options{Shards: 4, Workers: 1})
	defer g.Close()
	seen := map[expr.ID]bool{}
	for i := 0; i < 1000; i++ {
		id := g.NewID()
		if seen[id] {
			t.Fatalf("NewID repeated %d", id)
		}
		seen[id] = true
	}
	// Subscribing an externally-chosen id advances the allocator past it.
	w := testWorkload(3)
	x := w.Expressions(1)[0]
	x.ID = 1 << 30
	if err := g.Subscribe(x); err != nil {
		t.Fatal(err)
	}
	if id := g.NewID(); id <= 1<<30 {
		t.Fatalf("NewID() = %d after subscribing id %d", id, 1<<30)
	}
}

func TestGroupSubscribePreds(t *testing.T) {
	g := shard.MustNew(shard.Options{Shards: 4, Workers: 1})
	defer g.Close()
	id := g.NewID()
	if err := g.Subscribe(expr.MustNew(id, expr.Eq(1, 10))); err != nil {
		t.Fatal(err)
	}
	ev := expr.MustEvent(expr.P(1, 10))
	got := g.Match(ev)
	if len(got) != 1 || got[0] != id {
		t.Fatalf("Match = %v, want [%d]", got, id)
	}
	if !g.Unsubscribe(id) {
		t.Fatal("Unsubscribe reported absent")
	}
}

func TestGroupSnapshotRoundtrip(t *testing.T) {
	src := shard.MustNew(shard.Options{Shards: 4, Workers: 2})
	defer src.Close()
	w := testWorkload(13)
	xs := w.Expressions(900)
	events := w.Events(60)
	subscribeAll(t, src, xs)

	var buf bytes.Buffer
	if err := src.SaveSubscriptions(&buf); err != nil {
		t.Fatal(err)
	}

	// Restore into a group of a different shape: the trace is flat, so
	// the shard count need not match the saving group's.
	dst := shard.MustNew(shard.Options{Shards: 2, Workers: 2})
	defer dst.Close()
	n, err := dst.LoadSubscriptions(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(xs) {
		t.Fatalf("loaded %d subscriptions, want %d", n, len(xs))
	}
	for i, ev := range events {
		if got, want := sorted(dst.Match(ev)), sorted(src.Match(ev)); !equalIDs(got, want) {
			t.Fatalf("event %d: loaded group %v, source %v", i, got, want)
		}
	}
}

func TestGroupCheckpointRestore(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "subs.ckpt")

	src := shard.MustNew(shard.Options{Shards: 4, Workers: 2})
	w := testWorkload(17)
	xs := w.Expressions(700)
	events := w.Events(50)
	subscribeAll(t, src, xs)
	if err := src.CheckpointSubscriptions(path); err != nil {
		t.Fatal(err)
	}

	dst := shard.MustNew(shard.Options{Shards: 8, Workers: 2})
	defer dst.Close()
	n, err := dst.RestoreSubscriptions(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(xs) {
		t.Fatalf("restored %d subscriptions, want %d", n, len(xs))
	}
	for i, ev := range events {
		want := sorted(src.Match(ev))
		got := sorted(dst.Match(ev))
		if len(got) != len(want) {
			t.Fatalf("event %d: restored group returned %d matches, source %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("event %d: restored group diverged from source", i)
			}
		}
	}
	src.Close()

	// NewID on the restored group must clear every restored id.
	var maxID expr.ID
	for _, x := range xs {
		if x.ID > maxID {
			maxID = x.ID
		}
	}
	if id := dst.NewID(); id <= maxID {
		t.Fatalf("NewID() = %d after restore, want > %d", id, maxID)
	}

	// A missing checkpoint restores nothing and is not an error.
	fresh := shard.MustNew(shard.Options{Shards: 2, Workers: 1})
	defer fresh.Close()
	n, err = fresh.RestoreSubscriptions(filepath.Join(dir, "absent.ckpt"))
	if err != nil || n != 0 {
		t.Fatalf("RestoreSubscriptions(absent) = (%d, %v), want (0, nil)", n, err)
	}
}

func TestGroupLoadRejectsEventTrace(t *testing.T) {
	g := shard.MustNew(shard.Options{Shards: 2, Workers: 1})
	defer g.Close()
	if _, err := g.LoadSubscriptions(strings.NewReader("not a trace")); err == nil {
		t.Fatal("LoadSubscriptions accepted garbage")
	}
}

func TestGroupClosed(t *testing.T) {
	g := shard.MustNew(shard.Options{Shards: 4, Workers: 2})
	w := testWorkload(19)
	xs := w.Expressions(200)
	ev := w.Events(1)[0]
	subscribeAll(t, g, xs)
	g.Close()
	g.Close() // idempotent

	if got := g.Match(ev); got != nil {
		t.Fatalf("Match on closed group = %v, want nil", got)
	}
	if err := g.Subscribe(xs[0]); err == nil {
		t.Fatal("Subscribe on closed group succeeded")
	}
	var r apcm.BatchResult
	g.MatchBatchInto(w.Events(8), &r)
	if r.Len() != 8 {
		t.Fatalf("closed MatchBatchInto sized result to %d, want 8", r.Len())
	}
	for i := 0; i < r.Len(); i++ {
		if len(r.For(i)) != 0 {
			t.Fatalf("closed MatchBatchInto reported matches for event %d", i)
		}
	}
	if err := g.SaveSubscriptions(&bytes.Buffer{}); err == nil {
		t.Fatal("SaveSubscriptions on closed group succeeded")
	}
	if _, err := g.LoadSubscriptions(&bytes.Buffer{}); err == nil {
		t.Fatal("LoadSubscriptions on closed group succeeded")
	}
	g.Prepare() // must not panic on the closed pool
}

func TestGroupStats(t *testing.T) {
	g := shard.MustNew(shard.Options{Shards: 4, Workers: 2})
	defer g.Close()
	w := testWorkload(23)
	subscribeAll(t, g, w.Expressions(800))
	st := g.Stats()
	if st.Shards != 4 || st.Workers != 2 {
		t.Fatalf("Stats shape = %+v", st)
	}
	if st.Subscriptions != 800 || len(st.PerShard) != 4 {
		t.Fatalf("Stats counts = %+v", st)
	}
	sum := 0
	for _, ss := range st.PerShard {
		sum += ss.Subscriptions
	}
	if sum != st.Subscriptions {
		t.Fatalf("per-shard subscriptions sum %d != total %d", sum, st.Subscriptions)
	}
	if st.MemBytes <= 0 {
		t.Fatalf("MemBytes = %d", st.MemBytes)
	}
}

func TestGroupMetrics(t *testing.T) {
	reg := metrics.New()
	g := shard.MustNew(shard.Options{Shards: 3, Workers: 2, Metrics: reg})
	defer g.Close()
	w := testWorkload(29)
	subscribeAll(t, g, w.Expressions(400))
	events := w.Events(100)
	for _, ev := range events {
		g.Match(ev)
	}
	var r apcm.BatchResult
	g.MatchBatchInto(events, &r)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{
		"apcm_shard_count",
		"apcm_shard_group_subscriptions",
		"apcm_shard_fanout_latency_ns",
		"apcm_shard_merge_latency_ns",
		`apcm_shard_subscriptions{shard="0"}`,
		`apcm_shard_mem_bytes{shard="1"}`,
		`apcm_shard_events_total{shard="0"}`,
	} {
		if !strings.Contains(out, name) {
			t.Errorf("exposition missing %s", name)
		}
	}
	st := g.Stats()
	// 100 singles + one 100-event batch fanned to every shard.
	for s, ss := range st.PerShard {
		if ss.Events != 200 {
			t.Errorf("shard %d Events = %d, want 200", s, ss.Events)
		}
	}
}
