package shard_test

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/shard"
)

// The differential suite: a sharded Group must be observationally
// identical to a single Engine over the same subscription set — same
// match sets for every event, single and batched, through arbitrary
// subscribe/unsubscribe churn. Partitioning is an internal detail; any
// divergence here is a routing, fan-out or merge bug.

// diffConfig is one randomly drawn differential scenario.
type diffConfig struct {
	seed    int64
	shards  int
	workers int
	nexprs  int
	nevents int
}

func (c diffConfig) normalize() diffConfig {
	if c.seed < 0 {
		c.seed = -c.seed
	}
	c.shards = 2 + int(uint(c.shards)%7)     // 2..8
	c.workers = 1 + int(uint(c.workers)%4)   // 1..4
	c.nexprs = 200 + int(uint(c.nexprs)%600) // 200..799
	c.nevents = 40 + int(uint(c.nevents)%60) // 40..99
	return c
}

// runDifferential subscribes the same workload into a single engine and
// a group, then checks every event's match set is identical on both the
// single-event and batch paths. Returns false (failing the quick check)
// on the first divergence.
func runDifferential(t *testing.T, c diffConfig) bool {
	t.Helper()
	c = c.normalize()
	w := testWorkload(c.seed)
	xs := w.Expressions(c.nexprs)
	events := w.Events(c.nevents)

	ref := apcm.MustNew(apcm.Options{Workers: 1})
	defer ref.Close()
	g := shard.MustNew(shard.Options{Shards: c.shards, Workers: c.workers})
	defer g.Close()
	for _, x := range xs {
		if err := ref.Subscribe(x); err != nil {
			t.Fatal(err)
		}
		if err := g.Subscribe(x); err != nil {
			t.Fatal(err)
		}
	}

	// Churn: drop every third subscription from both, so the comparison
	// covers the post-unsubscribe index state too.
	for i := 0; i < len(xs); i += 3 {
		if ref.Unsubscribe(xs[i].ID) != g.Unsubscribe(xs[i].ID) {
			t.Errorf("cfg %+v: Unsubscribe(%d) disagreed", c, xs[i].ID)
			return false
		}
	}
	if ref.Len() != g.Len() {
		t.Errorf("cfg %+v: Len %d vs %d", c, ref.Len(), g.Len())
		return false
	}

	for i, ev := range events {
		want := sorted(ref.Match(ev))
		got := sorted(g.Match(ev))
		if !equalIDs(got, want) {
			t.Errorf("cfg %+v: event %d: group %v, engine %v", c, i, got, want)
			return false
		}
	}

	var rr, gr apcm.BatchResult
	ref.MatchBatchInto(events, &rr)
	g.MatchBatchInto(events, &gr)
	if rr.Len() != gr.Len() {
		t.Errorf("cfg %+v: batch Len %d vs %d", c, gr.Len(), rr.Len())
		return false
	}
	for i := 0; i < rr.Len(); i++ {
		want := sorted(append([]expr.ID(nil), rr.For(i)...))
		got := sorted(append([]expr.ID(nil), gr.For(i)...))
		if !equalIDs(got, want) {
			t.Errorf("cfg %+v: batch event %d: group %v, engine %v", c, i, got, want)
			return false
		}
	}
	return true
}

func equalIDs(a, b []expr.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGroupMatchesEngineQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 8}
	if testing.Short() {
		cfg.MaxCount = 3
	}
	f := func(seed int64, shards, workers, nexprs, nevents int) bool {
		return runDifferential(t, diffConfig{
			seed:    seed,
			shards:  shards,
			workers: workers,
			nexprs:  nexprs,
			nevents: nevents,
		})
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestGroupMatchesEngineFixed pins the corner shapes the quick draw may
// miss: 1 shard (pure delegation) and shards > GOMAXPROCS.
func TestGroupMatchesEngineFixed(t *testing.T) {
	for _, c := range []diffConfig{
		{seed: 1, shards: -1, workers: 0, nexprs: 100, nevents: 10},
		{seed: 2, shards: 14, workers: 2, nexprs: 300, nevents: 20},
		{seed: 3, shards: 6, workers: 3, nexprs: 500, nevents: 30},
	} {
		if !runDifferential(t, c) {
			t.Fatalf("fixed config %+v diverged", c)
		}
	}
	// True single-shard group (normalize floors at 2 above): the direct
	// delegation path.
	w := testWorkload(5)
	xs := w.Expressions(400)
	events := w.Events(40)
	ref := apcm.MustNew(apcm.Options{Workers: 1})
	defer ref.Close()
	g := shard.MustNew(shard.Options{Shards: 1, Workers: 1})
	defer g.Close()
	for _, x := range xs {
		if err := ref.Subscribe(x); err != nil {
			t.Fatal(err)
		}
		if err := g.Subscribe(x); err != nil {
			t.Fatal(err)
		}
	}
	for i, ev := range events {
		if !equalIDs(sorted(g.Match(ev)), sorted(ref.Match(ev))) {
			t.Fatalf("single-shard group diverged on event %d", i)
		}
	}
}

// TestGroupConcurrentChurn races matching against subscribe/unsubscribe
// churn, checkpoints and stats reads, then checks the settled group
// still agrees with a single engine rebuilt from its own snapshot. Run
// under -race in CI, this is the memory-model gate for the mu contract
// (shared for writers and matchers, exclusive for snapshots and Close).
func TestGroupConcurrentChurn(t *testing.T) {
	w := testWorkload(41)
	xs := w.Expressions(1500)
	events := w.Events(200)
	g := shard.MustNew(shard.Options{Shards: 4, Workers: 2})
	defer g.Close()
	for _, x := range xs[:1000] {
		if err := g.Subscribe(x); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var matcher sync.WaitGroup
	matcher.Add(1)
	go func() {
		defer matcher.Done()
		var dst []expr.ID
		var r apcm.BatchResult
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			dst = g.MatchAppend(dst[:0], events[i%len(events)])
			if i%16 == 0 {
				g.MatchBatchInto(events[:32], &r)
			}
		}
	}()

	var writers sync.WaitGroup
	writers.Add(1)
	go func() { // churner: drop the first 500, add the last 500
		defer writers.Done()
		for i := 0; i < 500; i++ {
			g.Unsubscribe(xs[i].ID)
			if err := g.Subscribe(xs[1000+i]); err != nil {
				t.Errorf("subscribe during churn: %v", err)
				return
			}
		}
	}()
	ckptPath := t.TempDir() + "/churn.ckpt"
	writers.Add(1)
	go func() { // snapshotter
		defer writers.Done()
		for i := 0; i < 5; i++ {
			if err := g.CheckpointSubscriptions(ckptPath); err != nil {
				t.Errorf("checkpoint during churn: %v", err)
				return
			}
		}
	}()
	writers.Add(1)
	go func() { // observer
		defer writers.Done()
		for i := 0; i < 50; i++ {
			g.Stats()
			g.Len()
		}
	}()

	writers.Wait()
	close(stop)
	matcher.Wait()

	if g.Len() != 1000 {
		t.Fatalf("settled Len = %d, want 1000", g.Len())
	}

	// Rebuild a single engine from the group's own snapshot and compare
	// the settled match sets.
	var buf bytes.Buffer
	if err := g.SaveSubscriptions(&buf); err != nil {
		t.Fatal(err)
	}
	ref := apcm.MustNew(apcm.Options{Workers: 1})
	defer ref.Close()
	if n, err := ref.LoadSubscriptions(bytes.NewReader(buf.Bytes())); err != nil || n != 1000 {
		t.Fatalf("LoadSubscriptions = (%d, %v), want (1000, nil)", n, err)
	}
	for i, ev := range events[:50] {
		if !equalIDs(sorted(g.Match(ev)), sorted(ref.Match(ev))) {
			t.Fatalf("settled group diverged from snapshot-rebuilt engine on event %d", i)
		}
	}
}
