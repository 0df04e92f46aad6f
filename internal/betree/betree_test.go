package betree

import (
	"testing"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/match"
	"github.com/streammatch/apcm/internal/matchtest"
	"github.com/streammatch/apcm/workload"
)

func TestConformanceDefault(t *testing.T) {
	matchtest.RunConformance(t, func() match.Matcher { return New(DefaultConfig()) })
}

func TestConformanceTinyPools(t *testing.T) {
	// MaxPool 2 forces maximal partitioning depth.
	matchtest.RunConformance(t, func() match.Matcher {
		return New(Config{MaxPool: 2, MaxClusterDepth: 32})
	})
}

func TestConformanceHugePools(t *testing.T) {
	// A pool bound larger than any conformance workload degenerates the
	// tree to one pool; matching must still be exact.
	matchtest.RunConformance(t, func() match.Matcher {
		return New(Config{MaxPool: 1 << 20, MaxClusterDepth: 32})
	})
}

func TestConfigSanitize(t *testing.T) {
	tr := New(Config{MaxPool: -1, MaxClusterDepth: 1000})
	if tr.cfg.MaxPool <= 0 || tr.cfg.MaxClusterDepth > 40 {
		t.Fatalf("config not sanitized: %+v", tr.cfg)
	}
}

func TestPartitioningActuallyHappens(t *testing.T) {
	p := workload.Default()
	p.NumAttrs = 20
	p.EventAttrs = 8
	g := workload.MustNew(p)
	tr := New(Config{MaxPool: 8})
	for _, x := range g.Expressions(2000) {
		if err := tr.Insert(x); err != nil {
			t.Fatal(err)
		}
	}
	s := tr.Stats()
	if s.Parts == 0 {
		t.Fatal("no partitions created on an overflowing workload")
	}
	if s.Exprs != 2000 {
		t.Fatalf("Stats.Exprs = %d", s.Exprs)
	}
	if s.Pools == 0 || s.Nodes < s.Pools {
		t.Fatalf("implausible shape: %+v", s)
	}
}

func TestPruningVisitsFewerPoolsThanTotal(t *testing.T) {
	p := workload.Default()
	p.NumAttrs = 50
	p.EventAttrs = 10
	g := workload.MustNew(p)
	tr := New(Config{MaxPool: 8})
	for _, x := range g.Expressions(3000) {
		if err := tr.Insert(x); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	tr.Pools(func(*Pool) { total++ })
	visited := len(tr.CollectPoolsAppend(nil, g.Event()))
	if visited >= total {
		t.Fatalf("no pruning: visited %d of %d pools", visited, total)
	}
}

func TestPoolGenerationBumps(t *testing.T) {
	tr := New(Config{MaxPool: 100})
	x1 := expr.MustNew(1, expr.Eq(1, 5))
	if err := tr.Insert(x1); err != nil {
		t.Fatal(err)
	}
	var gen0 uint64
	tr.Pools(func(p *Pool) { gen0 = p.Gen })
	if err := tr.Insert(expr.MustNew(2, expr.Eq(1, 6))); err != nil {
		t.Fatal(err)
	}
	var gen1 uint64
	tr.Pools(func(p *Pool) { gen1 = p.Gen })
	if gen1 <= gen0 {
		t.Fatalf("insert did not bump pool generation: %d -> %d", gen0, gen1)
	}
	tr.Delete(1)
	var gen2 uint64
	tr.Pools(func(p *Pool) { gen2 = p.Gen })
	if gen2 <= gen1 {
		t.Fatalf("delete did not bump pool generation: %d -> %d", gen1, gen2)
	}
}

func TestEqualityBucketRouting(t *testing.T) {
	// Equality-only expressions on one attribute should spread over
	// per-value buckets: matching an event must visit only its bucket.
	tr := New(Config{MaxPool: 4})
	for i := 0; i < 100; i++ {
		x := expr.MustNew(expr.ID(i+1), expr.Eq(1, expr.Value(i%10)), expr.Eq(2, expr.Value(i)))
		if err := tr.Insert(x); err != nil {
			t.Fatal(err)
		}
	}
	got := tr.MatchAppend(nil, expr.MustEvent(expr.P(1, 3), expr.P(2, 13)))
	if len(got) != 1 || got[0] != 14 {
		t.Fatalf("got %v, want [14]", got)
	}
	visited := 0
	for _, p := range tr.CollectPoolsAppend(nil, expr.MustEvent(expr.P(1, 3), expr.P(2, 13))) {
		visited += len(p.Exprs)
	}
	if visited >= 100 {
		t.Fatalf("equality buckets not pruning: visited %d expressions", visited)
	}
}

func TestRangePredicatesCluster(t *testing.T) {
	tr := New(Config{MaxPool: 4})
	// Ranges in two far-apart regions; events in one region must not
	// visit the other's expressions.
	for i := 0; i < 50; i++ {
		lo := expr.Value(i * 10)
		if err := tr.Insert(expr.MustNew(expr.ID(i+1), expr.Rng(1, lo, lo+5))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		lo := expr.Value(1_000_000 + i*10)
		if err := tr.Insert(expr.MustNew(expr.ID(100+i), expr.Rng(1, lo, lo+5))); err != nil {
			t.Fatal(err)
		}
	}
	got := tr.MatchAppend(nil, expr.MustEvent(expr.P(1, 12)))
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("got %v, want [2]", got)
	}
}

func TestDeleteThenReuseNode(t *testing.T) {
	tr := New(Config{MaxPool: 2})
	var xs []*expr.Expression
	for i := 0; i < 40; i++ {
		x := expr.MustNew(expr.ID(i+1), expr.Eq(1, expr.Value(i%4)), expr.Eq(2, expr.Value(i%8)))
		xs = append(xs, x)
		if err := tr.Insert(x); err != nil {
			t.Fatal(err)
		}
	}
	for _, x := range xs {
		if !tr.Delete(x.ID) {
			t.Fatalf("delete %d failed", x.ID)
		}
	}
	if tr.Size() != 0 {
		t.Fatalf("Size = %d after deleting all", tr.Size())
	}
	// Re-insert into the (now skeletal) tree.
	for _, x := range xs {
		if err := tr.Insert(x); err != nil {
			t.Fatal(err)
		}
	}
	got := tr.MatchAppend(nil, expr.MustEvent(expr.P(1, 1), expr.P(2, 5)))
	want := 0
	for _, x := range xs {
		if x.MatchesEvent(expr.MustEvent(expr.P(1, 1), expr.P(2, 5))) {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("after churn got %d matches, want %d", len(got), want)
	}
}

func TestNonIndexableOnlyExpressionsStayInPools(t *testing.T) {
	tr := New(Config{MaxPool: 2})
	for i := 0; i < 20; i++ {
		if err := tr.Insert(expr.MustNew(expr.ID(i+1), expr.Ne(1, expr.Value(i)))); err != nil {
			t.Fatal(err)
		}
	}
	// All 20 share one unsplittable pool (NE is non-indexable); matching
	// must still be correct.
	got := tr.MatchAppend(nil, expr.MustEvent(expr.P(1, 0)))
	if len(got) != 19 {
		t.Fatalf("got %d matches, want 19", len(got))
	}
	if s := tr.Stats(); s.Parts != 0 {
		t.Fatalf("partitioned on a non-indexable attribute: %+v", s)
	}
}

func TestMemBytesAndStats(t *testing.T) {
	tr := New(DefaultConfig())
	if tr.MemBytes() <= 0 {
		t.Fatal("empty tree should still report structural bytes")
	}
	g := workload.MustNew(workload.Default())
	for _, x := range g.Expressions(500) {
		if err := tr.Insert(x); err != nil {
			t.Fatal(err)
		}
	}
	if tr.MemBytes() < 500*8 {
		t.Fatalf("MemBytes implausibly small: %d", tr.MemBytes())
	}
	s := tr.Stats()
	if s.MaxPool == 0 {
		t.Fatal("Stats.MaxPool should be positive")
	}
}

func TestExtremeValueSpans(t *testing.T) {
	tr := New(Config{MaxPool: 2})
	xs := []*expr.Expression{
		expr.MustNew(1, expr.Le(1, expr.MinValue+1)), // span [min, min+1]
		expr.MustNew(2, expr.Ge(1, expr.MaxValue-1)), // span [max-1, max]
		expr.MustNew(3, expr.Rng(1, expr.MinValue, expr.MaxValue)),
		expr.MustNew(4, expr.Eq(1, expr.MinValue)),
		expr.MustNew(5, expr.Eq(1, expr.MaxValue)),
	}
	for _, x := range xs {
		if err := tr.Insert(x); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		v    expr.Value
		want map[expr.ID]bool
	}{
		{expr.MinValue, map[expr.ID]bool{1: true, 3: true, 4: true}},
		{expr.MaxValue, map[expr.ID]bool{2: true, 3: true, 5: true}},
		{0, map[expr.ID]bool{3: true}},
	}
	for _, c := range cases {
		got := tr.MatchAppend(nil, expr.MustEvent(expr.P(1, c.v)))
		if len(got) != len(c.want) {
			t.Fatalf("v=%d: got %v, want %v", c.v, got, c.want)
		}
		for _, id := range got {
			if !c.want[id] {
				t.Fatalf("v=%d: unexpected id %d", c.v, id)
			}
		}
	}
}
