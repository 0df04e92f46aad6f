package core

import (
	"sync"
	"testing"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/betree"
	"github.com/streammatch/apcm/internal/match"
	"github.com/streammatch/apcm/internal/matchtest"
	"github.com/streammatch/apcm/workload"
)

func cfgWithMode(mode Mode) Config {
	c := DefaultConfig()
	c.Mode = mode
	return c
}

func TestConformanceAdaptive(t *testing.T) {
	matchtest.RunConformance(t, func() match.Matcher { return New(cfgWithMode(ModeAdaptive)) })
}

func TestConformanceCompressed(t *testing.T) {
	matchtest.RunConformance(t, func() match.Matcher { return New(cfgWithMode(ModeCompressed)) })
}

func TestConformanceUncompressed(t *testing.T) {
	matchtest.RunConformance(t, func() match.Matcher { return New(cfgWithMode(ModeUncompressed)) })
}

func TestConformanceSmallPoolsAggressiveProbe(t *testing.T) {
	// Small pools, probe on almost every event, tiny compression
	// threshold: stresses the probe/recompile interleaving.
	matchtest.RunConformance(t, func() match.Matcher {
		return New(Config{
			Mode:            ModeAdaptive,
			Tree:            betree.Config{MaxPool: 4},
			MinCompressSize: 2,
			ProbeInterval:   2,
			Decay:           0.5,
		})
	})
}

func TestConfigSanitize(t *testing.T) {
	m := New(Config{})
	if m.cfg.Tree.MaxPool <= 0 || m.cfg.MinCompressSize <= 1 ||
		m.cfg.ProbeInterval <= 0 || m.cfg.Decay <= 0 || m.cfg.Decay >= 1 {
		t.Fatalf("config not sanitized: %+v", m.cfg)
	}
}

func TestModeString(t *testing.T) {
	if ModeAdaptive.String() != "A-PCM" || ModeCompressed.String() != "PCM" ||
		ModeUncompressed.String() != "uncompressed" {
		t.Fatal("mode names changed; benchmark tables depend on them")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Fatalf("unknown mode string = %q", Mode(9).String())
	}
}

// redundantWorkload produces many expressions drawn from a small
// predicate pool: the compression sweet spot.
func redundantWorkload(seed int64) *workload.Generator {
	p := workload.Default()
	p.Seed = seed
	p.NumAttrs = 30
	p.Cardinality = 100
	p.EventAttrs = 10
	p.PredPoolSize = 4
	p.MatchFraction = 0.2
	return workload.MustNew(p)
}

func TestCompressionStats(t *testing.T) {
	g := redundantWorkload(1)
	m := New(cfgWithMode(ModeCompressed))
	for _, x := range g.Expressions(3000) {
		if err := m.Insert(x); err != nil {
			t.Fatal(err)
		}
	}
	m.PrepareAll()
	st := m.Stats()
	if st.CompiledClusters == 0 {
		t.Fatal("PrepareAll compiled nothing")
	}
	if st.PredicateSlots <= st.DistinctPreds {
		t.Fatalf("no redundancy captured: slots=%d distinct=%d", st.PredicateSlots, st.DistinctPreds)
	}
	if st.CompressionRatio() < 1.5 {
		t.Fatalf("compression ratio %0.2f implausibly low for a pooled workload", st.CompressionRatio())
	}
	if st.CompressedBytes <= 0 {
		t.Fatal("compressed bytes not accounted")
	}
	if m.MemBytes() < st.CompressedBytes {
		t.Fatal("MemBytes should include compressed clusters")
	}
}

func TestStatsEmptyRatio(t *testing.T) {
	var st Stats
	if st.CompressionRatio() != 0 {
		t.Fatal("empty ratio should be 0")
	}
}

func TestLazyRecompilationAfterUpdate(t *testing.T) {
	m := New(Config{Mode: ModeCompressed, Tree: betree.Config{MaxPool: 1 << 20}, MinCompressSize: 2})
	for i := 1; i <= 50; i++ {
		if err := m.Insert(expr.MustNew(expr.ID(i), expr.Eq(1, expr.Value(i%5)))); err != nil {
			t.Fatal(err)
		}
	}
	ev := expr.MustEvent(expr.P(1, 3))
	got := m.MatchAppend(nil, ev)
	if len(got) == 0 {
		t.Fatal("expected matches before update")
	}
	// Mutate after compilation: delete one matching id and insert another.
	if !m.Delete(got[0]) {
		t.Fatal("delete failed")
	}
	if err := m.Insert(expr.MustNew(1000, expr.Eq(1, 3))); err != nil {
		t.Fatal(err)
	}
	got2 := m.MatchAppend(nil, ev)
	if len(got2) != len(got) {
		t.Fatalf("stale cluster served: got %d matches, want %d", len(got2), len(got))
	}
	found := false
	for _, id := range got2 {
		if id == 1000 {
			found = true
		}
		if id == got[0] {
			t.Fatalf("deleted id %d still matching", got[0])
		}
	}
	if !found {
		t.Fatal("newly inserted id not matching")
	}
}

func TestAdaptiveChoosesCompressedOnRedundantClusters(t *testing.T) {
	g := redundantWorkload(7)
	m := New(cfgWithMode(ModeAdaptive))
	for _, x := range g.Expressions(4000) {
		if err := m.Insert(x); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range g.Events(2000) {
		m.MatchAppend(nil, e)
	}
	st := m.Stats()
	if st.CompiledClusters == 0 {
		t.Fatal("no clusters compiled")
	}
	if st.CompressedServing == 0 {
		t.Fatal("adaptive matcher never chose the compressed kernel on a redundant workload")
	}
}

func TestAdaptiveChoosesScanOnHeterogeneousSelectiveClusters(t *testing.T) {
	// Compression-hostile regime: every predicate is a distinct wide
	// range (no redundancy, nothing for the equality-union to exploit),
	// and events cover the whole attribute space so eligibility cannot
	// prune. The compressed kernel must evaluate its entire dictionary
	// and OR a bitset per satisfied entry, while the scan kernel
	// short-circuits after a couple of predicates per member.
	p := workload.Default()
	p.NumAttrs = 10
	p.EventAttrs = 10
	p.Cardinality = 10000
	p.PredPoolSize = 0
	p.MatchFraction = 0
	p.PredsMin, p.PredsMax = 6, 9
	p.WEquality, p.WRange, p.WMembership, p.WNegated = 0, 1, 0, 0
	p.RangeWidthFrac = 0.5
	g := workload.MustNew(p)
	m := New(cfgWithMode(ModeAdaptive))
	for _, x := range g.Expressions(3000) {
		if err := m.Insert(x); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range g.Events(2000) {
		m.MatchAppend(nil, e)
	}
	st := m.Stats()
	if st.CompiledClusters == 0 {
		t.Fatal("no clusters compiled")
	}
	if st.CompressedServing == st.CompiledClusters {
		t.Fatal("adaptive matcher never fell back to the scan kernel on an adversarial workload")
	}
}

func TestAdaptiveTracksEstimates(t *testing.T) {
	m := New(Config{
		Mode:            ModeAdaptive,
		Tree:            betree.Config{MaxPool: 1 << 20},
		MinCompressSize: 2,
		ProbeInterval:   4,
		Decay:           0.5,
	})
	for i := 1; i <= 100; i++ {
		if err := m.Insert(expr.MustNew(expr.ID(i), expr.Eq(1, expr.Value(i%3)))); err != nil {
			t.Fatal(err)
		}
	}
	ev := expr.MustEvent(expr.P(1, 1))
	for i := 0; i < 50; i++ {
		m.MatchAppend(nil, ev)
	}
	c, u, _ := theCluster(t, m).estimates()
	if c == 0 || u == 0 {
		t.Fatalf("estimates not populated: ewmaC=%f ewmaU=%f", c, u)
	}
}

// TestConcurrentMatchersShareClusters races eight matchers over lazily
// compiled clusters in both compiled modes: the adaptive path reaches
// the compiled value through matchAdaptive and probe, the compressed
// path through matchPool directly. The second pass follows deletes that
// leave most clusters needing a rebuild, so the matchers also race a
// recompile that replaces an attached cluster's compiled value.
func TestConcurrentMatchersShareClusters(t *testing.T) {
	for _, mode := range []Mode{ModeAdaptive, ModeCompressed} {
		g := redundantWorkload(3)
		m := New(cfgWithMode(mode))
		xs := g.Expressions(2000)
		for _, x := range xs {
			if err := m.Insert(x); err != nil {
				t.Fatal(err)
			}
		}
		events := g.Events(400)
		raceMatchers(t, m, xs, events)
		var kept []*expr.Expression
		for i, x := range xs {
			if i%20 < 11 {
				m.Delete(x.ID)
			} else {
				kept = append(kept, x)
			}
		}
		raceMatchers(t, m, kept, events)
	}
}

// raceMatchers matches events on eight goroutines at once and checks
// every result against the oracle count over xs.
func raceMatchers(t *testing.T, m *Matcher, xs []*expr.Expression, events []*expr.Event) {
	t.Helper()
	oracleCounts := make([]int, len(events))
	for i, e := range events {
		for _, x := range xs {
			if x.MatchesEvent(e) {
				oracleCounts[i]++
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := m.NewScratch()
			var dst []expr.ID
			for i, e := range events {
				dst = m.MatchWith(s, dst[:0], e)
				if len(dst) != oracleCounts[i] {
					errs <- "concurrent match diverged from oracle"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatalf("%v: %s", m.cfg.Mode, msg)
	}
}

func TestPrepareAllNoopsWhenUncompressed(t *testing.T) {
	m := New(cfgWithMode(ModeUncompressed))
	for i := 1; i <= 100; i++ {
		if err := m.Insert(expr.MustNew(expr.ID(i), expr.Eq(1, expr.Value(i)))); err != nil {
			t.Fatal(err)
		}
	}
	m.PrepareAll()
	if st := m.Stats(); st.CompiledClusters != 0 {
		t.Fatalf("uncompressed mode compiled %d clusters", st.CompiledClusters)
	}
}

func TestKernelsAgreeOnRedundantCluster(t *testing.T) {
	// Both kernels on a highly redundant pool: three groups of two or
	// three shared equality values each.
	pool := &betree.Pool{}
	for i := 1; i <= 512; i++ {
		pool.Exprs = append(pool.Exprs, expr.MustNew(expr.ID(i),
			expr.Eq(1, expr.Value(i%2)), expr.Eq(2, expr.Value(i%3)), expr.Eq(3, expr.Value(i%2))))
	}
	c := compile(pool)
	var ab kernelScratch
	ev := expr.MustEvent(expr.P(1, 0), expr.P(2, 1), expr.P(3, 1))
	gotC := c.matchCompressed(&ab, ev, nil)
	gotU := scanPool(&ab, pool.Exprs, ev, nil)
	if !sameIDs(gotC, gotU) {
		t.Fatalf("kernels disagree: %d vs %d matches", len(gotC), len(gotU))
	}
}

func TestCompressedKernelEarlyExit(t *testing.T) {
	// Every member requires attr 9 == 1 and the event carries attr 9 = 2:
	// the attr-1 group leaves one survivor, then the attr-9 group empties
	// the survivor set with one AND-NOT and the loop exits before
	// collecting survivors.
	pool := &betree.Pool{}
	for i := 1; i <= 64; i++ {
		pool.Exprs = append(pool.Exprs, expr.MustNew(expr.ID(i),
			expr.Eq(9, 1), expr.Eq(1, expr.Value(i))))
	}
	c := compile(pool)
	var ab kernelScratch
	ev := expr.MustEvent(expr.P(1, 3), expr.P(9, 2))
	if got := c.matchCompressed(&ab, ev, nil); len(got) != 0 {
		t.Fatalf("unexpected matches %v", got)
	}
	// A matching event runs the loop to the end.
	if got := c.matchCompressed(&ab, expr.MustEvent(expr.P(1, 3), expr.P(9, 1)), nil); len(got) != 1 || got[0] != 3 {
		t.Fatalf("matches %v, want [3]", got)
	}
}

func TestCompileDedupesAcrossMembers(t *testing.T) {
	pool := &betree.Pool{Gen: 42}
	for i := 1; i <= 100; i++ {
		pool.Exprs = append(pool.Exprs, expr.MustNew(expr.ID(i), expr.Eq(1, 7), expr.Rng(2, 0, 9)))
	}
	c := compile(pool)
	if c.gen != 42 {
		t.Fatalf("gen = %d", c.gen)
	}
	if c.predSlots != 200 {
		t.Fatalf("predSlots = %d", c.predSlots)
	}
	if c.distinctPreds != 2 {
		t.Fatalf("distinctPreds = %d, want 2", c.distinctPreds)
	}
	if len(c.groups) != 2 || c.nAttrs != 2 {
		t.Fatalf("groups malformed: %d groups, %d attrs", len(c.groups), c.nAttrs)
	}
	li, ok := c.localOf(1)
	if !ok {
		t.Fatal("attribute 1 missing from cluster universe")
	}
	g := &c.groups[li]
	if g.attrBits.Count() != 100 {
		t.Fatalf("attrBits count = %d", g.attrBits.Count())
	}
	// All 100 members share Eq(1,7): one equality-union entry.
	if len(g.eq) != 1 || g.eq[0].val != 7 || g.eq[0].bits.Count() != 100 {
		t.Fatalf("eq union malformed: %v", g.eq)
	}
	// Attr 2 carries the shared Between as a single first-dictionary entry.
	li2, _ := c.localOf(2)
	g2 := &c.groups[li2]
	if len(g2.first) != 1 || g2.first[0].bits.Count() != 100 {
		t.Fatalf("first dictionary malformed: %+v", g2.first)
	}
}

func TestCompileStrictPredicates(t *testing.T) {
	// Two predicates on one attribute: the second lands in the strict
	// dictionary and must still gate matching.
	pool := &betree.Pool{}
	for i := 1; i <= 10; i++ {
		pool.Exprs = append(pool.Exprs, expr.MustNew(expr.ID(i),
			expr.Gt(1, 3), expr.Lt(1, 10)))
	}
	c := compile(pool)
	li, _ := c.localOf(1)
	g := &c.groups[li]
	if len(g.strict) != 1 {
		t.Fatalf("strict dictionary has %d entries, want 1", len(g.strict))
	}
	var ks kernelScratch
	if got := c.matchCompressed(&ks, expr.MustEvent(expr.P(1, 5)), nil); len(got) != 10 {
		t.Fatalf("value inside both bounds matched %d of 10", len(got))
	}
	if got := c.matchCompressed(&ks, expr.MustEvent(expr.P(1, 12)), nil); len(got) != 0 {
		t.Fatalf("value above the strict bound matched %d", len(got))
	}
	if got := c.matchCompressed(&ks, expr.MustEvent(expr.P(1, 2)), nil); len(got) != 0 {
		t.Fatalf("value below the first bound matched %d", len(got))
	}
}

func TestEligibilityKillsMissingAttrMembers(t *testing.T) {
	// Half the members constrain an attribute the event lacks; only the
	// other half can match, without the kernel touching absent groups.
	pool := &betree.Pool{}
	for i := 1; i <= 32; i++ {
		pool.Exprs = append(pool.Exprs, expr.MustNew(expr.ID(i), expr.Ge(1, 0)))
	}
	for i := 33; i <= 64; i++ {
		pool.Exprs = append(pool.Exprs, expr.MustNew(expr.ID(i), expr.Ge(1, 0), expr.Eq(2, 1)))
	}
	c := compile(pool)
	var ks kernelScratch
	got := c.matchCompressed(&ks, expr.MustEvent(expr.P(1, 5)), nil)
	if len(got) != 32 {
		t.Fatalf("got %d matches, want 32", len(got))
	}
	for _, id := range got {
		if id > 32 {
			t.Fatalf("ineligible member %d matched", id)
		}
	}
}
