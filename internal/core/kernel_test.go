package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/betree"
	"github.com/streammatch/apcm/internal/osr"
	"github.com/streammatch/apcm/workload"
)

// TestPropKernelsAgree is the kernel-level equivalence property: on
// arbitrary compiled pools and arbitrary events, the compressed kernel
// and the scan kernel return identical match sets.
func TestPropKernelsAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.Default()
		p.Seed = seed
		p.NumAttrs = 6 + rng.Intn(10)
		p.Cardinality = 5 + rng.Intn(30)
		p.EventAttrs = 1 + rng.Intn(p.NumAttrs)
		p.PredsMin, p.PredsMax = 1, 4
		p.WEquality = rng.Float64()
		p.WRange = rng.Float64()
		p.WMembership = rng.Float64() * 0.5
		p.WNegated = rng.Float64() * 0.5
		p.MatchFraction = 0.4
		if p.WEquality+p.WRange+p.WMembership+p.WNegated == 0 {
			p.WEquality = 1
		}
		p.PredPoolSize = rng.Intn(5) // 0..4: from fresh to highly redundant
		g, err := workload.New(p)
		if err != nil {
			return false
		}
		pool := &betree.Pool{Exprs: g.Expressions(1 + rng.Intn(200))}
		c := compile(pool)
		var ks kernelScratch
		for trial := 0; trial < 30; trial++ {
			ev := g.Event()
			a := c.matchCompressed(&ks, ev, nil)
			b := scanPool(&ks, pool.Exprs, ev, nil)
			if !sameIDs(a, b) {
				t.Logf("seed %d: compressed %v scan %v on %s", seed, a, b, ev)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestPropKernelsAgreeAfterIncrementalMaintenance extends the property
// across appends and tombstones.
func TestPropKernelsAgreeAfterIncrementalMaintenance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := workload.Default()
		p.Seed = seed
		p.NumAttrs = 8
		p.Cardinality = 20
		p.EventAttrs = 5
		p.PredsMin, p.PredsMax = 1, 3
		p.MatchFraction = 0.4
		g := workload.MustNew(p)

		pool := &betree.Pool{Exprs: g.Expressions(50)}
		c := compile(pool)

		// Simulated pool mutations mirrored into the compiled cluster.
		live := map[expr.ID]bool{}
		for _, x := range pool.Exprs {
			live[x.ID] = true
		}
		for step := 0; step < 30; step++ {
			if rng.Intn(2) == 0 {
				x := g.Expression()
				pool.Exprs = append(pool.Exprs, x)
				pool.Gen++
				if !c.tryAppend(pool, x) {
					c = compile(pool)
				}
				live[x.ID] = true
			} else if len(pool.Exprs) > 0 {
				i := rng.Intn(len(pool.Exprs))
				id := pool.Exprs[i].ID
				pool.Exprs = append(pool.Exprs[:i], pool.Exprs[i+1:]...)
				pool.Gen++
				if !c.tryTombstone(pool, id) {
					c = compile(pool)
				}
				delete(live, id)
			}
		}
		var ks kernelScratch
		for trial := 0; trial < 20; trial++ {
			ev := g.Event()
			a := c.matchCompressed(&ks, ev, nil)
			b := scanPool(&ks, pool.Exprs, ev, nil)
			if !sameIDs(a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func sameIDs(a, b []expr.ID) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]expr.ID(nil), a...)
	bs := append([]expr.ID(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// TestMatchBatchAppendEquivalence matches a batch the way MatchBatchInto
// does — every event in turn on one reused Scratch — over
// locality-ordered events with duplicates, and checks each result
// against a fresh Scratch: no kernel state may carry from one event to
// the next.
func TestMatchBatchAppendEquivalence(t *testing.T) {
	p := workload.Default()
	p.Seed = 7
	p.NumAttrs, p.Cardinality, p.EventAttrs = 25, 50, 8
	p.PredsMin, p.PredsMax = 1, 4
	p.MatchFraction = 0.3
	g := workload.MustNew(p)
	m := New(DefaultConfig())
	for _, x := range g.Expressions(4000) {
		if err := m.Insert(x); err != nil {
			t.Fatal(err)
		}
	}
	m.PrepareAll()
	rng := rand.New(rand.NewSource(99))
	events := g.Events(192)
	for i := 0; i < 64; i++ {
		events = append(events, events[rng.Intn(192)])
	}
	osr.Reorder(events)

	s := m.NewScratch()
	var ids []expr.ID
	matched := 0
	for i, ev := range events {
		ids = m.MatchWith(s, ids[:0], ev)
		want := m.MatchWith(m.NewScratch(), nil, ev)
		if !sameIDs(ids, want) {
			t.Fatalf("event %d: reused scratch %v, fresh scratch %v", i, ids, want)
		}
		matched += len(ids)
	}
	if matched == 0 {
		t.Fatal("workload matched nothing")
	}
}
