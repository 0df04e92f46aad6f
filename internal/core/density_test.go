package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/betree"
	"github.com/streammatch/apcm/workload"
)

// TestEqFlatIncrementalAppendFallback pins the flat-equality coherence
// rule: an incremental append whose equality value lands outside the
// compiled [eqLo, eqLo+len) range must drop eqFlat (the sorted eq slice
// stays authoritative), and matching must keep agreeing with the scan
// kernel for both old and new values.
func TestEqFlatIncrementalAppendFallback(t *testing.T) {
	const attr = expr.AttrID(1)
	pool := &betree.Pool{}
	for i := 0; i < 20; i++ {
		pool.Exprs = append(pool.Exprs,
			expr.MustNew(expr.ID(i+1), expr.Eq(attr, expr.Value(i%10))))
	}
	c := compile(pool)
	li, ok := c.localOf(attr)
	if !ok {
		t.Fatal("attribute missing from compiled universe")
	}
	g := &c.groups[li]
	if g.eqFlat == nil {
		t.Fatalf("narrow value range [0,10) should compile a flat table (lo=%d)", g.eqLo)
	}

	// In-range append must keep the table coherent.
	inRange := expr.MustNew(100, expr.Eq(attr, 3))
	pool.Exprs = append(pool.Exprs, inRange)
	pool.Gen++
	if !c.tryAppend(pool, inRange) {
		t.Fatal("in-range append should fit the slack capacity")
	}
	if g.eqFlat == nil {
		t.Fatal("in-range append must not drop the flat table")
	}

	// Out-of-range append must drop it and fall back to searching eq.
	outRange := expr.MustNew(101, expr.Eq(attr, 5000))
	pool.Exprs = append(pool.Exprs, outRange)
	pool.Gen++
	if !c.tryAppend(pool, outRange) {
		t.Fatal("out-of-range append should still fit the slack capacity")
	}
	if g.eqFlat != nil {
		t.Fatal("append outside the compiled value range must drop eqFlat")
	}

	var ks kernelScratch
	for _, v := range []expr.Value{0, 3, 5000, 77} {
		ev := expr.MustEvent(expr.P(attr, v))
		a := c.matchCompressed(&ks, ev, nil)
		b := scanPool(&ks, pool.Exprs, ev, nil)
		if !sameIDs(a, b) {
			t.Fatalf("value %d: compressed %v scan %v", v, a, b)
		}
	}
}

// TestPropKernelsAgreeAcrossLayoutOpts extends the kernel equivalence
// property across every density-layout lever: forced-dense postings,
// no flat equality tables, and both at once (the legacy layout). Every
// variant must produce the same match set as the scan kernel.
func TestPropKernelsAgreeAcrossLayoutOpts(t *testing.T) {
	variants := []layoutOpts{
		{},
		{forceDense: true},
		{noEqFlat: true},
		{forceDense: true, noEqFlat: true},
	}
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
		p.MatchFraction = 0.4
		if p.WEquality+p.WRange == 0 {
			p.WEquality = 1
		}
		p.PredPoolSize = rng.Intn(5)
		g, err := workload.New(p)
		if err != nil {
			return false
		}
		pool := &betree.Pool{Exprs: g.Expressions(1 + rng.Intn(200))}
		cs := make([]*compiled, len(variants))
		for i, lo := range variants {
			cs[i] = compileOpts(pool, lo)
		}
		var ks kernelScratch
		for trial := 0; trial < 15; trial++ {
			ev := g.Event()
			want := scanPool(&ks, pool.Exprs, ev, nil)
			for i, c := range cs {
				got := c.matchCompressed(&ks, ev, nil)
				if !sameIDs(got, want) {
					t.Logf("seed %d variant %+v: compressed %v scan %v on %s",
						seed, variants[i], got, want, ev)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestScratchBufferInlineCache pins the two-entry inline cache in front
// of the size-keyed buffer map: repeated and alternating same-size gets
// are served without touching (or growing) the map, and each size keeps
// a stable buffer identity.
func TestScratchBufferInlineCache(t *testing.T) {
	var s kernelScratch
	b64 := s.get(64)
	if s.get(64) != b64 {
		t.Fatal("repeated get(64) must return the cached buffers")
	}
	b128 := s.get(128)
	if b128 == b64 {
		t.Fatal("distinct sizes must not share buffers")
	}
	// Alternating between two sizes stays in the inline slots.
	mapLen := len(s.bySize)
	for i := 0; i < 10; i++ {
		if s.get(64) != b64 || s.get(128) != b128 {
			t.Fatal("alternating sizes lost buffer identity")
		}
	}
	if len(s.bySize) != mapLen {
		t.Fatalf("alternating gets grew the map: %d -> %d", mapLen, len(s.bySize))
	}
	// A third size evicts through the map but identities stay stable.
	b192 := s.get(192)
	if s.get(64) != b64 || s.get(128) != b128 || s.get(192) != b192 {
		t.Fatal("three-size rotation lost buffer identity")
	}
	if b64.alive.Len() != 64 || b128.alive.Len() != 128 || b192.alive.Len() != 192 {
		t.Fatal("buffers sized wrong")
	}
}
