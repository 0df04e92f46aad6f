package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/betree"
	"github.com/streammatch/apcm/internal/bitset"
	"github.com/streammatch/apcm/workload"
)

// TestEqIncrementalAppendKeepsSorted pins the equality-union append
// rule: an incremental append of a new value lands at its sorted
// position in eq, whether it falls inside the compiled value range or
// outside it, and matching keeps agreeing with the scan kernel for old
// and new values alike.
func TestEqIncrementalAppendKeepsSorted(t *testing.T) {
	const attr = expr.AttrID(1)
	pool := &betree.Pool{}
	for i := 0; i < 20; i++ {
		pool.Exprs = append(pool.Exprs,
			expr.MustNew(expr.ID(i+1), expr.Eq(attr, expr.Value(2*(i%10)))))
	}
	c := compile(pool)
	li, ok := c.localOf(attr)
	if !ok {
		t.Fatal("attribute missing from compiled universe")
	}
	g := &c.groups[li]
	vals := func() []expr.Value {
		out := make([]expr.Value, len(g.eq))
		for i, e := range g.eq {
			out[i] = e.val
		}
		return out
	}
	for i, v := range []expr.Value{7, 5000} { // in range, then out of range
		x := expr.MustNew(expr.ID(100+i), expr.Eq(attr, v))
		pool.Exprs = append(pool.Exprs, x)
		pool.Gen++
		if !c.tryAppend(pool, x) {
			t.Fatalf("append of value %d should fit the slack capacity", v)
		}
		if j, ok := g.eqSearch(v); !ok || !g.eq[j].bits.Test(c.n-1) {
			t.Fatalf("value %d not found in eq with its new member", v)
		}
	}
	if want := []expr.Value{0, 2, 4, 6, 7, 8, 10, 12, 14, 16, 18, 5000}; !slices.Equal(vals(), want) {
		t.Fatalf("eq values %v, want %v", vals(), want)
	}

	var ks kernelScratch
	for _, v := range []expr.Value{0, 3, 7, 18, 5000, 77} {
		ev := expr.MustEvent(expr.P(attr, v))
		a := c.matchCompressed(&ks, ev, nil)
		b := scanPool(&ks, pool.Exprs, ev, nil)
		if !sameIDs(a, b) {
			t.Fatalf("value %d: compressed %v scan %v", v, a, b)
		}
	}
}

// spreadAttrs rewrites every attribute id a of xs and events to
// a*stride, so a universe of a few attributes spans more than
// attrDirectMaxSpan ids.
func spreadAttrs(xs []*expr.Expression, events []*expr.Event, stride expr.AttrID) ([]*expr.Expression, []*expr.Event) {
	outX := make([]*expr.Expression, len(xs))
	for i, x := range xs {
		preds := slices.Clone(x.Preds)
		for j := range preds {
			preds[j].Attr *= stride
		}
		outX[i] = expr.MustNew(x.ID, preds...)
	}
	outE := make([]*expr.Event, len(events))
	for i, e := range events {
		pairs := slices.Clone(e.Pairs())
		for j := range pairs {
			pairs[j].Attr *= stride
		}
		outE[i] = expr.MustEvent(pairs...)
	}
	return outX, outE
}

// TestPropKernelsAgreeAcrossLayoutOpts checks the compressed kernel
// against the scan kernel across the layouts a cluster takes from its
// input, one regime per layout choice:
//
//   - random: mixed operators and value domains, mostly sparse postings
//     and an attrDirect table;
//   - dense: a redundant pool over a small value domain, whose postings
//     cross bitset.SparseMaxFor and go dense;
//   - wide span: attribute ids spread past attrDirectMaxSpan, so no
//     attrDirect table is built and localOf and step 1 take the
//     binary-search and merge-join paths.
func TestPropKernelsAgreeAcrossLayoutOpts(t *testing.T) {
	type regime struct {
		name   string
		dense  bool
		stride expr.AttrID
	}
	regimes := []regime{{"random", false, 1}, {"dense", true, 1}, {"wide span", false, 1000}}
	var densePostings, wide int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, rg := range regimes {
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
			n := 1 + rng.Intn(200)
			if rg.dense {
				p.Cardinality = 2 + rng.Intn(3)
				p.PredPoolSize = 1 + rng.Intn(2)
				n = 150 + rng.Intn(100)
			}
			g, err := workload.New(p)
			if err != nil {
				return false
			}
			xs := g.Expressions(n)
			events := make([]*expr.Event, 15)
			for i := range events {
				events[i] = g.Event()
			}
			if rg.stride > 1 {
				xs, events = spreadAttrs(xs, events, rg.stride)
			}
			pool := &betree.Pool{Exprs: xs}
			c := compile(pool)
			if rg.stride > 1 {
				if c.attrDirect != nil && c.nAttrs > 1 {
					t.Logf("seed %d: a universe spread over stride %d built attrDirect", seed, rg.stride)
					return false
				}
				if c.attrDirect == nil {
					wide++
				}
			}
			c.forEachPosting(func(p *bitset.Posting) {
				if rg.dense && !p.IsSparse() {
					densePostings++
				}
			})
			var ks kernelScratch
			for _, ev := range events {
				want := scanPool(&ks, pool.Exprs, ev, nil)
				if got := c.matchCompressed(&ks, ev, nil); !sameIDs(got, want) {
					t.Logf("seed %d regime %s: compressed %v scan %v on %s",
						seed, rg.name, got, want, ev)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if densePostings == 0 || wide == 0 {
		t.Fatalf("the regimes missed a layout: %d dense postings, %d wide-span clusters", densePostings, wide)
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
