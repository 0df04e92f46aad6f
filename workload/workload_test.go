package workload

import (
	"testing"

	"github.com/streammatch/apcm/expr"
)

func TestDefaultValidates(t *testing.T) {
	p := Default()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	base := Default()
	mutations := []func(*Params){
		func(p *Params) { p.NumAttrs = 0 },
		func(p *Params) { p.Cardinality = 1 },
		func(p *Params) { p.PredsMin = 0 },
		func(p *Params) { p.PredsMax = p.PredsMin - 1 },
		func(p *Params) { p.WEquality = -1 },
		func(p *Params) { p.WEquality, p.WRange, p.WMembership, p.WNegated = 0, 0, 0, 0 },
		func(p *Params) { p.RangeWidthFrac = 1.5 },
		func(p *Params) { p.InSetSize = 0 },
		func(p *Params) { p.ValueZipf = 0.5 },
		func(p *Params) { p.AttrZipf = 1.0 },
		func(p *Params) { p.EventAttrs = 0 },
		func(p *Params) { p.EventAttrs = p.NumAttrs + 1 },
		func(p *Params) { p.MatchFraction = 1.1 },
		func(p *Params) { p.PredPoolSize = -1 },
	}
	for i, mut := range mutations {
		p := base
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	p := Default()
	p.WNegated = 0.05
	g1 := MustNew(p)
	g2 := MustNew(p)
	xs1 := g1.Expressions(200)
	xs2 := g2.Expressions(200)
	for i := range xs1 {
		if xs1[i].String() != xs2[i].String() {
			t.Fatalf("expression %d differs between identical seeds", i)
		}
	}
	ev1 := g1.Events(200)
	ev2 := g2.Events(200)
	for i := range ev1 {
		if ev1[i].String() != ev2[i].String() {
			t.Fatalf("event %d differs between identical seeds", i)
		}
	}
}

func TestSeedChangesOutput(t *testing.T) {
	p := Default()
	g1 := MustNew(p)
	p.Seed = 2
	g2 := MustNew(p)
	same := 0
	xs1 := g1.Expressions(50)
	xs2 := g2.Expressions(50)
	for i := range xs1 {
		if xs1[i].String() == xs2[i].String() {
			same++
		}
	}
	if same == len(xs1) {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestExpressionShape(t *testing.T) {
	p := Default()
	p.PredsMin, p.PredsMax = 3, 6
	g := MustNew(p)
	for _, x := range g.Expressions(500) {
		if len(x.Preds) < 3 || len(x.Preds) > 6 {
			t.Fatalf("expression has %d predicates, want [3,6]", len(x.Preds))
		}
		seen := map[expr.AttrID]bool{}
		for i := range x.Preds {
			pr := &x.Preds[i]
			if seen[pr.Attr] {
				t.Fatalf("duplicate attribute %d in generated expression", pr.Attr)
			}
			seen[pr.Attr] = true
			if int(pr.Attr) >= p.NumAttrs {
				t.Fatalf("attribute %d out of space", pr.Attr)
			}
			if err := pr.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestSequentialIDs(t *testing.T) {
	g := MustNew(Default())
	xs := g.Expressions(10)
	for i, x := range xs {
		if x.ID != expr.ID(i+1) {
			t.Fatalf("expression %d has id %d", i, x.ID)
		}
	}
}

func TestEventShape(t *testing.T) {
	p := Default()
	g := MustNew(p)
	g.Expressions(100)
	for _, e := range g.Events(500) {
		if n := len(e.Pairs()); n != p.EventAttrs {
			t.Fatalf("event has %d attributes, want %d", n, p.EventAttrs)
		}
		for _, pair := range e.Pairs() {
			if int(pair.Attr) >= p.NumAttrs {
				t.Fatalf("event attribute %d out of space", pair.Attr)
			}
			if pair.Val < 0 || int(pair.Val) >= p.Cardinality {
				t.Fatalf("event value %d out of domain", pair.Val)
			}
		}
	}
}

func TestPlantedEventsRaiseMatchRate(t *testing.T) {
	low := Default()
	low.MatchFraction = 0
	high := Default()
	high.MatchFraction = 0.5

	count := func(p Params) int {
		g := MustNew(p)
		xs := g.Expressions(2000)
		matches := 0
		for _, e := range g.Events(500) {
			for _, x := range xs {
				if x.MatchesEvent(e) {
					matches++
				}
			}
		}
		return matches
	}
	if l, h := count(low), count(high); h <= l {
		t.Fatalf("planted events did not raise match count: low=%d high=%d", l, h)
	}
}

func TestPlantedEventActuallyMatches(t *testing.T) {
	// With MatchFraction=1 and one expression, nearly every event should
	// match it (plants can fall back to random only on contradictory
	// pooled predicates, which a fresh pool avoids).
	p := Default()
	p.MatchFraction = 1
	p.PredPoolSize = 0
	g := MustNew(p)
	x := g.Expression()
	matched := 0
	for _, e := range g.Events(200) {
		if x.MatchesEvent(e) {
			matched++
		}
	}
	if matched < 190 {
		t.Fatalf("only %d/200 planted events match their source expression", matched)
	}
}

func TestPredPoolBoundsDistinctPredicates(t *testing.T) {
	p := Default()
	p.PredPoolSize = 3
	p.NumAttrs = 10
	p.EventAttrs = 5
	g := MustNew(p)
	distinct := map[string]bool{}
	for _, x := range g.Expressions(300) {
		for i := range x.Preds {
			distinct[string(expr.AppendPredicate(nil, &x.Preds[i]))] = true
		}
	}
	if max := p.NumAttrs * p.PredPoolSize; len(distinct) > max {
		t.Fatalf("%d distinct predicates exceed pool bound %d", len(distinct), max)
	}
	if len(distinct) < 10 {
		t.Fatalf("pool produced implausibly few distinct predicates: %d", len(distinct))
	}
}

func TestNoPoolProducesMoreDistinctPredicates(t *testing.T) {
	count := func(pool int) int {
		p := Default()
		p.PredPoolSize = pool
		p.NumAttrs = 20
		p.EventAttrs = 5
		g := MustNew(p)
		distinct := map[string]bool{}
		for _, x := range g.Expressions(500) {
			for i := range x.Preds {
				distinct[string(expr.AppendPredicate(nil, &x.Preds[i]))] = true
			}
		}
		return len(distinct)
	}
	if pooled, fresh := count(2), count(0); fresh <= pooled {
		t.Fatalf("expected fresh predicates (%d) to outnumber pooled (%d)", fresh, pooled)
	}
}

func TestZipfSkewsValues(t *testing.T) {
	p := Default()
	p.ValueZipf = 2.0
	p.WEquality, p.WRange, p.WMembership, p.WNegated = 1, 0, 0, 0
	g := MustNew(p)
	zeroes, total := 0, 0
	for _, x := range g.Expressions(500) {
		for i := range x.Preds {
			total++
			if x.Preds[i].Lo == 0 {
				zeroes++
			}
		}
	}
	// Zipf with s=2 concentrates mass at 0; uniform would put ~1/1000 there.
	if float64(zeroes)/float64(total) < 0.2 {
		t.Fatalf("Zipf skew missing: %d/%d values are 0", zeroes, total)
	}
}

func TestAttrZipfSkewsAttributes(t *testing.T) {
	p := Default()
	p.AttrZipf = 2.0
	g := MustNew(p)
	counts := map[expr.AttrID]int{}
	total := 0
	for _, x := range g.Expressions(300) {
		for _, a := range x.Attrs() {
			counts[a]++
			total++
		}
	}
	if float64(counts[0]+counts[1])/float64(total) < 0.2 {
		t.Fatalf("attribute skew missing: attrs 0+1 got %d of %d", counts[0]+counts[1], total)
	}
}

func TestOperatorMix(t *testing.T) {
	p := Default()
	p.WEquality, p.WRange, p.WMembership, p.WNegated = 0.25, 0.25, 0.25, 0.25
	p.PredPoolSize = 0
	g := MustNew(p)
	counts := map[expr.Op]int{}
	for _, x := range g.Expressions(1000) {
		for i := range x.Preds {
			counts[x.Preds[i].Op]++
		}
	}
	if counts[expr.EQ] == 0 {
		t.Error("no EQ predicates generated")
	}
	if counts[expr.Between]+counts[expr.LE]+counts[expr.GE] == 0 {
		t.Error("no range predicates generated")
	}
	if counts[expr.In] == 0 {
		t.Error("no IN predicates generated")
	}
	if counts[expr.NE]+counts[expr.NotIn] == 0 {
		t.Error("no negated predicates generated")
	}
}

func TestMoreAttrsThanPreds(t *testing.T) {
	// PredsMax larger than NumAttrs must clamp, not loop forever.
	p := Default()
	p.NumAttrs = 3
	p.EventAttrs = 2
	p.PredsMin, p.PredsMax = 1, 10
	g := MustNew(p)
	for _, x := range g.Expressions(50) {
		if len(x.Preds) > 3 {
			t.Fatalf("expression has %d predicates over a 3-attribute space", len(x.Preds))
		}
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	p := Default()
	p.NumAttrs = -1
	if _, err := New(p); err == nil {
		t.Fatal("New should reject invalid params")
	}
}

func TestPlantedEventFor(t *testing.T) {
	g := MustNew(Default())
	for _, x := range g.Expressions(100) {
		ev, ok := g.PlantedEventFor(x)
		if !ok {
			t.Fatalf("plant failed for %s", x)
		}
		if !x.MatchesEvent(ev) {
			t.Fatalf("planted event %s does not match %s", ev, x)
		}
		if n := len(ev.Pairs()); n != Default().EventAttrs {
			t.Fatalf("planted event has %d attrs, want %d", n, Default().EventAttrs)
		}
	}
	// Contradictory predicates cannot be planted.
	bad := expr.MustNew(9999, expr.Eq(1, 3), expr.Eq(1, 5))
	if _, ok := g.PlantedEventFor(bad); ok {
		t.Fatal("plant for a contradictory expression should fail")
	}
	// Too many attributes for the event width.
	p := Default()
	p.EventAttrs = 2
	p.NumAttrs = 10
	g2 := MustNew(p)
	wide := expr.MustNew(1, expr.Eq(1, 1), expr.Eq(2, 2), expr.Eq(3, 3))
	if _, ok := g2.PlantedEventFor(wide); ok {
		t.Fatal("plant wider than EventAttrs should fail")
	}
}
