package expr

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestMemBytesSizes checks MemBytes against the struct sizes it counts
// with, on one expression with a membership set.
func TestMemBytesSizes(t *testing.T) {
	x := MustNew(1, Eq(1, 2), Any(2, 3, 4, 5))
	want := int64(unsafe.Sizeof(Expression{}) + 2*unsafe.Sizeof(Predicate{}) + 3*unsafe.Sizeof(Value(0)))
	if got := x.MemBytes(); got != want {
		t.Fatalf("MemBytes = %d, want %d", got, want)
	}
}

func TestOpString(t *testing.T) {
	cases := map[Op]string{
		EQ: "=", NE: "!=", LT: "<", LE: "<=", GT: ">", GE: ">=",
		Between: "between", In: "in", NotIn: "not in",
	}
	for op, want := range cases {
		if op.String() != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, op.String(), want)
		}
		if !op.Valid() {
			t.Errorf("Op(%d) should be valid", op)
		}
	}
	if Op(99).Valid() {
		t.Error("Op(99) should be invalid")
	}
	if Op(99).String() != "Op(99)" {
		t.Errorf("invalid op string = %q", Op(99).String())
	}
}

func TestPredicateMatches(t *testing.T) {
	cases := []struct {
		pred Predicate
		val  Value
		want bool
	}{
		{Eq(1, 5), 5, true},
		{Eq(1, 5), 6, false},
		{Ne(1, 5), 5, false},
		{Ne(1, 5), 6, true},
		{Lt(1, 5), 4, true},
		{Lt(1, 5), 5, false},
		{Le(1, 5), 5, true},
		{Le(1, 5), 6, false},
		{Gt(1, 5), 6, true},
		{Gt(1, 5), 5, false},
		{Ge(1, 5), 5, true},
		{Ge(1, 5), 4, false},
		{Rng(1, 3, 7), 3, true},
		{Rng(1, 3, 7), 7, true},
		{Rng(1, 3, 7), 8, false},
		{Rng(1, 3, 7), 2, false},
		{Any(1, 2, 4, 6), 4, true},
		{Any(1, 2, 4, 6), 5, false},
		{None(1, 2, 4, 6), 4, false},
		{None(1, 2, 4, 6), 5, true},
		{Eq(1, -3), -3, true},
	}
	for _, c := range cases {
		if got := c.pred.Matches(c.val); got != c.want {
			t.Errorf("(%s).Matches(%d) = %v, want %v", c.pred.String(), c.val, got, c.want)
		}
	}
}

func TestInvalidOpNeverMatches(t *testing.T) {
	p := Predicate{Attr: 1, Op: Op(42), Lo: 1}
	if p.Matches(1) {
		t.Fatal("invalid op matched")
	}
}

func TestSetContainsLarge(t *testing.T) {
	// Exercise the binary-search branch (> 16 elements).
	vs := make([]Value, 64)
	for i := range vs {
		vs[i] = Value(i * 3)
	}
	p := Any(1, vs...)
	for i := 0; i < 200; i++ {
		want := i%3 == 0 && i < 192
		if got := p.Matches(Value(i)); got != want {
			t.Fatalf("Matches(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestAnyNormalizes(t *testing.T) {
	p := Any(1, 5, 2, 5, 9, 2)
	want := []Value{2, 5, 9}
	if len(p.Set) != len(want) {
		t.Fatalf("Set = %v, want %v", p.Set, want)
	}
	for i := range want {
		if p.Set[i] != want[i] {
			t.Fatalf("Set = %v, want %v", p.Set, want)
		}
	}
}

func TestPredicateValidate(t *testing.T) {
	valid := []Predicate{Eq(1, 5), Ne(1, 5), Lt(1, 0), Rng(1, 3, 3), Any(1, 1), None(1, 1, 2)}
	for _, p := range valid {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: unexpected error %v", p.String(), err)
		}
	}
	invalid := []Predicate{
		{Attr: 1, Op: Op(77)},
		{Attr: 1, Op: Between, Lo: 5, Hi: 4},
		{Attr: 1, Op: In},
		{Attr: 1, Op: NotIn},
		{Attr: 1, Op: In, Set: []Value{3, 1}}, // not sorted
		{Attr: 1, Op: In, Set: []Value{3, 3}}, // duplicate
		{Attr: 1, Op: LT, Lo: MinValue},       // unsatisfiable
		{Attr: 1, Op: GT, Lo: MaxValue},       // unsatisfiable
	}
	for _, p := range invalid {
		if err := p.Validate(); err == nil {
			t.Errorf("%v: expected validation error", p)
		}
	}
}

func TestPredicateSpan(t *testing.T) {
	cases := []struct {
		pred   Predicate
		lo, hi Value
	}{
		{Eq(1, 5), 5, 5},
		{Lt(1, 5), MinValue, 4},
		{Le(1, 5), MinValue, 5},
		{Gt(1, 5), 6, MaxValue},
		{Ge(1, 5), 5, MaxValue},
		{Rng(1, 3, 7), 3, 7},
		{Any(1, 9, 2, 5), 2, 9},
		{Ne(1, 5), MinValue, MaxValue},
		{None(1, 5), MinValue, MaxValue},
	}
	for _, c := range cases {
		lo, hi := c.pred.Span()
		if lo != c.lo || hi != c.hi {
			t.Errorf("(%s).Span() = [%d,%d], want [%d,%d]", c.pred.String(), lo, hi, c.lo, c.hi)
		}
	}
}

func TestSpanCoversAcceptedValues(t *testing.T) {
	// Property: every accepted value lies inside Span.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		p := randomPredicate(rng, 8, 100)
		lo, hi := p.Span()
		v := Value(rng.Intn(120) - 10)
		if p.Matches(v) && (v < lo || v > hi) {
			t.Fatalf("%s accepts %d outside span [%d,%d]", p.String(), v, lo, hi)
		}
	}
}

func TestIndexable(t *testing.T) {
	for _, p := range []Predicate{Eq(1, 1), Rng(1, 1, 2), Any(1, 1)} {
		if !p.Indexable() {
			t.Errorf("%s should be indexable", p.String())
		}
	}
	for _, p := range []Predicate{Ne(1, 1), None(1, 1)} {
		if p.Indexable() {
			t.Errorf("%s should not be indexable", p.String())
		}
	}
}

func TestPredicateEqual(t *testing.T) {
	a := Any(1, 2, 3)
	b := Any(1, 2, 3)
	if !a.Equal(&b) {
		t.Error("identical set predicates unequal")
	}
	c := Any(1, 2, 4)
	if a.Equal(&c) {
		t.Error("different sets equal")
	}
	d := Any(2, 2, 3)
	if a.Equal(&d) {
		t.Error("different attributes equal")
	}
	e1, e2 := Eq(1, 5), Eq(1, 5)
	if !e1.Equal(&e2) {
		t.Error("identical EQ predicates unequal")
	}
	lt := Lt(1, 5)
	if e1.Equal(&lt) {
		t.Error("EQ and LT equal")
	}
}

func TestNewExpressionSortsAndValidates(t *testing.T) {
	x, err := New(7, Eq(5, 1), Eq(2, 2), Eq(9, 3))
	if err != nil {
		t.Fatal(err)
	}
	if x.ID != 7 {
		t.Fatalf("ID = %d", x.ID)
	}
	for i := 1; i < len(x.Preds); i++ {
		if x.Preds[i].Attr < x.Preds[i-1].Attr {
			t.Fatal("predicates not sorted by attribute")
		}
	}
	if _, err := New(1); err == nil {
		t.Error("empty expression should be rejected")
	}
	if _, err := New(1, Predicate{Attr: 1, Op: Between, Lo: 2, Hi: 1}); err == nil {
		t.Error("invalid predicate should be rejected")
	}
}

func TestNewCopiesInput(t *testing.T) {
	preds := []Predicate{Eq(1, 1), Eq(2, 2)}
	x := MustNew(1, preds...)
	preds[0] = Eq(9, 9)
	if x.Preds[0].Attr == 9 || x.Preds[1].Attr == 9 {
		t.Fatal("expression aliases caller slice")
	}
}

func TestMatchesEvent(t *testing.T) {
	x := MustNew(1, Eq(1, 5), Rng(3, 10, 20), Ne(7, 0))
	cases := []struct {
		ev   *Event
		want bool
	}{
		{MustEvent(Pair{1, 5}, Pair{3, 15}, Pair{7, 2}), true},
		{MustEvent(Pair{1, 5}, Pair{3, 15}, Pair{7, 0}), false},            // NE fails
		{MustEvent(Pair{1, 5}, Pair{3, 15}), false},                        // attr 7 missing
		{MustEvent(Pair{1, 4}, Pair{3, 15}, Pair{7, 2}), false},            // EQ fails
		{MustEvent(Pair{1, 5}, Pair{3, 25}, Pair{7, 2}), false},            // range fails
		{MustEvent(Pair{1, 5}, Pair{3, 15}, Pair{7, 2}, Pair{9, 9}), true}, // extra attrs fine
	}
	for i, c := range cases {
		if got := x.MatchesEvent(c.ev); got != c.want {
			t.Errorf("case %d: MatchesEvent(%s) = %v, want %v", i, c.ev, got, c.want)
		}
	}
}

func TestMultiplePredicatesSameAttr(t *testing.T) {
	x := MustNew(1, Gt(1, 5), Lt(1, 10))
	if !x.MatchesEvent(MustEvent(Pair{1, 7})) {
		t.Error("7 should satisfy 5<x<10")
	}
	if x.MatchesEvent(MustEvent(Pair{1, 5})) || x.MatchesEvent(MustEvent(Pair{1, 10})) {
		t.Error("bounds should be exclusive")
	}
}

func TestAttrs(t *testing.T) {
	x := MustNew(1, Gt(3, 5), Lt(3, 10), Eq(1, 1), Eq(8, 2))
	attrs := x.Attrs()
	want := []AttrID{1, 3, 8}
	if len(attrs) != len(want) {
		t.Fatalf("Attrs = %v, want %v", attrs, want)
	}
	for i := range want {
		if attrs[i] != want[i] {
			t.Fatalf("Attrs = %v, want %v", attrs, want)
		}
	}
}

func TestEventInvariants(t *testing.T) {
	if _, err := NewEvent(Pair{1, 1}, Pair{1, 2}); err == nil {
		t.Error("duplicate attribute should be rejected")
	}
	e := MustEvent(Pair{5, 50}, Pair{1, 10}, Pair{3, 30})
	pairs := e.Pairs()
	for i := 1; i < len(pairs); i++ {
		if pairs[i].Attr <= pairs[i-1].Attr {
			t.Fatal("pairs not sorted")
		}
	}
	if v, ok := e.Lookup(3); !ok || v != 30 {
		t.Errorf("Lookup(3) = %d,%v", v, ok)
	}
	if _, ok := e.Lookup(2); ok {
		t.Error("Lookup(2) should miss")
	}
	if _, ok := e.Lookup(99); ok {
		t.Error("Lookup(99) should miss")
	}
	if n := len(e.Pairs()); n != 3 {
		t.Errorf("len(Pairs) = %d", n)
	}
}

func TestEventEqual(t *testing.T) {
	a := MustEvent(P(1, 5), P(2, 7))
	b := MustEvent(P(2, 7), P(1, 5)) // same content, different input order
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("equal events reported unequal")
	}
	cases := []*Event{
		MustEvent(P(1, 5)),                   // shorter
		MustEvent(P(1, 5), P(2, 8)),          // value differs
		MustEvent(P(1, 5), P(3, 7)),          // attribute differs
		MustEvent(P(1, 5), P(2, 7), P(3, 0)), // longer
	}
	for i, c := range cases {
		if a.Equal(c) {
			t.Fatalf("case %d: unequal events reported equal", i)
		}
	}
}

func TestEmptyEventAllowed(t *testing.T) {
	e, err := NewEvent()
	if err != nil {
		t.Fatal(err)
	}
	x := MustNew(1, Eq(1, 1))
	if x.MatchesEvent(e) {
		t.Error("no expression should match the empty event")
	}
}

func TestStrings(t *testing.T) {
	x := MustNew(1, Eq(1, 5), Rng(2, 1, 9), Any(3, 4, 2))
	got := x.String()
	want := "a1 = 5 and a2 between 1 9 and a3 in {2, 4}"
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	e := MustEvent(Pair{1, 5}, Pair{2, -3})
	if e.String() != "a1=5, a2=-3" {
		t.Errorf("event String = %q", e.String())
	}
}

// randomPredicate builds an arbitrary valid predicate over attrs [0,nAttr)
// and values [0,card).
func randomPredicate(rng *rand.Rand, nAttr, card int) Predicate {
	attr := AttrID(rng.Intn(nAttr))
	v := func() Value { return Value(rng.Intn(card)) }
	switch rng.Intn(9) {
	case 0:
		return Eq(attr, v())
	case 1:
		return Ne(attr, v())
	case 2:
		return Lt(attr, Value(rng.Intn(card-1)+1))
	case 3:
		return Le(attr, v())
	case 4:
		return Gt(attr, Value(rng.Intn(card-1)))
	case 5:
		return Ge(attr, v())
	case 6:
		a, b := v(), v()
		if a > b {
			a, b = b, a
		}
		return Rng(attr, a, b)
	case 7:
		n := rng.Intn(5) + 1
		vs := make([]Value, n)
		for i := range vs {
			vs[i] = v()
		}
		return Any(attr, vs...)
	default:
		n := rng.Intn(5) + 1
		vs := make([]Value, n)
		for i := range vs {
			vs[i] = v()
		}
		return None(attr, vs...)
	}
}

// RandomExpression and RandomEvent are exported to sibling test packages
// via export_test-style helpers in workload; here they validate the model.
func TestPropRandomPredicatesValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			p := randomPredicate(rng, 10, 50)
			if p.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropMatchesEventConsistentWithLookup(t *testing.T) {
	// An expression matches iff every predicate individually passes
	// against the event's values.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		preds := make([]Predicate, rng.Intn(5)+1)
		for i := range preds {
			preds[i] = randomPredicate(rng, 6, 20)
		}
		x, err := New(1, preds...)
		if err != nil {
			return false
		}
		var pairs []Pair
		for a := 0; a < 6; a++ {
			if rng.Intn(3) > 0 {
				pairs = append(pairs, Pair{AttrID(a), Value(rng.Intn(20))})
			}
		}
		ev, err := NewEvent(pairs...)
		if err != nil {
			return false
		}
		want := true
		for i := range x.Preds {
			v, ok := ev.Lookup(x.Preds[i].Attr)
			if !ok || !x.Preds[i].Matches(v) {
				want = false
				break
			}
		}
		return x.MatchesEvent(ev) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
