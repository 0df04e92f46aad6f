package osr

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/streammatch/apcm/expr"
)

func ev(pairs ...expr.Pair) *expr.Event { return expr.MustEvent(pairs...) }

func TestLess(t *testing.T) {
	cases := []struct {
		a, b *expr.Event
		want bool
	}{
		{ev(expr.P(1, 5)), ev(expr.P(2, 5)), true},
		{ev(expr.P(2, 5)), ev(expr.P(1, 5)), false},
		{ev(expr.P(1, 4)), ev(expr.P(1, 5)), true},
		{ev(expr.P(1, 5)), ev(expr.P(1, 5)), false},              // equal
		{ev(expr.P(1, 5)), ev(expr.P(1, 5), expr.P(2, 1)), true}, // prefix
		{ev(expr.P(1, 5), expr.P(2, 1)), ev(expr.P(1, 5)), false},
	}
	for i, c := range cases {
		if got := Less(c.a, c.b); got != c.want {
			t.Errorf("case %d: Less(%s, %s) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

func TestLessIsStrictWeakOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var evs []*expr.Event
	for i := 0; i < 100; i++ {
		var pairs []expr.Pair
		for a := 0; a < 4; a++ {
			if rng.Intn(2) == 0 {
				pairs = append(pairs, expr.P(expr.AttrID(a), expr.Value(rng.Intn(3))))
			}
		}
		if len(pairs) == 0 {
			pairs = append(pairs, expr.P(0, 0))
		}
		evs = append(evs, ev(pairs...))
	}
	for _, a := range evs {
		if Less(a, a) {
			t.Fatal("Less not irreflexive")
		}
	}
	for _, a := range evs {
		for _, b := range evs {
			if Less(a, b) && Less(b, a) {
				t.Fatal("Less not asymmetric")
			}
		}
	}
}

func TestReorderGroupsSimilarEvents(t *testing.T) {
	var events []*expr.Event
	// Interleave two families of events.
	for i := 0; i < 10; i++ {
		events = append(events, ev(expr.P(1, expr.Value(i))))
		events = append(events, ev(expr.P(50, expr.Value(i))))
	}
	Reorder(events)
	if !sort.SliceIsSorted(events, func(i, j int) bool { return Less(events[i], events[j]) }) {
		t.Fatal("Reorder output not in locality order")
	}
	// All attr-1 events must precede all attr-50 events.
	for i := 0; i < 10; i++ {
		if events[i].Pairs()[0].Attr != 1 {
			t.Fatalf("position %d: %s", i, events[i])
		}
	}
}

func TestReorderStable(t *testing.T) {
	a1 := ev(expr.P(1, 1))
	a2 := ev(expr.P(1, 1)) // equal signature, distinct pointer
	events := []*expr.Event{a1, a2}
	Reorder(events)
	if events[0] != a1 || events[1] != a2 {
		t.Fatal("Reorder not stable for equal events")
	}
}
