package apcm_test

import (
	"fmt"
	"time"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
)

// The basic loop: subscribe Boolean expressions, match events.
func Example() {
	schema := expr.NewSchema()
	eng, _ := apcm.New(apcm.Options{Workers: 1})
	defer eng.Close()

	sub := expr.MustParse(schema, eng.NewID(),
		"price <= 500 and brand in {3, 7} and rating >= 4")
	_ = eng.Subscribe(sub)

	hit := expr.MustParseEvent(schema, "price=300, brand=7, rating=5")
	miss := expr.MustParseEvent(schema, "price=600, brand=7, rating=5")
	fmt.Println(len(eng.Match(hit)), len(eng.Match(miss)))
	// Output: 1 0
}

// Predicates can be built programmatically instead of parsed.
func ExampleEngine_SubscribePreds() {
	eng, _ := apcm.New(apcm.Options{Workers: 1})
	defer eng.Close()

	id, _ := eng.SubscribePreds(
		expr.Eq(0, 2),         // category == 2
		expr.Rng(1, 100, 200), // 100 <= price <= 200
		expr.None(2, 9),       // condition not in {9}
	)
	ev := expr.MustEvent(expr.P(0, 2), expr.P(1, 150), expr.P(2, 1))
	fmt.Println(eng.Match(ev)[0] == id)
	// Output: true
}

// A DNF subscription matches when any of its conjunctions does, and is
// reported once per event.
func ExampleEngine_SubscribeAny() {
	eng, _ := apcm.New(apcm.Options{Workers: 1})
	defer eng.Close()

	gid, _ := eng.SubscribeAny(
		[]expr.Predicate{expr.Eq(0, 1)},                // laptops ...
		[]expr.Predicate{expr.Eq(0, 2), expr.Ge(1, 9)}, // ... or highly-rated phones
	)
	laptop := expr.MustEvent(expr.P(0, 1), expr.P(1, 3))
	phone := expr.MustEvent(expr.P(0, 2), expr.P(1, 9))
	dull := expr.MustEvent(expr.P(0, 2), expr.P(1, 2))
	fmt.Println(
		eng.Match(laptop)[0] == gid,
		eng.Match(phone)[0] == gid,
		len(eng.Match(dull)),
	)
	// Output: true true 0
}

// The streaming front end buffers a window, re-orders it for index
// locality, and delivers matches through a callback.
func ExampleEngine_NewStream() {
	eng, _ := apcm.New(apcm.Options{Workers: 1})
	defer eng.Close()
	for v := expr.Value(0); v < 3; v++ {
		eng.SubscribePreds(expr.Eq(0, v))
	}

	var got []int
	stream := eng.NewStream(apcm.StreamOptions{Window: 3, MaxDelay: time.Second},
		func(ev *expr.Event, matches []expr.ID) {
			got = append(got, len(matches))
		})
	stream.Publish(expr.MustEvent(expr.P(0, 2)))
	stream.Publish(expr.MustEvent(expr.P(0, 9))) // matches nothing
	stream.Publish(expr.MustEvent(expr.P(0, 0)))
	stream.Close()
	// OSR delivered the window in locality order (0, 2, 9), so the
	// non-matching event comes last.
	fmt.Println(got)
	// Output: [1 1 0]
}
