// Quickstart: subscribe a handful of Boolean expressions and match
// events against them — the five-minute tour of the public API.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
)

func main() {
	// A schema maps readable attribute names to dense ids. It is purely a
	// front-end convenience: the engine works on ids.
	schema := expr.NewSchema()

	// The default engine is A-PCM: adaptive parallel compressed matching.
	eng, err := apcm.New(apcm.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// Subscriptions are conjunctions of predicates. The text syntax
	// supports =, !=, <, <=, >, >=, between, in, not in.
	subs := map[string]string{
		"bargain laptops":     "category = 1 and price <= 800 and rating >= 4",
		"premium phones":      "category = 2 and price between 900 2000 and brand in {1, 3}",
		"anything but refurb": "category = 2 and condition != 9",
	}
	names := map[expr.ID]string{}
	for name, text := range subs {
		x, err := expr.Parse(schema, eng.NewID(), text)
		if err != nil {
			log.Fatalf("parsing %q: %v", text, err)
		}
		if err := eng.Subscribe(x); err != nil {
			log.Fatal(err)
		}
		names[x.ID] = name
		fmt.Printf("subscribed %-22s %s\n", name+":", x.Format(schema))
	}

	// Events assign values to attributes. A subscription matches only if
	// every one of its predicates is satisfied by the event.
	events := []string{
		"category=1, price=650, rating=5, brand=2, condition=1",
		"category=2, price=1100, rating=4, brand=3, condition=1",
		"category=2, price=1100, rating=4, brand=3, condition=9",
		"category=1, price=999, rating=5, brand=1, condition=1",
	}
	fmt.Println()
	for _, text := range events {
		ev, err := expr.ParseEvent(schema, text)
		if err != nil {
			log.Fatal(err)
		}
		matches := eng.Match(ev)
		fmt.Printf("event  %s\n", ev.Format(schema))
		if len(matches) == 0 {
			fmt.Println("  -> no subscriptions matched")
			continue
		}
		for _, id := range matches {
			fmt.Printf("  -> matched %q\n", names[id])
		}
	}

	st := eng.Stats()
	fmt.Printf("\nengine: %d subscriptions, %d workers\n",
		st.Subscriptions, st.Workers)
}
