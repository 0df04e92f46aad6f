// Computational finance: high-frequency alerting over a tick stream —
// one of the paper's real-time data-analysis applications.
//
// Trading strategies register alert conditions over market ticks
// (symbol, price bucket, volume, percentage move, venue). Ticks arrive
// across thousands of symbols and are matched in batches of 256, the
// way a feed handler drains what its socket has buffered.
//
//	go run ./examples/finance
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
)

// Tick attributes. Prices are fixed-point cents; moves are basis points
// offset by 10000 so the domain stays non-negative.
const (
	attrSymbol = iota // 0..1999
	attrPrice         // cents, 0..1_000_00
	attrVolume        // shares per tick, 0..100000
	attrMoveBp        // 10000 = flat, < it = down, > it = up
	attrVenue         // 0..7
)

func strategies(n int, rng *rand.Rand) []*expr.Expression {
	out := make([]*expr.Expression, 0, n)
	id := expr.ID(1)
	for len(out) < n {
		sym := expr.Value(rng.Intn(2000))
		switch rng.Intn(4) {
		case 0: // breakout: symbol trades above a price with volume
			out = append(out, expr.MustNew(id,
				expr.Eq(attrSymbol, sym),
				expr.Ge(attrPrice, expr.Value(5000+rng.Intn(90000))),
				expr.Ge(attrVolume, expr.Value(1000+rng.Intn(20000)))))
		case 1: // crash alert: sharp down-move anywhere in a sector basket
			basket := make([]expr.Value, 5)
			for i := range basket {
				basket[i] = expr.Value(rng.Intn(2000))
			}
			out = append(out, expr.MustNew(id,
				expr.Any(attrSymbol, basket...),
				expr.Le(attrMoveBp, expr.Value(10000-100-rng.Intn(400)))))
		case 2: // venue-specific liquidity: big prints off-exchange
			out = append(out, expr.MustNew(id,
				expr.Eq(attrSymbol, sym),
				expr.Ge(attrVolume, expr.Value(20000+rng.Intn(50000))),
				expr.None(attrVenue, 0, 1)))
		default: // range watch: symbol inside a price band
			lo := expr.Value(1000 + rng.Intn(80000))
			out = append(out, expr.MustNew(id,
				expr.Eq(attrSymbol, sym),
				expr.Rng(attrPrice, lo, lo+expr.Value(rng.Intn(3000)))))
		}
		id++
	}
	return out
}

func tick(rng *rand.Rand) *expr.Event {
	return expr.MustEvent(
		expr.P(attrSymbol, expr.Value(rng.Intn(2000))),
		expr.P(attrPrice, expr.Value(rng.Intn(100000))),
		expr.P(attrVolume, expr.Value(rng.Intn(100000))),
		expr.P(attrMoveBp, expr.Value(9000+rng.Intn(2000))),
		expr.P(attrVenue, expr.Value(rng.Intn(8))),
	)
}

func main() {
	const nStrategies = 40000
	const nTicks = 20000
	rng := rand.New(rand.NewSource(7))

	fmt.Printf("registering %d alert strategies...\n", nStrategies)
	eng, err := apcm.New(apcm.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	for _, s := range strategies(nStrategies, rng) {
		if err := eng.Subscribe(s); err != nil {
			log.Fatal(err)
		}
	}
	eng.Prepare()

	const batchSize = 256
	var alerts, maxAlertsPerTick int
	var r apcm.BatchResult
	batch := make([]*expr.Event, 0, batchSize)
	match := func() {
		eng.MatchBatchInto(batch, &r)
		for i := range batch {
			n := len(r.For(i))
			alerts += n
			maxAlertsPerTick = max(maxAlertsPerTick, n)
		}
		batch = batch[:0]
	}

	fmt.Printf("matching %d ticks in batches of %d...\n", nTicks, batchSize)
	start := time.Now()
	for i := 0; i < nTicks; i++ {
		if batch = append(batch, tick(rng)); len(batch) == batchSize {
			match()
		}
	}
	if len(batch) > 0 {
		match()
	}
	el := time.Since(start)

	fmt.Printf("\nprocessed %d ticks in %s (%.0f ticks/s)\n",
		nTicks, el.Round(time.Millisecond), float64(nTicks)/el.Seconds())
	fmt.Printf("fired %d alerts (max %d strategies on one tick)\n",
		alerts, maxAlertsPerTick)
	st := eng.Stats()
	fmt.Printf("engine: %d compiled clusters, %d serving compressed, %.1f preds/entry\n",
		st.CompiledClusters, st.CompressedServing, st.CompressionRatio)
}
