// Computational advertising — the paper's first motivating application.
//
// Advertisers register targeting rules (campaigns) as Boolean
// expressions over impression attributes: site category, user
// demographics, geography, device, hour of day. Each incoming ad
// request (impression) must be matched against the whole campaign
// database within a tight budget. This example builds a synthetic
// campaign database, streams impressions through the engine, and then
// churns campaigns with matching interleaved. (The comparison against
// the paper's baselines is experiment E1: go run ./cmd/apcm-bench -exp E1.)
//
//	go run ./examples/advertising
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
)

// Impression attribute ids.
const (
	attrSiteCategory = iota // 0..19
	attrUserAge             // 13..90
	attrUserGender          // 0/1/2
	attrGeo                 // 0..199 (region code)
	attrDevice              // 0 desktop, 1 phone, 2 tablet
	attrHour                // 0..23
	attrOSFamily            // 0..4
	attrLanguage            // 0..9
)

// campaign builds one targeting rule. Campaigns mirror real targeting:
// a handful of equality/membership constraints plus an age band.
func campaign(rng *rand.Rand, id expr.ID) *expr.Expression {
	preds := []expr.Predicate{
		expr.Eq(attrSiteCategory, expr.Value(rng.Intn(20))),
		expr.Rng(attrUserAge, expr.Value(18+rng.Intn(30)), expr.Value(48+rng.Intn(40))),
	}
	if rng.Intn(2) == 0 {
		preds = append(preds, expr.Eq(attrUserGender, expr.Value(rng.Intn(3))))
	}
	if rng.Intn(3) > 0 {
		regions := make([]expr.Value, 3+rng.Intn(5))
		for i := range regions {
			regions[i] = expr.Value(rng.Intn(200))
		}
		preds = append(preds, expr.Any(attrGeo, regions...))
	}
	if rng.Intn(2) == 0 {
		preds = append(preds, expr.Any(attrDevice, expr.Value(rng.Intn(3))))
	}
	if rng.Intn(4) == 0 { // daypart targeting
		start := rng.Intn(18)
		preds = append(preds, expr.Rng(attrHour, expr.Value(start), expr.Value(start+6)))
	}
	if rng.Intn(5) == 0 { // language exclusion
		preds = append(preds, expr.None(attrLanguage, expr.Value(rng.Intn(10))))
	}
	x, err := expr.New(id, preds...)
	if err != nil {
		log.Fatal(err)
	}
	return x
}

func impression(rng *rand.Rand) *expr.Event {
	ev, err := expr.NewEvent(
		expr.P(attrSiteCategory, expr.Value(rng.Intn(20))),
		expr.P(attrUserAge, expr.Value(13+rng.Intn(77))),
		expr.P(attrUserGender, expr.Value(rng.Intn(3))),
		expr.P(attrGeo, expr.Value(rng.Intn(200))),
		expr.P(attrDevice, expr.Value(rng.Intn(3))),
		expr.P(attrHour, expr.Value(rng.Intn(24))),
		expr.P(attrOSFamily, expr.Value(rng.Intn(5))),
		expr.P(attrLanguage, expr.Value(rng.Intn(10))),
	)
	if err != nil {
		log.Fatal(err)
	}
	return ev
}

func main() {
	const nCampaigns = 50000
	const nImpressions = 3000
	rng := rand.New(rand.NewSource(42))

	fmt.Printf("building %d ad campaigns...\n", nCampaigns)
	campaigns := make([]*expr.Expression, nCampaigns)
	for i := range campaigns {
		campaigns[i] = campaign(rng, expr.ID(i+1))
	}
	imps := make([]*expr.Event, nImpressions)
	for i := range imps {
		imps[i] = impression(rng)
	}

	eng, err := apcm.New(apcm.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	for _, c := range campaigns {
		if err := eng.Subscribe(c); err != nil {
			log.Fatal(err)
		}
	}
	eng.Prepare()

	fmt.Printf("matching %d impressions against the campaign database:\n\n", nImpressions)
	eligible := 0
	start := time.Now()
	for _, imp := range imps {
		eligible += len(eng.Match(imp))
	}
	fmt.Printf("  %10.0f impressions/s   (%.1f eligible campaigns per impression)\n",
		float64(nImpressions)/time.Since(start).Seconds(), float64(eligible)/float64(nImpressions))

	// Campaign churn: advertisers pause and resume campaigns constantly.
	start = time.Now()
	const churn = 5000
	for i := 0; i < churn; i++ {
		c := campaigns[rng.Intn(len(campaigns))]
		if eng.Unsubscribe(c.ID) {
			if err := eng.Subscribe(c); err != nil {
				log.Fatal(err)
			}
		}
		if i%50 == 0 {
			eng.Match(imps[rng.Intn(len(imps))])
		}
	}
	fmt.Printf("\ncampaign churn: %d pause/resume cycles in %s with matching interleaved\n",
		churn, time.Since(start).Round(time.Millisecond))
	st := eng.Stats()
	fmt.Printf("engine: %d campaigns, compression %.1f preds/entry, %d KiB\n",
		st.Subscriptions, st.CompressionRatio, st.MemBytes/1024)
}
