// Intrusion detection: signature matching over network flow metadata —
// one of the paper's real-time data-analysis applications.
//
// Detection rules are Boolean expressions over flow features (protocol,
// ports, subnet buckets, packet size, TCP flags, payload class). Every
// observed flow record must be checked against the full rule set at
// line rate; negated predicates ("any port except well-known") are
// common, exercising the non-indexable residue path.
//
//	go run ./examples/intrusion
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
)

// Flow record attributes.
const (
	attrProto    = iota // 0 tcp, 1 udp, 2 icmp
	attrSrcNet          // source subnet bucket 0..4095
	attrDstNet          // destination subnet bucket 0..4095
	attrDstPort         // 0..65535
	attrPktSize         // bytes 0..1500
	attrTCPFlags        // flag combination 0..63
	attrPayload         // payload classifier output 0..255
)

type rule struct {
	name string
	x    *expr.Expression
}

func ruleSet(rng *rand.Rand, n int) []rule {
	rules := make([]rule, 0, n)
	id := expr.ID(1)
	add := func(name string, preds ...expr.Predicate) {
		rules = append(rules, rule{name: name, x: expr.MustNew(id, preds...)})
		id++
	}
	// A few hand-written signatures...
	add("null-scan", expr.Eq(attrProto, 0), expr.Eq(attrTCPFlags, 0))
	add("xmas-scan", expr.Eq(attrProto, 0), expr.Eq(attrTCPFlags, 41))
	add("dns-tunnel", expr.Eq(attrProto, 1), expr.Eq(attrDstPort, 53), expr.Ge(attrPktSize, 512))
	add("telnet-probe", expr.Eq(attrProto, 0), expr.Eq(attrDstPort, 23))
	add("odd-port-smb", expr.Eq(attrProto, 0), expr.Eq(attrPayload, 17),
		expr.None(attrDstPort, 139, 445))
	// ...plus a synthetic population shaped like real rule feeds: port
	// lists, subnet watches, size bands, payload classes.
	for len(rules) < n {
		switch rng.Intn(4) {
		case 0:
			ports := make([]expr.Value, 2+rng.Intn(6))
			for i := range ports {
				ports[i] = expr.Value(rng.Intn(65536))
			}
			add("portlist", expr.Eq(attrProto, expr.Value(rng.Intn(2))),
				expr.Any(attrDstPort, ports...))
		case 1:
			add("subnet-watch", expr.Eq(attrSrcNet, expr.Value(rng.Intn(4096))),
				expr.Ne(attrDstNet, expr.Value(rng.Intn(4096))))
		case 2:
			lo := expr.Value(rng.Intn(1400))
			add("size-band", expr.Eq(attrPayload, expr.Value(rng.Intn(256))),
				expr.Rng(attrPktSize, lo, lo+expr.Value(rng.Intn(100))))
		default:
			add("flag-combo", expr.Eq(attrProto, 0),
				expr.Eq(attrTCPFlags, expr.Value(rng.Intn(64))),
				expr.Ge(attrDstPort, 1024))
		}
	}
	return rules
}

func flow(rng *rand.Rand) *expr.Event {
	return expr.MustEvent(
		expr.P(attrProto, expr.Value(rng.Intn(3))),
		expr.P(attrSrcNet, expr.Value(rng.Intn(4096))),
		expr.P(attrDstNet, expr.Value(rng.Intn(4096))),
		expr.P(attrDstPort, expr.Value(rng.Intn(65536))),
		expr.P(attrPktSize, expr.Value(rng.Intn(1501))),
		expr.P(attrTCPFlags, expr.Value(rng.Intn(64))),
		expr.P(attrPayload, expr.Value(rng.Intn(256))),
	)
}

func main() {
	const nRules = 30000
	const nFlows = 5000
	rng := rand.New(rand.NewSource(1337))

	rules := ruleSet(rng, nRules)
	byID := make(map[expr.ID]string, len(rules))
	eng, err := apcm.New(apcm.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	for _, r := range rules {
		byID[r.x.ID] = r.name
		if err := eng.Subscribe(r.x); err != nil {
			log.Fatal(err)
		}
	}
	eng.Prepare()
	fmt.Printf("loaded %d detection rules\n", len(rules))

	// Mostly background traffic, with a few crafted attack flows mixed in.
	flows := make([]*expr.Event, 0, nFlows)
	for i := 0; i < nFlows-3; i++ {
		flows = append(flows, flow(rng))
	}
	flows = append(flows,
		expr.MustEvent(expr.P(attrProto, 0), expr.P(attrSrcNet, 1), expr.P(attrDstNet, 2),
			expr.P(attrDstPort, 80), expr.P(attrPktSize, 40), expr.P(attrTCPFlags, 0), expr.P(attrPayload, 3)),
		expr.MustEvent(expr.P(attrProto, 1), expr.P(attrSrcNet, 9), expr.P(attrDstNet, 9),
			expr.P(attrDstPort, 53), expr.P(attrPktSize, 900), expr.P(attrTCPFlags, 0), expr.P(attrPayload, 7)),
		expr.MustEvent(expr.P(attrProto, 0), expr.P(attrSrcNet, 5), expr.P(attrDstNet, 6),
			expr.P(attrDstPort, 23), expr.P(attrPktSize, 60), expr.P(attrTCPFlags, 2), expr.P(attrPayload, 1)),
	)

	alertCounts := map[string]int{}
	alerts := 0
	start := time.Now()
	for _, f := range flows {
		for _, id := range eng.Match(f) {
			alertCounts[byID[id]]++
			alerts++
		}
	}
	el := time.Since(start)

	fmt.Printf("inspected %d flows in %s (%.0f flows/s), %d alerts\n\n",
		len(flows), el.Round(time.Millisecond), float64(len(flows))/el.Seconds(), alerts)
	for _, name := range []string{"null-scan", "dns-tunnel", "telnet-probe"} {
		fmt.Printf("  %-14s %d hits (crafted attack flows present: expect ≥1)\n",
			name, alertCounts[name])
	}
	st := eng.Stats()
	fmt.Printf("\nengine: %d rules, %d KiB, compression %.1f preds/entry\n",
		st.Subscriptions, st.MemBytes/1024, st.CompressionRatio)
}
