// Command apcm-inspect loads a workload into the adaptive compressed
// matcher, exercises it, and reports how the index actually looks:
// cluster-size and attribute-diversity histograms, compression ratios,
// kernel routing after adaptation, and the most expensive clusters. Use
// it to understand why a workload is fast or slow before reaching for
// tuning knobs.
//
//	apcm-inspect -n 50000 -events 5000
//	apcm-inspect -subs w1.subs -eventsfile w1.events -cluster 512
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/trace"
	"github.com/streammatch/apcm/workload"
)

func main() {
	var (
		n          = flag.Int("n", 20000, "number of generated subscriptions")
		nev        = flag.Int("events", 2000, "events to drive adaptation")
		seed       = flag.Int64("seed", 1, "workload seed")
		subsPath   = flag.String("subs", "", "subscription trace (overrides generation)")
		eventsPath = flag.String("eventsfile", "", "event trace (overrides generation)")
		cluster    = flag.Int("cluster", 0, "cluster size bound (0 = default)")
		top        = flag.Int("top", 5, "how many of the costliest clusters to list")
	)
	flag.Parse()

	xs, events, err := loadWorkload(*subsPath, *eventsPath, *n, *nev, *seed)
	if err != nil {
		fatal("%v", err)
	}

	eng, err := apcm.New(apcm.Options{ClusterSize: *cluster})
	if err != nil {
		fatal("%v", err)
	}
	defer eng.Close()
	for _, x := range xs {
		if err := eng.Subscribe(x); err != nil {
			fatal("%v", err)
		}
	}
	eng.Prepare()
	// Drive the stream so the adaptive policy settles.
	const batch = 256
	for off := 0; off < len(events); off += batch {
		end := off + batch
		if end > len(events) {
			end = len(events)
		}
		eng.MatchBatch(events[off:end])
	}

	st := eng.Stats()
	fmt.Printf("apcm-inspect: %d subscriptions, %d events driven, %d workers\n",
		st.Subscriptions, len(events), st.Workers)
	fmt.Printf("memory: %.2f MiB total, compression %.2f preds/entry\n\n",
		float64(st.MemBytes)/(1<<20), st.CompressionRatio)

	clusters := eng.Clusters()
	if len(clusters) == 0 {
		fmt.Println("no compiled clusters (everything below the compression threshold)")
		return
	}

	// Size histogram (powers of two).
	sizeBuckets := map[int]int{}
	compressed, probed := 0, 0
	var totalSlots, totalDistinct int
	for _, c := range clusters {
		b := 1
		for b < c.Live {
			b <<= 1
		}
		sizeBuckets[b]++
		if c.Compressed {
			compressed++
		}
		if c.EwmaCompressedNs > 0 {
			probed++
		}
		totalSlots += c.PredSlots
		totalDistinct += c.DistinctPreds
	}
	fmt.Printf("clusters: %d compiled, %d routed to the compressed kernel, %d probed\n",
		len(clusters), compressed, probed)
	if totalDistinct > 0 {
		fmt.Printf("aggregate compression: %d predicate slots -> %d distinct entries (%.2fx)\n",
			totalSlots, totalDistinct, float64(totalSlots)/float64(totalDistinct))
	}

	fmt.Println("\ncluster size histogram (live members):")
	var sizes []int
	for b := range sizeBuckets {
		sizes = append(sizes, b)
	}
	sort.Ints(sizes)
	for _, b := range sizes {
		fmt.Printf("  <=%-6d %4d  %s\n", b, sizeBuckets[b], bar(sizeBuckets[b], len(clusters)))
	}

	// Posting representations: how compilation actually chose to lay the
	// postings out, so the density rule is auditable in the field.
	var hist [12]int
	var dense, sparse, sparseSlots, totalPostings int
	for _, c := range clusters {
		dense += c.DensePostings
		sparse += c.SparsePostings
		sparseSlots += c.SparseMemberSlots
		for i, n := range c.PostingHist {
			hist[i] += n
			totalPostings += n
		}
	}
	fmt.Printf("\nposting layout: %d dense, %d sparse (%d ids held sparse)\n",
		dense, sparse, sparseSlots)
	fmt.Println("\nposting density histogram (members per posting):")
	for i, n := range hist {
		if n == 0 {
			continue
		}
		lo, hi := 1<<i>>1, 1<<i-1
		label := fmt.Sprintf("%d-%d", lo, hi)
		if lo >= hi {
			label = fmt.Sprintf("%d", hi)
		}
		if i == len(hist)-1 {
			label = fmt.Sprintf(">=%d", lo)
		}
		fmt.Printf("  %-8s %6d  %s\n", label, n, bar(n, totalPostings))
	}

	// Costliest clusters by probed compressed estimate.
	sort.Slice(clusters, func(i, j int) bool {
		ci, cj := clusters[i], clusters[j]
		return best(ci) > best(cj)
	})
	fmt.Printf("\ntop %d clusters by estimated cost:\n", *top)
	fmt.Printf("  %-8s %-7s %-6s %-10s %-12s %-12s %s\n",
		"members", "attrs", "tombs", "compress", "ns(comp)", "ns(scan)", "kernel")
	for i, c := range clusters {
		if i >= *top {
			break
		}
		kernel := "scan"
		if c.Compressed {
			kernel = "compressed"
		}
		ratio := 0.0
		if c.DistinctPreds > 0 {
			ratio = float64(c.PredSlots) / float64(c.DistinctPreds)
		}
		fmt.Printf("  %-8d %-7d %-6d %-10.2f %-12.0f %-12.0f %s\n",
			c.Live, c.Attrs, c.Tombstones, ratio, c.EwmaCompressedNs, c.EwmaScanNs, kernel)
	}
}

func best(c apcm.ClusterInfo) float64 {
	if c.EwmaCompressedNs > 0 && (c.EwmaCompressedNs < c.EwmaScanNs || c.EwmaScanNs == 0) {
		return c.EwmaCompressedNs
	}
	return c.EwmaScanNs
}

func bar(n, total int) string {
	if total == 0 {
		return ""
	}
	w := n * 40 / total
	out := make([]byte, w)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

func loadWorkload(subsPath, eventsPath string, n, nev int, seed int64) ([]*expr.Expression, []*expr.Event, error) {
	if (subsPath == "") != (eventsPath == "") {
		return nil, nil, fmt.Errorf("provide both -subs and -eventsfile, or neither")
	}
	if subsPath != "" {
		f, err := os.Open(subsPath)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		xs, err := trace.ReadExpressions(f)
		if err != nil {
			return nil, nil, err
		}
		ef, err := os.Open(eventsPath)
		if err != nil {
			return nil, nil, err
		}
		defer ef.Close()
		events, err := trace.ReadEvents(ef)
		if err != nil {
			return nil, nil, err
		}
		return xs, events, nil
	}
	p := workload.Default()
	p.Seed = seed
	g, err := workload.New(p)
	if err != nil {
		return nil, nil, err
	}
	return g.Expressions(n), g.Events(nev), nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "apcm-inspect: "+format+"\n", args...)
	os.Exit(1)
}
