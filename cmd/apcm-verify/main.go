// Command apcm-verify cross-validates the Engine and every reference
// matcher of the experiment harness (the paper's baselines, PCM and
// A-PCM) on a workload: each indexes the same
// subscriptions, every event is matched by each, and any divergence from
// the reference semantics is reported with a reproducer. Use it after
// modifying matcher internals, or to validate a workload trace before a
// long benchmark run.
//
//	apcm-verify -n 20000 -events 5000 -seed 3
//	apcm-verify -subs w1.subs -eventsfile w1.events
//
// -metrics-addr serves /metrics, /metrics.json and /debug/pprof while
// the verification runs — handy for profiling a large -oracle pass.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"time"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/bench"
	"github.com/streammatch/apcm/internal/match"
	"github.com/streammatch/apcm/metrics"
	"github.com/streammatch/apcm/trace"
	"github.com/streammatch/apcm/workload"
)

func main() {
	var (
		n          = flag.Int("n", 10000, "number of generated subscriptions")
		nev        = flag.Int("events", 2000, "number of generated events")
		seed       = flag.Int64("seed", 1, "workload seed")
		subsPath   = flag.String("subs", "", "subscription trace (overrides generation)")
		eventsPath = flag.String("eventsfile", "", "event trace (overrides generation)")
		negated    = flag.Float64("neg", 0.05, "negated predicate weight for generated workloads")
		oracle     = flag.Bool("oracle", false, "additionally verify against the O(n·m) reference semantics (slow)")
		metAddr    = flag.String("metrics-addr", "", "optional observability address (serves /metrics, /metrics.json and /debug/pprof)")
	)
	flag.Parse()

	var reg *metrics.Registry
	if *metAddr != "" {
		reg = metrics.New()
		ms := &http.Server{Addr: *metAddr, Handler: metrics.NewMux(reg), ReadHeaderTimeout: 5 * time.Second}
		//apcm:detached process-lifetime server; ListenAndServe returns on the deferred ms.Close()
		go func() {
			fmt.Printf("apcm-verify: metrics on http://%s/metrics\n", *metAddr)
			if err := ms.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fatal("metrics http: %v", err)
			}
		}()
		defer ms.Close()
	}

	xs, events, err := loadWorkload(*subsPath, *eventsPath, *n, *nev, *seed, *negated)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("apcm-verify: %d subscriptions, %d events\n", len(xs), len(events))

	// The Engine matches through its public surface; every reference
	// matcher through match.Matcher. Scan is the in-suite reference:
	// simple enough to trust, and -oracle re-derives it from first
	// principles for belt and braces.
	type candidate struct {
		name  string
		match func(*expr.Event) []expr.ID
	}
	build := func(name string, insert func(*expr.Expression) error) {
		start := time.Now()
		for _, x := range xs {
			if err := insert(x); err != nil {
				fatal("%s: subscribe: %v", name, err)
			}
		}
		fmt.Printf("  built %-18s in %v\n", name, time.Since(start).Round(time.Millisecond))
	}
	eng, err := apcm.New(apcm.Options{Metrics: reg})
	if err != nil {
		fatal("%v", err)
	}
	defer eng.Close()
	build("Engine", eng.Subscribe)
	eng.Prepare()
	candidates := []candidate{{"Engine", eng.Match}}
	var reference match.Matcher
	for _, ref := range bench.References() {
		m := ref.New(0)
		build(ref.Name, m.Insert)
		if ref.Name == "Scan" {
			reference = m
			continue
		}
		candidates = append(candidates, candidate{ref.Name, func(ev *expr.Event) []expr.ID { return m.MatchAppend(nil, ev) }})
	}

	mismatches := 0
	start := time.Now()
	for i, ev := range events {
		want := canon(reference.MatchAppend(nil, ev))
		if *oracle {
			direct := oracleMatch(xs, ev)
			if !equal(want, direct) {
				mismatches++
				fmt.Printf("MISMATCH event %d: Scan itself diverges from reference semantics\n  event: %s\n", i, ev)
				continue
			}
		}
		for _, c := range candidates {
			got := canon(c.match(ev))
			if !equal(got, want) {
				mismatches++
				fmt.Printf("MISMATCH event %d: %s disagrees with Scan\n  event: %s\n  %s: %v\n  Scan: %v\n",
					i, c.name, ev, c.name, got, want)
				if mismatches >= 10 {
					fatal("too many mismatches; aborting")
				}
			}
		}
	}
	elapsed := time.Since(start)
	if mismatches > 0 {
		fatal("%d mismatches found", mismatches)
	}
	fmt.Printf("apcm-verify: OK — the Engine and %d reference matchers agree with Scan on all %d events (%v)\n",
		len(candidates)-1, len(events), elapsed.Round(time.Millisecond))
}

func loadWorkload(subsPath, eventsPath string, n, nev int, seed int64, negated float64) ([]*expr.Expression, []*expr.Event, error) {
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
			return nil, nil, fmt.Errorf("reading %s: %w", subsPath, err)
		}
		ef, err := os.Open(eventsPath)
		if err != nil {
			return nil, nil, err
		}
		defer ef.Close()
		events, err := trace.ReadEvents(ef)
		if err != nil {
			return nil, nil, fmt.Errorf("reading %s: %w", eventsPath, err)
		}
		return xs, events, nil
	}
	p := workload.Default()
	p.Seed = seed
	p.WNegated = negated
	p.WEquality -= negated
	g, err := workload.New(p)
	if err != nil {
		return nil, nil, err
	}
	return g.Expressions(n), g.Events(nev), nil
}

func oracleMatch(xs []*expr.Expression, ev *expr.Event) []expr.ID {
	var out []expr.ID
	for _, x := range xs {
		if x.MatchesEvent(ev) {
			out = append(out, x.ID)
		}
	}
	return canon(out)
}

func canon(ids []expr.ID) []expr.ID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func equal(a, b []expr.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "apcm-verify: "+format+"\n", args...)
	os.Exit(1)
}
