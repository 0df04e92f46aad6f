package bench

import (
	"fmt"
	"net"
	"time"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/broker"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/core"
	"github.com/streammatch/apcm/internal/match"
	"github.com/streammatch/apcm/internal/osr"
	"github.com/streammatch/apcm/metrics"
	"github.com/streammatch/apcm/workload"
)

func init() {
	register(e1())
	register(e2())
	register(e3())
	register(e4())
	register(e5())
	register(e6())
	register(e7())
	register(e8())
	register(e9())
	register(e10())
	register(e11())
	register(e12())
	register(e13())
	register(e14())
}

// gen produces a workload: n expressions plus nev events.
func gen(p workload.Params, n, nev int) ([]*expr.Expression, []*expr.Event) {
	g := workload.MustNew(p)
	xs := g.Expressions(n)
	return xs, g.Events(nev)
}

// ---------------------------------------------------------------- E1

func e1() Experiment {
	return Experiment{
		ID:    "E1",
		Title: "Headline throughput at maximum subscription count, all algorithms",
		Expect: "A-PCM sustains orders of magnitude more events/s than the " +
			"sequential baselines (paper: 233,863 vs 36 ev/s at 5M subscriptions)",
		Run: func(cfg Config) error {
			cfg.sanitize()
			n := cfg.n(20000, 200)
			xs, events := gen(baseParams(cfg.Seed), n, cfg.n(2000, 100))
			rows := References()
			rates, err := measureRows(rows, xs, events, cfg.MinMeasure)
			if err != nil {
				return err
			}
			t := NewTable(fmt.Sprintf("E1: throughput at %d subscriptions", n),
				"algorithm", "events/s", "speedup vs Scan")
			base := rates[0] // Scan
			for i, ref := range rows {
				speed := "1.0x"
				if base > 0 {
					speed = fmt.Sprintf("%.1fx", rates[i]/base)
				}
				t.AddRow(ref.Name, FormatRate(rates[i]), speed)
			}
			emit(cfg, t)
			return nil
		},
	}
}

// ---------------------------------------------------------------- E2

func e2() Experiment {
	return Experiment{
		ID:     "E2",
		Title:  "Throughput vs number of subscriptions",
		Expect: "every algorithm degrades as the database grows; the compressed matchers degrade slowest, so the gap widens with size",
		Run: func(cfg Config) error {
			cfg.sanitize()
			rows := References()
			t := NewTable("E2: throughput vs subscription count",
				append([]string{"subscriptions"}, rowHeaders(rows)...)...)
			for _, base := range []int{1000, 2000, 5000, 10000, 20000} {
				n := cfg.n(base, 100)
				xs, events := gen(baseParams(cfg.Seed), n, cfg.n(1500, 100))
				rates, err := measureRows(rows, xs, events, cfg.MinMeasure)
				if err != nil {
					return err
				}
				t.AddRow(append([]string{fmt.Sprintf("%d", n)}, formatRates(rates)...)...)
			}
			emit(cfg, t)
			return nil
		},
	}
}

// ---------------------------------------------------------------- E3

func e3() Experiment {
	return Experiment{
		ID:     "E3",
		Title:  "Throughput vs predicates per expression",
		Expect: "per-predicate algorithms (Scan, Counting) degrade linearly; compression amortises shared predicates so the compressed matchers flatten",
		Run: func(cfg Config) error {
			cfg.sanitize()
			rows := References()
			t := NewTable("E3: throughput vs predicates/expression",
				append([]string{"preds/expr"}, rowHeaders(rows)...)...)
			for _, k := range []int{3, 5, 7, 9, 12} {
				p := baseParams(cfg.Seed)
				p.PredsMin, p.PredsMax = k, k
				if p.EventAttrs < k+3 {
					p.EventAttrs = k + 3
				}
				xs, events := gen(p, cfg.n(8000, 100), cfg.n(1500, 100))
				rates, err := measureRows(rows, xs, events, cfg.MinMeasure)
				if err != nil {
					return err
				}
				t.AddRow(append([]string{fmt.Sprintf("%d", k)}, formatRates(rates)...)...)
			}
			emit(cfg, t)
			return nil
		},
	}
}

// ---------------------------------------------------------------- E4

func e4() Experiment {
	return Experiment{
		ID:     "E4",
		Title:  "Throughput vs space dimensionality",
		Expect: "low dimensionality concentrates predicates on few attributes (hard to partition); higher dimensionality improves pruning for the tree-based matchers",
		Run: func(cfg Config) error {
			cfg.sanitize()
			rows := References()
			t := NewTable("E4: throughput vs number of attributes",
				append([]string{"attributes"}, rowHeaders(rows)...)...)
			for _, d := range []int{50, 100, 200, 400, 800} {
				p := baseParams(cfg.Seed)
				p.NumAttrs = d
				xs, events := gen(p, cfg.n(8000, 100), cfg.n(1500, 100))
				rates, err := measureRows(rows, xs, events, cfg.MinMeasure)
				if err != nil {
					return err
				}
				t.AddRow(append([]string{fmt.Sprintf("%d", d)}, formatRates(rates)...)...)
			}
			emit(cfg, t)
			return nil
		},
	}
}

// ---------------------------------------------------------------- E5

func e5() Experiment {
	return Experiment{
		ID:     "E5",
		Title:  "Throughput vs match probability",
		Expect: "higher match rates cost every algorithm (more candidates survive); the compressed kernels keep their advantage across the range",
		Run: func(cfg Config) error {
			cfg.sanitize()
			rows := References()
			t := NewTable("E5: throughput vs planted match fraction",
				append([]string{"match frac"}, rowHeaders(rows)...)...)
			for _, mf := range []float64{0, 0.01, 0.05, 0.10, 0.25} {
				p := baseParams(cfg.Seed)
				p.MatchFraction = mf
				xs, events := gen(p, cfg.n(8000, 100), cfg.n(1500, 100))
				rates, err := measureRows(rows, xs, events, cfg.MinMeasure)
				if err != nil {
					return err
				}
				t.AddRow(append([]string{fmt.Sprintf("%.2f", mf)}, formatRates(rates)...)...)
			}
			emit(cfg, t)
			return nil
		},
	}
}

// ---------------------------------------------------------------- E6

func e6() Experiment {
	return Experiment{
		ID:     "E6",
		Title:  "Parallel scaling: Engine throughput vs worker count (A-PCM)",
		Expect: "inter-event batches (MatchBatchInto, 64 events) speed up with workers up to the host's cores; flat with one core",
		Run: func(cfg Config) error {
			cfg.sanitize()
			xs, events := gen(baseParams(cfg.Seed), cfg.n(15000, 200), cfg.n(2000, 100))
			t := NewTable("E6: throughput vs workers", "workers", "A-PCM ev/s", "A-PCM speedup")
			var base float64
			for _, w := range []int{1, 2, 4, 8} {
				e, err := buildEngine(cfg, w, xs)
				if err != nil {
					return err
				}
				r := engineThroughput(e, events, cfg.MinMeasure)
				e.Close()
				if w == 1 {
					base = r
				}
				t.AddRow(fmt.Sprintf("%d", w), FormatRate(r), fmt.Sprintf("%.2fx", safeDiv(r, base)))
			}
			emit(cfg, t)
			return nil
		},
	}
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// formatRates renders one events/s cell per rate.
func formatRates(rates []float64) []string {
	out := make([]string, len(rates))
	for i, r := range rates {
		out[i] = FormatRate(r)
	}
	return out
}

// ---------------------------------------------------------------- E7

func e7() Experiment {
	return Experiment{
		ID:     "E7",
		Title:  "Adaptivity: A-PCM vs always-compressed vs never-compressed across cluster redundancy",
		Expect: "PCM wins on redundant workloads, the uncompressed tree wins on heterogeneous selective ones; A-PCM tracks whichever is better",
		Run: func(cfg Config) error {
			cfg.sanitize()
			t := NewTable("E7: throughput vs predicate-pool redundancy",
				"pred pool", "BE-Tree-256 ev/s", "PCM ev/s", "A-PCM ev/s", "A-PCM vs best")
			type variant struct {
				label string
				pool  int
				card  int
			}
			variants := []variant{
				{"4 (max redundancy)", 4, 1000},
				{"16", 16, 1000},
				{"64", 64, 1000},
				{"none (heterogeneous)", 0, 100000},
			}
			for _, v := range variants {
				p := baseParams(cfg.Seed)
				p.PredPoolSize = v.pool
				p.Cardinality = v.card
				xs, events := gen(p, cfg.n(10000, 100), cfg.n(1500, 100))

				// Every row at the compressed default pool bound, so the
				// tree column is the uncompressed baseline of the same
				// clustering.
				var rates [3]float64
				for i, ref := range refs("BE-Tree", "PCM", "A-PCM") {
					var err error
					if _, rates[i], err = measureRow(ref, 256, xs, events, cfg.MinMeasure); err != nil {
						return err
					}
				}
				best := max(rates[0], rates[1])
				t.AddRow(v.label, FormatRate(rates[0]), FormatRate(rates[1]), FormatRate(rates[2]),
					fmt.Sprintf("%.2fx", safeDiv(rates[2], best)))
			}
			emit(cfg, t)
			return nil
		},
	}
}

// ---------------------------------------------------------------- E8

func e8() Experiment {
	return Experiment{
		ID:     "E8",
		Title:  "Online stream re-ordering: throughput vs window size",
		Expect: "throughput rises with the window (better cluster locality) and saturates; window 1 equals no re-ordering",
		Run: func(cfg Config) error {
			cfg.sanitize()
			p := baseParams(cfg.Seed)
			p.AttrZipf = 1.5 // skewed streams benefit most from re-ordering
			xs, events := gen(p, cfg.n(15000, 200), cfg.n(4000, 200))
			e, err := buildEngine(cfg, cfg.Workers, xs)
			if err != nil {
				return err
			}
			defer e.Close()
			t := NewTable("E8: throughput vs OSR window", "window", "A-PCM ev/s", "vs window 1")
			var base float64
			for _, w := range []int{1, 16, 64, 256, 1024} {
				ordered := reorderWindows(events, w)
				r := engineThroughput(e, ordered, cfg.MinMeasure)
				if w == 1 {
					base = r
				}
				t.AddRow(fmt.Sprintf("%d", w), FormatRate(r), fmt.Sprintf("%.2fx", safeDiv(r, base)))
			}
			emit(cfg, t)
			return nil
		},
	}
}

// reorderWindows applies OSR with the given window to a copy of events.
func reorderWindows(events []*expr.Event, window int) []*expr.Event {
	out := make([]*expr.Event, len(events))
	copy(out, events)
	if window <= 1 {
		return out
	}
	for off := 0; off < len(out); off += window {
		end := off + window
		if end > len(out) {
			end = len(out)
		}
		osr.Reorder(out[off:end])
	}
	return out
}

// ---------------------------------------------------------------- E9

func e9() Experiment {
	return Experiment{
		ID:     "E9",
		Title:  "Memory footprint and compression ratio vs subscription count",
		Expect: "the compressed index stays within a small constant of the tree baseline while replacing several predicate evaluations per dictionary entry",
		Run: func(cfg Config) error {
			cfg.sanitize()
			rows := References()
			headers := []string{"subscriptions"}
			for _, ref := range rows {
				headers = append(headers, ref.Name+" mem")
			}
			headers = append(headers, "A-PCM compression")
			t := NewTable("E9: memory footprint", headers...)
			for _, base := range []int{2000, 10000, 20000} {
				n := cfg.n(base, 100)
				xs, events := gen(baseParams(cfg.Seed), n, 200)
				row := []string{fmt.Sprintf("%d", n)}
				var ratio float64
				for _, ref := range rows {
					m, err := build(ref, 0, xs)
					if err != nil {
						return err
					}
					// Touch clusters so lazily compiled state is counted.
					newLoop(m).run(events)
					row = append(row, FormatBytes(m.(match.MemReporter).MemBytes()))
					if ref.Name == "A-PCM" {
						ratio = m.(*core.Matcher).Stats().CompressionRatio()
					}
				}
				row = append(row, fmt.Sprintf("%.1f preds/entry", ratio))
				t.AddRow(row...)
			}
			emit(cfg, t)
			return nil
		},
	}
}

// ---------------------------------------------------------------- E10

func e10() Experiment {
	return Experiment{
		ID:     "E10",
		Title:  "Inter-event batching: throughput vs batch size (A-PCM)",
		Expect: "larger batches amortise dispatch and locking; gains saturate once per-batch overhead is negligible",
		Run: func(cfg Config) error {
			cfg.sanitize()
			xs, events := gen(baseParams(cfg.Seed), cfg.n(15000, 200), cfg.n(2000, 100))
			e, err := buildEngine(cfg, cfg.Workers, xs)
			if err != nil {
				return err
			}
			defer e.Close()
			t := NewTable("E10: throughput vs batch size", "batch", "A-PCM ev/s", "vs batch 1")
			var base float64
			for _, b := range []int{1, 8, 64, 256, 1024} {
				r, _ := replay(events, b, cfg.MinMeasure, func(batch []*expr.Event) { e.MatchBatch(batch) })
				if b == 1 {
					base = r
				}
				t.AddRow(fmt.Sprintf("%d", b), FormatRate(r), fmt.Sprintf("%.2fx", safeDiv(r, base)))
			}
			emit(cfg, t)
			return nil
		},
	}
}

// ---------------------------------------------------------------- E11

func e11() Experiment {
	return Experiment{
		ID:     "E11",
		Title:  "Per-event match latency percentiles, all algorithms",
		Expect: "the compressed matchers shift the whole latency distribution down, including the tail",
		Run: func(cfg Config) error {
			cfg.sanitize()
			xs, events := gen(baseParams(cfg.Seed), cfg.n(15000, 200), cfg.n(1000, 100))
			t := NewTable("E11: per-event match latency",
				"algorithm", "p50", "p95", "p99", "max")
			for _, ref := range References() {
				m, err := build(ref, 0, xs)
				if err != nil {
					return err
				}
				l := newLoop(m)
				h := metrics.NewLatencyHistogram()
				deadline := time.Now().Add(cfg.MinMeasure)
				for i := 0; ; i++ {
					k := i % len(events)
					start := time.Now()
					l.run(events[k : k+1])
					h.ObserveDuration(time.Since(start))
					// Collect at least 30 samples even if one pass already
					// exceeds the deadline (slow baselines at large sizes).
					if time.Now().After(deadline) && i >= 30 {
						break
					}
				}
				t.AddRow(ref.Name,
					time.Duration(h.Quantile(0.50)).String(),
					time.Duration(h.Quantile(0.95)).String(),
					time.Duration(h.Quantile(0.99)).String(),
					time.Duration(h.Max()).String())
			}
			emit(cfg, t)
			return nil
		},
	}
}

// ---------------------------------------------------------------- E12

func e12() Experiment {
	return Experiment{
		ID:     "E12",
		Title:  "Update throughput: subscription insertions and deletions mid-stream",
		Expect: "lazy recompilation keeps compressed updates within a small factor of the tree baseline",
		Run: func(cfg Config) error {
			cfg.sanitize()
			n := cfg.n(10000, 200)
			churn := n / 5
			t := NewTable("E12: update throughput",
				"algorithm", "inserts/s", "deletes/s", "match ev/s during churn")
			for _, ref := range References() {
				p := baseParams(cfg.Seed)
				g := workload.MustNew(p)
				xs := g.Expressions(n + churn)
				events := g.Events(500)
				m, err := build(ref, 0, xs[:n])
				if err != nil {
					return err
				}

				start := time.Now()
				for _, x := range xs[n:] {
					if err := m.Insert(x); err != nil {
						return err
					}
				}
				insRate := float64(churn) / time.Since(start).Seconds()

				// Matching interleaved with churn: alternate one event with
				// one delete+reinsert pair.
				l := newLoop(m)
				const churnEvents = 200
				start = time.Now()
				for i := 0; i < churnEvents; i++ {
					k := i % len(events)
					l.run(events[k : k+1])
					x := xs[n+i%churn]
					m.Delete(x.ID)
					if err := m.Insert(x); err != nil {
						return err
					}
				}
				matchRate := churnEvents / time.Since(start).Seconds()

				start = time.Now()
				for _, x := range xs[n:] {
					if !m.Delete(x.ID) {
						return fmt.Errorf("%s: delete failed", ref.Name)
					}
				}
				delRate := float64(churn) / time.Since(start).Seconds()
				t.AddRow(ref.Name, FormatRate(insRate), FormatRate(delRate), FormatRate(matchRate))
			}
			emit(cfg, t)
			return nil
		},
	}
}

// ---------------------------------------------------------------- E13

func e13() Experiment {
	return Experiment{
		ID:     "E13",
		Title:  "Operator mix: throughput vs equality-predicate share",
		Expect: "equality-heavy subscriptions cluster and compress best; range-heavy mixes narrow the compressed advantage",
		Run: func(cfg Config) error {
			cfg.sanitize()
			rows := refs("BE-Tree", "PCM", "A-PCM")
			t := NewTable("E13: throughput vs % equality predicates",
				append([]string{"% equality"}, rowHeaders(rows)...)...)
			for _, eq := range []float64{1.0, 0.85, 0.6, 0.3} {
				p := baseParams(cfg.Seed)
				rest := 1 - eq
				p.WEquality = eq
				p.WRange = rest * 0.7
				p.WMembership = rest * 0.3
				xs, events := gen(p, cfg.n(10000, 100), cfg.n(1500, 100))
				rates, err := measureRows(rows, xs, events, cfg.MinMeasure)
				if err != nil {
					return err
				}
				t.AddRow(append([]string{fmt.Sprintf("%.0f%%", eq*100)}, formatRates(rates)...)...)
			}
			emit(cfg, t)
			return nil
		},
	}
}

// ---------------------------------------------------------------- E14

func e14() Experiment {
	return Experiment{
		ID:     "E14",
		Title:  "End-to-end broker rate over loopback TCP",
		Expect: "the system-level event rate (parse + match + deliver) stays within a small factor of the raw matcher rate",
		Run: func(cfg Config) error {
			cfg.sanitize()
			p := baseParams(cfg.Seed)
			g := workload.MustNew(p)
			n := cfg.n(10000, 200)
			xs := g.Expressions(n)
			events := g.Events(cfg.n(2000, 100))

			eng, err := apcm.New(apcm.Options{Workers: cfg.Workers})
			if err != nil {
				return err
			}
			defer eng.Close()
			// Seed the bulk of the subscription database directly; the
			// protocol path is exercised by the client's own subscriptions.
			// Direct ids live in a high range so they cannot collide with
			// the engine-allocated ids the broker assigns to client
			// subscriptions.
			for _, x := range xs[:n-50] {
				seed := &expr.Expression{ID: x.ID + 1<<40, Preds: x.Preds}
				if err := eng.Subscribe(seed); err != nil {
					return err
				}
			}
			eng.Prepare()

			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			srv := broker.NewServer(eng)
			srv.Logf = func(string, ...any) {}
			go srv.Serve(ln) //apcm:detached Serve returns on the deferred srv.Close()
			defer srv.Close()

			c, err := broker.Dial(ln.Addr().String())
			if err != nil {
				return err
			}
			defer c.Close()
			for i, x := range xs[n-50:] {
				sub := &expr.Expression{ID: expr.ID(i + 1), Preds: x.Preds}
				if err := c.Subscribe(sub, func(*expr.Event) {}); err != nil {
					return err
				}
			}
			// One broad subscription guarantees a steady delivery flow, so
			// the end-to-end path (match + frame + push) is exercised.
			broad := expr.MustNew(expr.ID(500), expr.Ge(0, 0))
			if err := c.Subscribe(broad, func(*expr.Event) {}); err != nil {
				return err
			}

			published := 0
			start := time.Now()
			for time.Since(start) < cfg.MinMeasure {
				for _, ev := range events {
					if err := c.Publish(ev); err != nil {
						return err
					}
					published++
				}
				// Barrier: an acknowledged request on the same connection
				// proves every prior publish was processed in order.
				if err := c.Unsubscribe(99999); err == nil {
					return fmt.Errorf("barrier unsubscribe unexpectedly succeeded")
				}
			}
			elapsed := time.Since(start).Seconds()

			srvPub, srvDel := srv.Stats()
			t := NewTable("E14: broker end-to-end over loopback",
				"metric", "value")
			t.AddRow("subscriptions", fmt.Sprintf("%d", eng.Len()))
			t.AddRow("events published", fmt.Sprintf("%d", published))
			t.AddRow("end-to-end events/s", FormatRate(float64(srvPub)/elapsed))
			t.AddRow("deliveries", fmt.Sprintf("%d", srvDel))
			emit(cfg, t)
			return nil
		},
	}
}
