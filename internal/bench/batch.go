package bench

import (
	"fmt"

	"github.com/streammatch/apcm/internal/core"
	"github.com/streammatch/apcm/internal/osr"
)

// E17: the batch-vectorized match path. Sweeps batch size with
// cross-event memoization enabled and disabled over a value/attribute
// skewed workload (skew is what makes adjacent, locality-ordered events
// repeat predicate evaluations — the memo's food supply), and reports
// the memo, eligibility-cache and dedup hit ratios alongside throughput.

func init() {
	register(e17())
}

func e17() Experiment {
	return Experiment{
		ID:     "E17",
		Title:  "Ablation: batch size × cross-event memoization",
		Expect: "with memoization on, throughput climbs with batch size as memo/eligibility hit ratios rise; with it off the curve stays flat — batching alone only saves lock traffic (ours: beyond-paper ablation)",
		Run: func(cfg Config) error {
			cfg.sanitize()
			p := baseParams(cfg.Seed)
			p.AttrZipf = 1.2
			p.ValueZipf = 1.5
			// Range-heavy mix: equality predicates resolve through the
			// clusters' equality-union hash and never reach the memo, so
			// the ablation is only informative when the distinct-predicate
			// loop it short-circuits carries real weight.
			p.WEquality = 0.30
			p.WRange = 0.60
			xs, events := gen(p, cfg.n(15000, 200), cfg.n(4096, 256))
			// Locality order, as the OSR window would deliver them.
			osr.Reorder(events)
			t := NewTable("E17: A-PCM batch throughput vs batch size and memoization",
				"batch", "memo ev/s", "no-memo ev/s", "memo hit%", "elig hit%", "dedup%")
			for _, batch := range []int{1, 16, 64, 256, 1024} {
				var rates [2]float64
				var memoPct, eligPct, dedupPct float64
				for i, ref := range refs("A-PCM", "A-PCM no-memo") {
					m, err := build(ref, 0, xs)
					if err != nil {
						return err
					}
					rate, n := replay(events, batch, cfg.MinMeasure, newLoop(m).run)
					rates[i] = rate
					if i == 0 {
						memoHits, memoLookups, eligHits, eligLookups, dedups := m.(*core.Matcher).BatchCounters()
						memoPct = 100 * safeDiv(float64(memoHits), float64(memoLookups))
						eligPct = 100 * safeDiv(float64(eligHits), float64(eligLookups))
						dedupPct = 100 * safeDiv(float64(dedups), float64(n))
					}
				}
				t.AddRow(fmt.Sprintf("%d", batch),
					FormatRate(rates[0]), FormatRate(rates[1]),
					fmt.Sprintf("%.1f", memoPct), fmt.Sprintf("%.1f", eligPct),
					fmt.Sprintf("%.2f", dedupPct))
			}
			emit(cfg, t)
			return nil
		},
	}
}
