package bench

import (
	"fmt"

	"github.com/streammatch/apcm/internal/core"
)

// E18: density-adaptive layout ablation. The canonical workload compiles
// overwhelmingly sparse postings (most dictionary entries hold a handful
// of members out of a 384-slot cluster), which is exactly the regime the
// hybrid layout and the flat equality tables target. Each lever is
// switched off in turn, then both together (the dense layout), and the same sweep is repeated on a
// redundant pool (E7's max-redundancy regime) where postings are dense —
// the no-regression check that dense workloads lose nothing.

func init() {
	register(e18())
}

func e18() Experiment {
	return Experiment{
		ID:     "E18",
		Title:  "Ablation: posting density × flat equality tables",
		Expect: "on the sparse canonical workload each lever contributes and all-off is slowest; on the dense redundant regime the variants tie within noise (ours: beyond-paper ablation)",
		Run: func(cfg Config) error {
			cfg.sanitize()
			variants := refs("A-PCM", "A-PCM no-hybrid", "A-PCM no-flateq", "A-PCM all-off")
			type regime struct {
				label string
				pool  int
			}
			regimes := []regime{
				{"canonical (sparse)", 0},
				{"redundant pool=4 (dense)", 4},
			}
			t := NewTable("E18: A-PCM throughput vs layout levers and posting density",
				"regime", "variant", "A-PCM ev/s", "vs all-off", "sparse/dense postings", "flat-eq tables")
			for _, rg := range regimes {
				p := baseParams(cfg.Seed)
				p.PredPoolSize = rg.pool
				xs, events := gen(p, cfg.n(15000, 200), cfg.n(2000, 100))
				rates := make([]float64, len(variants))
				layouts := make([]string, len(variants))
				tables := make([]int, len(variants))
				for i, ref := range variants {
					m, r, err := measureRow(ref, 0, xs, events, cfg.MinMeasure)
					if err != nil {
						return err
					}
					rates[i] = r
					st := m.(*core.Matcher).Stats()
					layouts[i] = fmt.Sprintf("%d/%d", st.SparsePostings, st.DensePostings)
					tables[i] = st.EqFlatTables
				}
				base := rates[len(rates)-1] // all-off
				for i, ref := range variants {
					t.AddRow(rg.label, ref.Name, FormatRate(rates[i]),
						fmt.Sprintf("%.2fx", safeDiv(rates[i], base)),
						layouts[i], fmt.Sprintf("%d", tables[i]))
				}
			}
			emit(cfg, t)
			return nil
		},
	}
}
