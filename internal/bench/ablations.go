package bench

import (
	"fmt"

	"github.com/streammatch/apcm"
)

// Ablations beyond the paper's figures: sweeps over the two design
// parameters DESIGN.md calls out — the adaptive probe cadence and the
// cluster (pool) size that trades tree pruning against compression.

func init() {
	register(e15())
	register(e16())
}

// ---------------------------------------------------------------- E15

func e15() Experiment {
	return Experiment{
		ID:     "E15",
		Title:  "Ablation: adaptive probe interval",
		Expect: "probing too often pays double-kernel tax; probing too rarely adapts slowly — a broad plateau in between (ours: beyond-paper ablation)",
		Run: func(cfg Config) error {
			cfg.sanitize()
			p := baseParams(cfg.Seed)
			xs, events := gen(p, cfg.n(15000, 200), cfg.n(2000, 100))
			t := NewTable("E15: A-PCM throughput vs probe interval",
				"probe interval", "A-PCM ev/s")
			for _, pi := range []int{2, 8, 32, 64, 256, 1024} {
				e, err := apcm.New(apcm.Options{Workers: cfg.Workers, ProbeInterval: pi})
				if err != nil {
					return err
				}
				for _, x := range xs {
					if err := e.Subscribe(x); err != nil {
						return err
					}
				}
				e.Prepare()
				r := engineThroughput(e, events, cfg.MinMeasure)
				e.Close()
				t.AddRow(fmt.Sprintf("%d", pi), FormatRate(r))
			}
			emit(cfg, t)
			return nil
		},
	}
}

// ---------------------------------------------------------------- E16

func e16() Experiment {
	return Experiment{
		ID:     "E16",
		Title:  "Ablation: cluster size (BE-Tree pool bound)",
		Expect: "small clusters prune better, large clusters compress better; the compressed matchers peak at mid-size clusters (ours: beyond-paper ablation)",
		Run: func(cfg Config) error {
			cfg.sanitize()
			p := baseParams(cfg.Seed)
			xs, events := gen(p, cfg.n(15000, 200), cfg.n(2000, 100))
			t := NewTable("E16: throughput vs cluster size",
				"cluster size", "BE-Tree ev/s", "PCM ev/s", "A-PCM ev/s")
			for _, size := range []int{32, 64, 128, 256, 512, 1024} {
				row := []string{fmt.Sprintf("%d", size)}
				for _, ref := range refs("BE-Tree", "PCM", "A-PCM") {
					_, r, err := measureRow(ref, size, xs, events, cfg.MinMeasure)
					if err != nil {
						return err
					}
					row = append(row, FormatRate(r))
				}
				t.AddRow(row...)
			}
			emit(cfg, t)
			return nil
		},
	}
}
