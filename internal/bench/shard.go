package bench

import (
	"fmt"
	"time"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/metrics"
	"github.com/streammatch/apcm/shard"
	"github.com/streammatch/apcm/workload"
)

// E19: the sharded matching tier (shard.Group) swept over subscription
// count × shard count. This is the scaling experiment behind DESIGN.md
// §10 and the README's scaling section; EXPERIMENTS.md E19 records a
// run.

func init() {
	register(e19())
}

// defaultShardCounts is the E19 shard-count axis when Config.Shards is
// unset.
var defaultShardCounts = []int{1, 2, 4, 8, 16}

// groupP99 measures single-event match latency over the group surface
// and returns the p99 in nanoseconds. Latency is measured on the
// single-event path — the one a broker publish takes — not the batch
// kernel the throughput numbers drive.
func groupP99(m *shard.Group, events []*expr.Event, minDur time.Duration) float64 {
	h := metrics.NewLatencyHistogram()
	var dst []expr.ID
	for _, ev := range events[:min(64, len(events))] { // warm
		dst = m.MatchAppend(dst[:0], ev)
	}
	start := time.Now()
	for i := 0; time.Since(start) < minDur || h.Count() < 256; i++ {
		ev := events[i%len(events)]
		t0 := time.Now()
		dst = m.MatchAppend(dst[:0], ev)
		h.ObserveDuration(time.Since(t0))
		if h.Count() >= 1<<20 {
			break
		}
	}
	return h.Quantile(0.99)
}

// occupancyImbalance is the max/avg per-shard subscription count of a
// group: 1.0 means hash routing spread the subscriptions evenly.
func occupancyImbalance(st shard.Stats) float64 {
	if st.Subscriptions == 0 {
		return 0
	}
	most := 0
	for _, ss := range st.PerShard {
		most = max(most, ss.Subscriptions)
	}
	return float64(most) * float64(len(st.PerShard)) / float64(st.Subscriptions)
}

// buildGroup streams nsubs workload expressions into a fresh group and
// precompiles it. Subscriptions are generated one at a time — never
// materialised as a slice — so the build's transient memory stays flat
// at multi-million counts (the index itself is the footprint).
func buildGroup(cfg Config, shards, nsubs int, p workload.Params) (*shard.Group, *workload.Generator, error) {
	g, err := workload.New(p)
	if err != nil {
		return nil, nil, err
	}
	grp, err := shard.New(shard.Options{Shards: shards, Workers: cfg.Workers, Metrics: cfg.Metrics})
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < nsubs; i++ {
		if err := grp.Subscribe(g.Expression()); err != nil {
			grp.Close()
			return nil, nil, err
		}
	}
	grp.Prepare()
	return grp, g, nil
}

// ---------------------------------------------------------------- E19

func e19() Experiment {
	return Experiment{
		ID:     "E19",
		Title:  "Sharded matching tier: subscriptions × shard count",
		Expect: "multi-shard groups overtake the 1-shard baseline as subscription count grows (per-shard indexes shrink and fan-out parallelises across cores); on a single core the win collapses to index-size effects and fan-out overhead (ours: beyond-paper scaling tier)",
		Run: func(cfg Config) error {
			cfg.sanitize()
			shardCounts := cfg.Shards
			if len(shardCounts) == 0 {
				shardCounts = defaultShardCounts
			}
			// At -scale 50 the size axis reaches the target sweep:
			// 100k, 500k, 1M, 2.5M and 5M subscriptions.
			sizes := []int{
				cfg.n(2000, 200),
				cfg.n(10000, 400),
				cfg.n(20000, 600),
				cfg.n(50000, 800),
				cfg.n(100000, 1000),
			}
			p := baseParams(cfg.Seed)
			// Bound the plant reservoir so event generation is O(1) in
			// subscription count (same default as cmd/apcm-gen).
			p.PlantPoolSize = 65536

			t := NewTable("E19: shard.Group match throughput, subscriptions × shards",
				"subs", "shards", "events/s", "p99 µs", "vs 1 shard", "occupancy max/avg")
			for _, nsubs := range sizes {
				nev := cfg.n(2000, 200)
				if nev > nsubs {
					nev = nsubs
				}
				var base float64
				for _, sc := range shardCounts {
					grp, g, err := buildGroup(cfg, sc, nsubs, p)
					if err != nil {
						return fmt.Errorf("E19 %d subs × %d shards: %w", nsubs, sc, err)
					}
					events := g.Events(nev)
					var r apcm.BatchResult
					rate, _ := replay(events, 256, cfg.MinMeasure, func(b []*expr.Event) { grp.MatchBatchInto(b, &r) })
					p99 := groupP99(grp, events, cfg.MinMeasure/4)
					occ := occupancyImbalance(grp.Stats())
					grp.Close()
					if sc == shardCounts[0] {
						base = rate
					}
					speedup := "-"
					if base > 0 {
						speedup = fmt.Sprintf("%.2fx", rate/base)
					}
					t.AddRow(fmt.Sprintf("%d", nsubs), fmt.Sprintf("%d", sc),
						FormatRate(rate), fmt.Sprintf("%.1f", p99/1e3),
						speedup, fmt.Sprintf("%.2f", occ))
				}
			}
			emit(cfg, t)
			return nil
		},
	}
}
