// Package bench is the experiment harness: every table and figure of
// the evaluation (E1–E14, see DESIGN.md §4) plus the beyond-paper
// ablations and scaling runs (E15–E20) is a named, runnable experiment
// that regenerates the corresponding rows/series. cmd/apcm-bench is a
// thin wrapper over this package.
//
// Comparison tables (A-PCM against its baselines and ablation variants)
// are built from References and measured by one sequential loop;
// experiments whose subject is the Engine itself (its worker scaling,
// batching, OSR window, broker, sharding and restore) drive
// apcm.Engine. The probe-interval sweep (E15) is a comparison row with
// its core.Config adjusted, like the cluster-size sweep (E16).
//
// Sizes are expressed at Scale=1 (seconds-per-experiment on a laptop)
// and multiply with Config.Scale; the paper's absolute sizes (millions
// of subscriptions) are reached with large scales. The reproduction
// target is the shape of each curve, not the authors' absolute numbers.
package bench

import (
	"io"
	"sort"
	"time"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/metrics"
	"github.com/streammatch/apcm/workload"
)

// Config parameterises an experiment run.
type Config struct {
	// Out receives the experiment's table.
	Out io.Writer
	// Scale multiplies workload sizes; 1.0 is the CI-friendly default.
	Scale float64
	// Workers is the engine worker count (0 = GOMAXPROCS).
	Workers int
	// Seed drives workload generation.
	Seed int64
	// MinMeasure is the minimum wall-clock time spent per data point.
	MinMeasure time.Duration
	// CSV emits tables as CSV instead of aligned text.
	CSV bool
	// Shards is the shard-count axis of the sharding sweep (E19).
	// Nil/empty means the default {1, 2, 4, 8, 16}.
	Shards []int
	// Metrics, when non-nil, is attached to every engine the experiments
	// build, so a live scrape endpoint can watch a long run.
	Metrics *metrics.Registry
}

// emit renders a finished table according to the configured format.
func emit(cfg Config, t *Table) {
	if cfg.CSV {
		t.FprintCSV(cfg.Out)
		return
	}
	t.Fprint(cfg.Out)
}

func (c *Config) sanitize() {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MinMeasure <= 0 {
		c.MinMeasure = 200 * time.Millisecond
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
}

// n scales a base count, with a floor of lo.
func (c *Config) n(base, lo int) int {
	v := int(float64(base) * c.Scale)
	if v < lo {
		v = lo
	}
	return v
}

// Experiment is one reproducible table/figure.
type Experiment struct {
	// ID is the experiment key from DESIGN.md (E1..E14).
	ID string
	// Title is the figure/table caption.
	Title string
	// Expect summarises the shape the paper's evaluation reports, which
	// EXPERIMENTS.md compares against.
	Expect string
	// Run executes the experiment and writes its table to cfg.Out.
	Run func(cfg Config) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every experiment in numeric id order (E1, E2, ... E20),
// regardless of registration order across files.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return expNum(out[i].ID) < expNum(out[j].ID) })
	return out
}

func expNum(id string) int {
	n := 0
	for i := 1; i < len(id); i++ {
		n = n*10 + int(id[i]-'0')
	}
	return n
}

// Get returns the experiment with the given id.
func Get(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// baseParams is the canonical workload from DESIGN.md §4.
func baseParams(seed int64) workload.Params {
	p := workload.Default()
	p.Seed = seed
	return p
}

// buildEngine subscribes xs into a fresh engine (instrumented with
// cfg.Metrics when set) and precompiles it.
func buildEngine(cfg Config, workers int, xs []*expr.Expression) (*apcm.Engine, error) {
	e, err := apcm.New(apcm.Options{Workers: workers, Metrics: cfg.Metrics})
	if err != nil {
		return nil, err
	}
	for _, x := range xs {
		if err := e.Subscribe(x); err != nil {
			e.Close()
			return nil, err
		}
	}
	e.Prepare()
	return e, nil
}

// replay feeds events to match in batches of the given size, cycling
// through them after one warm-up pass (compile clusters, settle adaptive
// estimates) until at least minDur has elapsed. It returns the sustained
// events/second and the number of events matched in the timed window.
func replay(events []*expr.Event, batch int, minDur time.Duration, match func([]*expr.Event)) (float64, int) {
	match(events[:min(len(events), 2*batch)])
	start := time.Now()
	n := 0
	for time.Since(start) < minDur {
		for off := 0; off < len(events); off += batch {
			end := min(off+batch, len(events))
			match(events[off:end])
			n += end - off
			if n >= batch && time.Since(start) >= minDur {
				break
			}
		}
	}
	sec := time.Since(start).Seconds()
	if sec <= 0 {
		return 0, n
	}
	return float64(n) / sec, n
}

// engineThroughput measures an Engine's sustained events/second in
// batches of 64 through the zero-copy MatchBatchInto path with a reused
// result, so the number reflects the kernel, not result-slice churn.
func engineThroughput(e *apcm.Engine, events []*expr.Event, minDur time.Duration) float64 {
	var r apcm.BatchResult
	rate, _ := replay(events, 64, minDur, func(b []*expr.Event) { e.MatchBatchInto(b, &r) })
	return rate
}
