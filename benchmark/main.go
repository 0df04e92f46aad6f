// Command benchmark is the repository's benchmark: four workloads, the
// end-to-end metrics a user of the engine or the broker would see, and a
// traced run that times each layer from outside. BENCHMARK.json at the
// repository root names the workloads, the metrics and their bounds;
// README.md beside this file says why each was chosen.
//
//	benchmark --workload engine_match --seed 1 --seconds 20 --trace 0
//
// runs one workload in this process and prints its metrics, the last
// line as one JSON object. Without --workload it runs every workload,
// measured and traced, each in a child process of its own; -selfcheck
// does that twice and compares the two; -compare prints two saved
// outputs side by side.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// workloadSpec is a workload's definition. The sizes and rates are
// frozen: they are part of what the metrics mean. README.md records how
// they were calibrated.
type workloadSpec struct {
	name string
	subs int // subscriptions registered at set-up
	pool int // distinct events, published or matched cyclically
	// tracedEvents is the length of a traced run's closed-loop passes: a
	// count, not a time, so that counts repeat exactly.
	tracedEvents int
	broker       bool
	durable      bool
	openRate     float64 // broker: the open-loop phase's rate, events/s
	run          func(*run) error
}

var workloads = []*workloadSpec{
	{name: "engine_match", subs: 250_000, pool: 50_000, tracedEvents: 100_000, run: runEngineMatch},
	{name: "engine_churn", subs: 250_000, pool: 50_000, tracedEvents: 400 * churnBatch, run: runEngineChurn},
	{name: "broker_volatile", subs: 30_000, pool: 16_384, tracedEvents: 100_000, broker: true, openRate: 15_000, run: runBroker},
	{name: "broker_durable", subs: 30_000, pool: 16_384, tracedEvents: 20_000, broker: true, durable: true, openRate: 600, run: runBroker},
}

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// maxProcs is the GOMAXPROCS every run is pinned to: the workloads are
// defined for two cores (one engine caller; two broker connections).
func maxProcs() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// execute runs one workload in this process.
func execute(spec *workloadSpec, seed int64, sz sizing, traced bool) (*run, error) {
	runtime.GOMAXPROCS(maxProcs())
	if traced {
		sz.setups = 1 // setup_s is not a traced run's to report
	}
	if err := os.MkdirAll(sz.workDir, 0o755); err != nil {
		return nil, err
	}
	r := &run{spec: spec, seed: seed, sz: sz, traced: traced, root: -1,
		metrics: make(map[string]metric), notes: make(map[string]string)}
	if traced {
		r.tr = newTracer()
		r.root = r.tr.open(spanRun, -1, spec.name)
	}
	if err := spec.run(r); err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	if traced {
		r.tr.close(r.root)
		if err := r.writeTrace(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// print writes the run's metrics as a table and then, as the last line,
// the JSON object the driver reads.
func (r *run) print() error {
	fmt.Printf("workload %s  seed %d  GOMAXPROCS %d  %s  traced %v\n", r.spec.name, r.seed, runtime.GOMAXPROCS(0), runtime.Version(), r.traced)
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Printf("  %-32s %16.4f %-9s %s\n", name, m.Value, m.Unit, r.notes[name])
	}
	for _, line := range r.infos {
		fmt.Printf("  (%s)\n", line)
	}
	rep := r.report()
	fmt.Printf("  attempted %d  failed %d  fail_ratio %g\n", rep.Attempted, rep.Failed, float64(rep.Failed)/float64(rep.Attempted))
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", line)
	return err
}

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	workDir   string
	selfcheck bool
	runs      int
	compare   bool
	out       string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1: the traced run (per-layer metrics); 0: the measured run (end-to-end metrics)")
	flag.StringVar(&o.workDir, "dir", ".bench_build/run", "scratch directory, inside the checkout")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run every workload twice over and fail if two same-code sets differ by more than a bound")
	flag.IntVar(&o.runs, "runs", 1, "with -selfcheck or no -workload: runs per workload and set, reported as their median")
	flag.BoolVar(&o.compare, "compare", false, "print two saved outputs (-out) side by side: -compare a.json b.json")
	flag.StringVar(&o.out, "out", "", "with no -workload: also save the medians as JSON here")
	flag.Parse()
	if err := dispatch(o, flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

func dispatch(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two files")
		}
		return compareFiles(args[0], args[1])
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = spec.RunSeconds
	}
	if o.workload == "" {
		d := &driver{spec: spec, seed: o.seed, seconds: o.seconds, runs: o.runs}
		if o.selfcheck {
			return d.selfcheck()
		}
		return d.all(o.out)
	}
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	start := time.Now()
	r, err := execute(w, o.seed, fullSizing(o.seconds, o.workDir), o.trace != 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s took %.1f s in all\n", w.name, time.Since(start).Seconds())
	if err := r.print(); err != nil {
		return err
	}
	if r.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", w.name, r.failed, r.attempted)
	}
	return nil
}
