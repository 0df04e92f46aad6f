package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// metricSpec and benchSpec mirror BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// exactCounts are the per-layer metrics that depend on the seed alone
// and so must repeat exactly between two traced runs of one seed.
var exactCounts = []string{"apcm.matches_per_event", "broker.deliveries_per_event", "commitlog.bytes_per_record"}

// results holds one set of runs: workload → metric → its value in each
// run; units holds every metric's unit.
type results struct {
	values map[string]map[string][]float64
	units  map[string]string
}

// saved is what -out writes and -compare reads: workload → metric →
// median and unit.
type saved map[string]map[string]metric

func (rs *results) medians() saved {
	out := make(saved)
	for w, ms := range rs.values {
		out[w] = make(map[string]metric)
		for name, vs := range ms {
			out[w][name] = metric{median(vs), rs.units[name]}
		}
	}
	return out
}

// quartileSpread is the distance between the first and third quartile of
// vs as a share of their median, with the quartiles Python's
// statistics.quantiles(vs, n=4) gives (the exclusive method). It needs
// two values.
func quartileSpread(vs []float64) float64 {
	n := len(vs)
	if n < 2 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // outside [0, 4] at the ends: extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (q(3) - q(1)) / median(s)
}

// driver runs workloads in child processes: each gets a heap and a peak
// RSS of its own.
type driver struct {
	spec    *benchSpec
	seed    int64
	seconds int
	runs    int
}

func (d *driver) child(workload string, seed int64, traced int) (report, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(d.seconds), "--trace", strconv.Itoa(traced))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return report{}, fmt.Errorf("%s: no result (%v): %w", workload, runErr, err)
	}
	if runErr != nil || !rep.Correct {
		return rep, fmt.Errorf("%s seed %d: incorrect run: %d of %d operations failed (%v)", workload, seed, rep.Failed, rep.Attempted, runErr)
	}
	return rep, nil
}

// set runs every workload d.runs times measured, each run on another
// seed from firstSeed on, and once traced on d.seed.
func (d *driver) set(label string, firstSeed int64) (*results, error) {
	rs := &results{values: make(map[string]map[string][]float64), units: make(map[string]string)}
	record := func(w string, rep report) {
		for name, m := range rep.Metrics {
			rs.values[w][name] = append(rs.values[w][name], m.Value)
			rs.units[name] = m.Unit
		}
	}
	for _, w := range workloads {
		rs.values[w.name] = make(map[string][]float64)
		for i := 0; i < d.runs; i++ {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %s run %d of %d\n", label, w.name, i+1, d.runs)
			rep, err := d.child(w.name, firstSeed+int64(i), 0)
			if err != nil {
				return nil, err
			}
			record(w.name, rep)
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s traced\n", label, w.name)
		rep, err := d.child(w.name, d.seed, 1)
		if err != nil {
			return nil, err
		}
		record(w.name, rep)
	}
	return rs, nil
}

// all runs one set and prints every metric of every workload.
func (d *driver) all(out string) error {
	rs, err := d.set("set", d.seed)
	if err != nil {
		return err
	}
	med := rs.medians()
	for _, w := range workloads {
		fmt.Printf("%s\n", w.name)
		for _, m := range append(append([]metricSpec(nil), d.spec.EndToEnd...), d.spec.PerLayer...) {
			v, ok := med[w.name][m.Name]
			if !ok {
				return fmt.Errorf("%s did not report %s", w.name, m.Name)
			}
			line := fmt.Sprintf("  %-32s %16.4f %-9s", m.Name, v.Value, v.Unit)
			if sp := quartileSpread(rs.values[w.name][m.Name]); !math.IsNaN(sp) {
				line += fmt.Sprintf(" spread %.4f", sp)
			}
			fmt.Println(line)
		}
	}
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(med, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

// selfcheck runs two sets of the same code back to back and fails,
// naming metric and workload, if an end-to-end median differs between
// them by more than the metric's bound, if a run-to-run spread exceeds
// it, if a set-up took under a second, or if a count that should repeat
// exactly did not.
func (d *driver) selfcheck() error {
	a, err := d.set("first set", d.seed)
	if err != nil {
		return err
	}
	b, err := d.set("second set", d.seed+int64(d.runs))
	if err != nil {
		return err
	}
	ma, mb := a.medians(), b.medians()
	var problems []string
	for _, w := range workloads {
		fmt.Printf("%s\n", w.name)
		for _, m := range d.spec.EndToEnd {
			va, vb := ma[w.name][m.Name].Value, mb[w.name][m.Name].Value
			diff := math.Abs(vb-va) / va
			line := fmt.Sprintf("  %-20s %14.4f %14.4f %-9s second/first %.4f  bound %.2f", m.Name, va, vb, m.Unit, vb/va, m.Bound)
			if diff > m.Bound {
				problems = append(problems, fmt.Sprintf("%s on %s: medians %.4g and %.4g differ by %.1f %%, bound %.0f %%", m.Name, w.name, va, vb, diff*100, m.Bound*100))
			}
			for _, rs := range []*results{a, b} {
				sp := quartileSpread(rs.values[w.name][m.Name])
				if math.IsNaN(sp) {
					continue
				}
				line += fmt.Sprintf("  spread %.4f", sp)
				if sp > m.Bound && m.Name != "setup_s" {
					problems = append(problems, fmt.Sprintf("%s on %s: spread %.1f %% of the median, bound %.0f %%", m.Name, w.name, sp*100, m.Bound*100))
				}
			}
			fmt.Println(line)
			if m.Name == "setup_s" && math.Min(va, vb) < 1 {
				problems = append(problems, fmt.Sprintf("setup_s on %s is %.3f s, under 1 s", w.name, math.Min(va, vb)))
			}
		}
		for _, name := range exactCounts {
			if va, vb := ma[w.name][name].Value, mb[w.name][name].Value; va != vb {
				problems = append(problems, fmt.Sprintf("%s on %s: %v then %v on one seed; it should repeat exactly", name, w.name, va, vb))
			}
		}
	}
	for _, p := range problems {
		fmt.Printf("FAIL %s\n", p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("selfcheck: %d problems", len(problems))
	}
	fmt.Println("selfcheck: two sets of the same code agree within every bound")
	return nil
}

// compareFiles prints two saved outputs side by side, every ratio beside
// its base.
func compareFiles(basePath, newPath string) error {
	load := func(path string) (saved, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var s saved
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return s, nil
	}
	base, err := load(basePath)
	if err != nil {
		return err
	}
	other, err := load(newPath)
	if err != nil {
		return err
	}
	for _, w := range workloads {
		fmt.Printf("%s\n", w.name)
		names := make([]string, 0, len(base[w.name]))
		for name := range base[w.name] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			b := base[w.name][name]
			o, ok := other[w.name][name]
			if !ok {
				fmt.Printf("  %-32s %16.4f %-9s (absent from %s)\n", name, b.Value, b.Unit, newPath)
				continue
			}
			fmt.Printf("  %-32s %16.4f -> %16.4f %-9s ratio %.4f of base %.4f\n", name, b.Value, o.Value, b.Unit, o.Value/b.Value, b.Value)
		}
	}
	return nil
}
