package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/workload"
)

// sizing is everything about a run's size that is not part of a
// workload's definition. Full-size runs use fullSizing; the smoke test
// shrinks it.
type sizing struct {
	scale    float64       // multiplies subscription, pool and traced-event counts
	window   time.Duration // measured time in a run (--seconds)
	warmup   time.Duration // untimed, before every measured window
	setups   int           // set-ups per run; setup_s is their median
	workDir  string        // scratch directory inside the checkout
	traceDir string        // where a traced run writes trace-<workload>.json
}

func fullSizing(seconds int, workDir string) sizing {
	return sizing{scale: 1, window: time.Duration(seconds) * time.Second, warmup: 2 * time.Second, setups: 3, workDir: workDir, traceDir: "benchmark/out"}
}

func (sz sizing) count(n int) int {
	if c := int(float64(n) * sz.scale); c > 64 {
		return c
	}
	return 64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a run prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one workload run in progress: its inputs' seed, its size, the
// tracer (nil when untraced) and what it has measured so far.
type run struct {
	spec   *workloadSpec
	seed   int64
	sz     sizing
	tr     *tracer
	root   int32 // the run span
	traced bool

	// broker is what a traced broker run measured of the broker layer,
	// for the layer probes to report; zero on the engine workloads.
	broker brokerCosts

	attempted int64
	failed    int64
	metrics   map[string]metric
	order     []string
	notes     map[string]string // shown beside a metric: sample counts
	infos     []string
}

func (r *run) put(name string, v float64, unit string) {
	if _, dup := r.metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{v, unit}
}

// info records a value that is printed with the run but is not one of
// its metrics: how far the run can be trusted.
func (r *run) info(name string, v float64, unit string) {
	r.infos = append(r.infos, fmt.Sprintf("%-32s %16.4f %s", name, v, unit))
}

func (r *run) note(name, format string, args ...any) {
	r.notes[name] = fmt.Sprintf(format, args...)
}

// failf counts n failed operations and says why on standard error.
func (r *run) failf(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	fmt.Fprintf(os.Stderr, "benchmark: %s: %d failed: %s\n", r.spec.name, n, fmt.Sprintf(format, args...))
}

func (r *run) warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: warning: %s: %s\n", r.spec.name, fmt.Sprintf(format, args...))
}

func (r *run) report() report {
	return report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
}

// timeSetups runs build r.sz.setups times, tearing every build but the
// last down again, and returns the median build time in seconds. The
// heap is collected before each build so that one set-up's garbage is
// not charged to the next.
func (r *run) timeSetups(build func() error, teardown func()) (float64, error) {
	var secs []float64
	for i := 0; i < r.sz.setups; i++ {
		if i > 0 {
			teardown()
		}
		runtime.GC()
		start := time.Now()
		if err := build(); err != nil {
			return 0, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		end := time.Now()
		r.tr.add(spanSetup, r.root, -1, start, end)
		secs = append(secs, end.Sub(start).Seconds())
	}
	return median(secs), nil
}

// putEndToEnd records the end-to-end metrics of one measured window.
// cpu is the process CPU time spent over the closed-loop window closed,
// and lat the window the latency percentiles come from (the same window
// for the engine workloads, the open-loop one for the broker's).
func (r *run) putEndToEnd(setupS float64, closed, lat windowStats, cpu time.Duration) {
	r.put("setup_s", setupS, "s")
	r.put("events_per_s", closed.rate, "events/s")
	r.put("latency_p50_us", lat.p50/1e3, "us")
	r.note("latency_p50_us", "n=%d", lat.samples)
	if closed.events > 0 {
		r.put("cpu_ms_per_kevent", cpu.Seconds()*1e3/float64(closed.events)*1e3, "ms")
	}
	r.put("mem_mb", float64(peakRSSBytes())/1e6, "MB")
	r.info("slice spread", closed.sliceSpread, "ratio")
	r.info("latency p99", lat.p99/1e3, fmt.Sprintf("us  n=%d, fewest in a slice %d", lat.samples, lat.perSlice))
	r.info("latency p99.9", lat.p999/1e3, "us")
	if closed.sliceSpread > 0.25 {
		r.warnf("slice rates spread %.2f of their median (limit 0.25): the run was disturbed", closed.sliceSpread)
	}
}

// cpuTime returns the user+system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSBytes is the process's peak resident set (VmHWM). Each
// workload runs in a process of its own, so this is that workload's.
func peakRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports KiB
}

// heapInUse returns live heap bytes after a collection.
func heapInUse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// mallocs returns the cumulative allocation count and bytes.
func mallocs() (count, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

func newGenerator(seed int64) *workload.Generator {
	p := workload.Default()
	p.Seed = seed
	return workload.MustNew(p)
}

// oracleSamples is how many events every run checks against brute force.
const oracleSamples = 64

// sampleIndexes spreads oracleSamples indexes evenly over a pool of n.
func sampleIndexes(n int) []int {
	k := oracleSamples
	if k > n {
		k = n
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i * n / k
	}
	return idx
}

// bruteForce evaluates every subscription forEach yields against every
// event with Expression.MatchesEvent and returns each event's sorted
// matching ids: the oracle all four workloads are checked against.
func bruteForce(forEach func(func(*expr.Expression)), events []*expr.Event) [][]expr.ID {
	want := make([][]expr.ID, len(events))
	forEach(func(x *expr.Expression) {
		for i, ev := range events {
			if x.MatchesEvent(ev) {
				want[i] = append(want[i], x.ID)
			}
		}
	})
	for _, ids := range want {
		slices.Sort(ids)
	}
	return want
}

// sameIDs reports whether got, in any order, is exactly the sorted want.
func sameIDs(got, want []expr.ID) bool {
	got = slices.Clone(got)
	slices.Sort(got)
	return slices.Equal(got, want)
}

// checkOracle compares got against want event by event, counting every
// event as attempted and every difference as failed.
func (r *run) checkOracle(got, want [][]expr.ID) {
	var bad int64
	for i := range want {
		if i >= len(got) || !sameIDs(got[i], want[i]) {
			bad++
		}
	}
	r.attempted += int64(len(want))
	r.failf(bad, "of %d sampled events differ from brute-force matching", len(want))
}
