package main

import (
	"math"
	"math/rand"
	"regexp"
	"runtime"
	"sort"
	"testing"
	"time"
)

// TestSmoke runs every workload, measured and traced, at a hundredth of
// its size and checks that the run is correct and that it emits exactly
// the metrics BENCHMARK.json declares, with their declared units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	validName := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	dir := t.TempDir()
	sz := sizing{scale: 0.01, window: 300 * time.Millisecond, warmup: 50 * time.Millisecond, setups: 1, workDir: dir, traceDir: dir}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, spec.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			declared := spec.EndToEnd
			if traced {
				declared = spec.PerLayer
			}
			r, err := execute(w, 1, sz, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if rep := r.report(); !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(r.metrics) != len(declared) || len(r.order) != len(declared) {
				t.Errorf("%s traced=%v: %d metrics emitted (%v), %d declared", w.name, traced, len(r.metrics), r.order, len(declared))
			}
			for _, m := range declared {
				got, ok := r.metrics[m.Name]
				switch {
				case !validName.MatchString(m.Name):
					t.Errorf("metric name %q is not a valid name", m.Name)
				case !ok:
					t.Errorf("%s traced=%v: %s not emitted", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", w.name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s = %v is not finite", w.name, m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestHistQuantileError checks the histogram's percentiles against the
// exact ones of the same samples.
func TestHistQuantileError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	exact := make([]float64, 200_000)
	for i := range exact {
		ns := int64(math.Exp(rng.NormFloat64()*1.5 + 10)) // log-normal around 22 µs
		exact[i] = float64(ns)
		h.add(ns)
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		want := exact[int(q*float64(len(exact)))]
		got := h.quantile(q)
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("q=%v: histogram %v, exact %v: off by more than 1 %%", q, got, want)
		}
	}
	for _, ns := range []int64{0, 1, 127, 128, 255, 256, 1000, 1 << 20, 1<<40 - 1, 1 << 50} {
		i := histIndex(ns)
		if i < 0 || i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d out of range", ns, i)
		}
		if low, width := histBounds(i); ns < 1<<histMaxBits && (float64(ns) < low || float64(ns) >= low+width) {
			t.Errorf("sample %d landed in bucket %d = [%v, %v)", ns, i, low, low+width)
		}
	}
}

// TestMedianOfSlices checks that one disturbed slice moves neither the
// rate nor the percentiles.
func TestMedianOfSlices(t *testing.T) {
	w := newSlicer(0, 5*1000)
	now := time.Unix(0, 0)
	w.begin(now)
	for slice := 0; slice < nSlices; slice++ {
		lat := int64(10_000)
		if slice == 2 {
			lat = 90_000 // the disturbed slice: nine times slower
		}
		for i := 0; i < 1000; i++ {
			now = now.Add(time.Duration(lat))
			if more := w.add(now, lat, 1); more != (slice < nSlices-1 || i < 999) {
				t.Fatalf("slice %d sample %d: add reported more=%v", slice, i, more)
			}
		}
	}
	if w.i != nSlices {
		t.Fatal("slicer not done after its last slice")
	}
	st := w.stats()
	if st.events != 5000 || st.samples != 5000 || st.perSlice != 1000 {
		t.Errorf("events %d samples %d fewest %d, want 5000 5000 1000", st.events, st.samples, st.perSlice)
	}
	if math.Abs(st.rate-100_000)/100_000 > 0.001 {
		t.Errorf("rate %v, want the undisturbed 100000/s", st.rate)
	}
	if math.Abs(st.p50-10_000)/10_000 > 0.01 || math.Abs(st.p99-10_000)/10_000 > 0.01 {
		t.Errorf("p50 %v p99 %v, want the undisturbed 10000 ns", st.p50, st.p99)
	}
	if want := (100_000 - 100_000/9.0) / 100_000; math.Abs(st.sliceSpread-want) > 0.001 {
		t.Errorf("slice spread %v, want %v", st.sliceSpread, want)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

// TestQuartileSpread pins the spread to Python's
// statistics.quantiles(values, n=4), which the acceptance check uses.
func TestQuartileSpread(t *testing.T) {
	vs := []float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9} // quartiles 2.75, 5.5, 8.25
	if got := quartileSpread(vs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread %v, want 1", got)
	}
	if got := quartileSpread([]float64{3, 5}); math.Abs(got-(5.5-2.5)/4) > 1e-12 { // quartiles 2.5, 4, 5.5
		t.Errorf("spread of two %v, want 0.75", got)
	}
}
