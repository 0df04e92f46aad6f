package metrics

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("c", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("g", "a gauge")
	g.Add(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
	// Re-registration returns the same instrument.
	if r.Counter("c", "") != c || r.Gauge("g", "") != g {
		t.Fatal("re-registration returned a different instrument")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "")
	r.GaugeFunc("f", "", func() float64 { panic("must not be called") })
	c.Inc()
	c.Add(3)
	g.Add(1)
	h.Observe(5)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil instruments returned non-zero values")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot not nil")
	}
	r.StartLogger(time.Millisecond, nil)()
}

// TestHistogramMatchesStats checks the histogram against exact order
// statistics of the same samples. Every sample is at or above the base,
// so each quantile estimate is the upper edge of the bucket holding the
// exact quantile: never below it, and at most one growth factor (1.09)
// above it. Count, mean and max are exact.
func TestHistogramMatchesStats(t *testing.T) {
	h := NewLatencyHistogram()
	rng := rand.New(rand.NewSource(42))
	samples := make([]float64, 20000)
	var sum float64
	for i := range samples {
		// Log-uniform over ~6 decades, the shape of real latency data.
		x := math.Floor(100 * math.Exp(rng.Float64()*math.Log(1e6)))
		samples[i] = x
		sum += x
		h.Observe(x)
	}
	sort.Float64s(samples)
	if h.Count() != int64(len(samples)) {
		t.Fatalf("count %d, want %d", h.Count(), len(samples))
	}
	if want := sum / float64(len(samples)); h.Mean() != want {
		t.Fatalf("mean %v, want %v", h.Mean(), want)
	}
	if want := samples[len(samples)-1]; h.Max() != want {
		t.Fatalf("max %v, want %v", h.Max(), want)
	}
	for _, q := range []float64{0.001, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		rank := int(math.Ceil(q * float64(len(samples))))
		exact := samples[rank-1]
		if got := h.Quantile(q); got < exact || got > 1.09*exact {
			t.Fatalf("q%v: %v, want within [%v, %v]", q, got, exact, 1.09*exact)
		}
	}
}

func TestHistogramEdges(t *testing.T) {
	h := NewLatencyHistogram()
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
	h.Observe(1) // below base
	if q := h.Quantile(0.5); q != 100 {
		t.Fatalf("under-base quantile = %f, want base", q)
	}
	h.Observe(1e18) // beyond last bucket: clamps
	if h.Quantile(1.0) <= 0 {
		t.Fatal("clamped quantile should be positive")
	}
	if h.Quantile(-1) != h.Quantile(0) {
		t.Fatal("q<0 should clamp to 0")
	}
	_ = h.Quantile(2) // must not panic
}

func TestHistogramInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram(0, 2, 10)
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewLatencyHistogram()
	var wg sync.WaitGroup
	const workers, per = 8, 5000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(100 + (w*per+i)%100000))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { // concurrent reader
		defer close(done)
		for i := 0; i < 100; i++ {
			h.Quantile(0.99)
			h.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
}

func TestSnapshotAndFuncs(t *testing.T) {
	r := New()
	r.Counter("reqs", "requests").Add(7)
	r.GaugeFunc("depth", "queue depth", func() float64 { return 3 })
	r.CounterFunc("drops", "drops", func() float64 { return 2 })
	r.Histogram("lat_ns", "latency").Observe(1000)
	snap := r.Snapshot()
	byName := map[string]Value{}
	for _, v := range snap {
		byName[v.Name] = v
	}
	if byName["reqs"].Value != 7 || byName["depth"].Value != 3 || byName["drops"].Value != 2 {
		t.Fatalf("snapshot values wrong: %+v", byName)
	}
	if byName["lat_ns"].Hist.Count != 1 {
		t.Fatalf("histogram snapshot wrong: %+v", byName["lat_ns"])
	}
	// Registration order is preserved.
	if snap[0].Name != "reqs" || snap[3].Name != "lat_ns" {
		t.Fatalf("snapshot order: %v", snap)
	}
}

// TestSnapshotCallsFuncsOutsideLock: a read-time function may take a
// lock whose holder is registering a metric at that moment (a broker
// opening its commit log under its own lock while a scrape reads its
// connection gauge). Snapshot must not hold the registry lock across
// the function call, or the two deadlock.
func TestSnapshotCallsFuncsOutsideLock(t *testing.T) {
	r := New()
	var owner sync.Mutex
	entered := make(chan struct{})
	r.GaugeFunc("owned", "reads under its owner's lock", func() float64 {
		close(entered)
		owner.Lock()
		defer owner.Unlock()
		return 1
	})
	owner.Lock()
	done := make(chan struct{})
	go func() {
		r.Snapshot()
		close(done)
	}()
	<-entered
	registered := make(chan struct{})
	go func() {
		r.Counter("late_total", "registered while a snapshot waits on its owner")
		close(registered)
	}()
	select {
	case <-registered:
	case <-time.After(5 * time.Second):
		t.Fatal("registration blocked behind a snapshot's read-time function")
	}
	owner.Unlock()
	<-done
}

func TestPrometheusFormat(t *testing.T) {
	r := New()
	r.Counter("apcm_published_total", "events published").Add(12)
	r.Gauge(`apcm_pool_worker_items{worker="1"}`, "items per worker").Add(9)
	h := r.Histogram("apcm_match_latency_ns", "match latency")
	h.Observe(1000)
	h.Observe(2000)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE apcm_published_total counter",
		"apcm_published_total 12",
		"# TYPE apcm_pool_worker_items gauge",
		`apcm_pool_worker_items{worker="1"} 9`,
		"# TYPE apcm_match_latency_ns summary",
		`apcm_match_latency_ns{quantile="0.5"}`,
		"apcm_match_latency_ns_sum 3000",
		"apcm_match_latency_ns_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestJSONFormat(t *testing.T) {
	r := New()
	r.Counter("a", "").Add(1)
	r.Histogram("h", "").Observe(500)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal([]byte(b.String()), &obj); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, b.String())
	}
	if obj["a"].(float64) != 1 {
		t.Fatalf("a = %v", obj["a"])
	}
	if obj["h"].(map[string]any)["count"].(float64) != 1 {
		t.Fatalf("h = %v", obj["h"])
	}
}

func TestHTTPMux(t *testing.T) {
	r := New()
	r.Counter("hits", "").Add(3)
	srv := httptest.NewServer(NewMux(r))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, b.String()
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "hits 3") {
		t.Fatalf("/metrics: %d %q", code, body)
	}
	if code, body := get("/metrics.json"); code != 200 || !strings.Contains(body, `"hits": 3`) {
		t.Fatalf("/metrics.json: %d %q", code, body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	if code, body := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline: %d", code)
	}
}

func TestLogLineAndLogger(t *testing.T) {
	r := New()
	r.Counter("a", "").Add(2)
	r.Counter("zero", "") // zero-valued: omitted
	r.Histogram("h", "").Observe(1500)
	line := r.LogLine()
	if !strings.Contains(line, "a=2") || strings.Contains(line, "zero") || !strings.Contains(line, "h=n:1") {
		t.Fatalf("LogLine = %q", line)
	}

	var mu sync.Mutex
	var got []string
	stop := r.StartLogger(time.Millisecond, func(format string, args ...any) {
		mu.Lock()
		got = append(got, format)
		mu.Unlock()
	})
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
	mu.Lock()
	defer mu.Unlock()
	if len(got) == 0 {
		t.Fatal("periodic logger never fired")
	}
}
