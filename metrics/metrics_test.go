package metrics

import (
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/streammatch/apcm/internal/stats"
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
	g.Set(10)
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
	g.Set(1)
	g.Add(1)
	h.Observe(5)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil instruments returned non-zero values")
	}
	if r.Snapshot() != nil || r.Names() != nil {
		t.Fatal("nil registry snapshot not nil")
	}
	r.StartLogger(time.Millisecond, nil)()
}

// TestHistogramMatchesStats cross-checks the atomic histogram against
// the internal/stats reference implementation on identical samples: the
// bucketing is shared, so counts, means and quantiles must agree.
func TestHistogramMatchesStats(t *testing.T) {
	h := NewLatencyHistogram()
	ref := stats.NewLatencyHistogram()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		// Log-uniform over ~6 decades, the shape of real latency data.
		x := float64(int64(50 * (1 + rng.ExpFloat64()*2000)))
		h.Observe(x)
		ref.Add(x)
	}
	if h.Count() != ref.Count() {
		t.Fatalf("count %d vs %d", h.Count(), ref.Count())
	}
	if h.Mean() != ref.Mean() {
		t.Fatalf("mean %v vs %v", h.Mean(), ref.Mean())
	}
	if h.Max() != ref.Max() {
		t.Fatalf("max %v vs %v", h.Max(), ref.Max())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
		got, want := h.Quantile(q), ref.Quantile(q)
		// Identical bucket boundaries: tolerate only float evaluation
		// differences (the two implementations compute the upper edge
		// with different expressions).
		if got < want*0.999 || got > want*1.001 {
			t.Fatalf("q%.2f: %v vs reference %v", q, got, want)
		}
	}
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
	r.Gauge(`apcm_pool_worker_items{worker="1"}`, "items per worker").Set(9)
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
