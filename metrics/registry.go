package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Kind discriminates registered metric types.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String names the kind as used in the Prometheus TYPE line.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "summary"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// entry is one registered metric. Exactly one of counter, gauge, hist
// and fn is set.
type entry struct {
	name    string
	help    string
	kind    Kind
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
}

// Registry holds named metrics. Registration takes a lock; recording
// through the returned instruments is lock-free. All methods are safe on
// a nil receiver: registration returns nil instruments (whose methods
// are no-ops), so a component can thread an optional *Registry through
// without guarding every call site.
//
// Metric names may carry Prometheus-style labels inline, e.g.
// "pool_worker_items{worker=\"3\"}"; the exposition formats pass them
// through.
type Registry struct {
	mu      sync.RWMutex
	order   []string
	entries map[string]*entry
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// register adds e under its name, or returns the existing entry of the
// same name (ignoring e) so repeated registration is idempotent.
func (r *Registry) register(e *entry) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.entries[e.name]; ok {
		return prev
	}
	r.entries[e.name] = e
	r.order = append(r.order, e.name)
	return e
}

// Counter returns the counter registered under name, creating it if
// needed. Returns nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(&entry{name: name, help: help, kind: KindCounter, counter: &Counter{}}).counter
}

// Gauge returns the gauge registered under name, creating it if needed.
// Returns nil (a no-op gauge) on a nil registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(&entry{name: name, help: help, kind: KindGauge, gauge: &Gauge{}}).gauge
}

// Histogram returns the latency histogram registered under name
// (standard shape: nanoseconds, 100ns..~100s), creating it if needed.
// Returns nil (a no-op histogram) on a nil registry.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(&entry{name: name, help: help, kind: KindHistogram, hist: NewLatencyHistogram()}).hist
}

// HistogramShaped is Histogram with an explicit bucket shape (for
// non-latency samples such as sizes or ratios).
func (r *Registry) HistogramShaped(name, help string, base, growth float64, n int) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(&entry{name: name, help: help, kind: KindHistogram, hist: NewHistogram(base, growth, n)}).hist
}

// GaugeFunc registers a gauge whose value is computed by fn at read
// time (snapshot, scrape or log). fn must be safe for concurrent use.
// No-op on a nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(&entry{name: name, help: help, kind: KindGauge, fn: fn})
}

// CounterFunc registers a counter whose value is computed by fn at read
// time — for components that already keep their own atomic counts. fn
// must be safe for concurrent use. No-op on a nil registry.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(&entry{name: name, help: help, kind: KindCounter, fn: fn})
}

// Value is one metric in a snapshot. Value is set for counters and
// gauges; Hist for histograms.
type Value struct {
	Name  string
	Kind  Kind
	Help  string
	Value float64
	Hist  HistogramSnapshot
}

// Snapshot reads every metric, in registration order. Nil registries
// return nil. Only the entry list is read under the registry lock: the
// read-time functions take their owners' locks, and an owner may be
// registering a metric while holding one (a broker opens its commit
// log, which registers the log's instruments, under its own lock), so
// calling them under the registry lock would deadlock the two.
func (r *Registry) Snapshot() []Value {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	entries := make([]*entry, len(r.order))
	for i, name := range r.order {
		entries[i] = r.entries[name]
	}
	r.mu.RUnlock()
	out := make([]Value, 0, len(entries))
	for _, e := range entries {
		v := Value{Name: e.name, Kind: e.kind, Help: e.help}
		switch {
		case e.fn != nil:
			v.Value = e.fn()
		case e.counter != nil:
			v.Value = float64(e.counter.Value())
		case e.gauge != nil:
			v.Value = float64(e.gauge.Value())
		case e.hist != nil:
			v.Hist = e.hist.Snapshot()
		}
		out = append(out, v)
	}
	return out
}

// WriteJSON writes the snapshot as one flat JSON object keyed by metric
// name (histograms become {count, mean, p50, p95, p99, max} objects),
// expvar-style.
func (r *Registry) WriteJSON(w io.Writer) error {
	obj := make(map[string]any)
	for _, v := range r.Snapshot() {
		if v.Kind == KindHistogram {
			obj[v.Name] = v.Hist
		} else {
			obj[v.Name] = v.Value
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(obj)
}

// baseName strips an inline label set: "foo{worker=\"1\"}" -> "foo".
func baseName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format. Histograms are rendered as summaries (pre-computed quantiles)
// since the bucket shape is fixed and fine-grained. HELP/TYPE headers
// are emitted once per base metric name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	seenHeader := make(map[string]bool)
	header := func(name, help string, kind Kind) {
		base, _ := baseName(name)
		if seenHeader[base] {
			return
		}
		seenHeader[base] = true
		if help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", base, help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", base, kind)
	}
	var err error
	track := func(_ int, werr error) {
		if err == nil {
			err = werr
		}
	}
	for _, v := range snap {
		header(v.Name, v.Help, v.Kind)
		if v.Kind != KindHistogram {
			track(fmt.Fprintf(w, "%s %s\n", v.Name, formatFloat(v.Value)))
			continue
		}
		base, labels := baseName(v.Name)
		q := func(label string, val float64) {
			sep := "{"
			if labels != "" {
				// Merge the quantile label into the inline label set.
				sep = labels[:len(labels)-1] + ","
			}
			track(fmt.Fprintf(w, "%s%squantile=%q} %s\n", base, sep, label, formatFloat(val)))
		}
		q("0.5", v.Hist.P50)
		q("0.95", v.Hist.P95)
		q("0.99", v.Hist.P99)
		track(fmt.Fprintf(w, "%s_sum%s %s\n", base, labels, formatFloat(v.Hist.Mean*float64(v.Hist.Count))))
		track(fmt.Fprintf(w, "%s_count%s %d\n", base, labels, v.Hist.Count))
	}
	return err
}

// formatFloat renders integral values without an exponent so counter
// output stays grep-friendly.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// LogLine renders a compact single-line summary of the busiest metrics:
// every non-zero counter and gauge as name=value, every histogram with
// samples as name=p50/p99 (durations). Intended for periodic headless
// logging.
func (r *Registry) LogLine() string {
	var b strings.Builder
	for _, v := range r.Snapshot() {
		if v.Kind == KindHistogram {
			if v.Hist.Count == 0 {
				continue
			}
			fmt.Fprintf(&b, " %s=n:%d,p50:%s,p99:%s", v.Name, v.Hist.Count,
				time.Duration(v.Hist.P50).Round(time.Microsecond),
				time.Duration(v.Hist.P99).Round(time.Microsecond))
			continue
		}
		if v.Value == 0 {
			continue
		}
		fmt.Fprintf(&b, " %s=%s", v.Name, formatFloat(v.Value))
	}
	return strings.TrimSpace(b.String())
}

// StartLogger logs the registry's LogLine through logf every interval
// until the returned stop function is called. For headless runs with no
// HTTP endpoint. No-op (returning a no-op stop) on a nil registry or
// non-positive interval.
func (r *Registry) StartLogger(interval time.Duration, logf func(format string, args ...any)) (stop func()) {
	if r == nil || interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if line := r.LogLine(); line != "" {
					logf("metrics: %s", line)
				}
			case <-done:
				return
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}
