// Package metrics is the engine-wide observability layer: lock-free
// counters, gauges and latency histograms collected in a Registry and
// exposed as a programmatic snapshot, expvar-style JSON, Prometheus text
// format and a periodic log line.
//
// Every instrument is safe for concurrent use (plain atomics, no locks
// on the hot path) and every method is safe on a nil receiver, so
// instrumented code pays a single nil check when no registry is
// attached:
//
//	reg := metrics.New()
//	hits := reg.Counter("cache_hits", "cache lookups that hit")
//	lat := reg.Histogram("match_latency_ns", "per-event match latency")
//	...
//	hits.Inc()
//	lat.ObserveDuration(time.Since(start))
//
// Histograms use exponential bucketing (bucket i covers
// [base·growth^i, base·growth^(i+1))), trading ~9% quantile resolution
// for a fixed footprint and wait-free recording.
package metrics

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value. The zero value is ready
// to use; all methods are no-ops on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be non-negative for the value to stay monotone).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. The zero value is ready to
// use; all methods are no-ops on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Add adjusts the value by delta.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-shape exponential-bucket histogram: bucket i
// covers [base·growth^i, base·growth^(i+1)), samples below base land in
// an underflow bucket, samples beyond the last bucket clamp into it.
// Recording is wait-free; reads (Quantile, Snapshot) scan the buckets
// without stopping writers, so a snapshot taken under load is a close
// approximation rather than an instantaneous cut — fine for monitoring.
//
// All methods are no-ops (or return zero) on a nil receiver.
type Histogram struct {
	base    float64
	logBase float64 // math.Log(base), precomputed
	invLogG float64 // 1/math.Log(growth), precomputed
	count   atomic.Int64
	sum     atomic.Int64 // integral samples (nanoseconds) sum exactly
	max     atomic.Int64
	under   atomic.Int64
	buckets []atomic.Int64
}

// NewHistogram returns a histogram with the given base, growth factor
// (> 1) and bucket count. Most callers want Registry.Histogram, which
// uses the standard latency shape.
func NewHistogram(base, growth float64, n int) *Histogram {
	if base <= 0 || growth <= 1 || n <= 0 {
		panic("metrics: invalid histogram shape")
	}
	return &Histogram{
		base:    base,
		logBase: math.Log(base),
		invLogG: 1 / math.Log(growth),
		buckets: make([]atomic.Int64, n),
	}
}

// NewLatencyHistogram returns the standard latency histogram: nanosecond
// samples, 100ns to ~100s, ~9% resolution.
func NewLatencyHistogram() *Histogram {
	return NewHistogram(100, 1.09, 240)
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(int64(x))
	for {
		cur := h.max.Load()
		if int64(x) <= cur || h.max.CompareAndSwap(cur, int64(x)) {
			break
		}
	}
	if x < h.base {
		h.under.Add(1)
		return
	}
	i := int((math.Log(x) - h.logBase) * h.invLogG)
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	if i < 0 {
		i = 0
	}
	h.buckets[i].Add(1)
}

// ObserveDuration records a duration sample in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h != nil {
		h.Observe(float64(d.Nanoseconds()))
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Mean returns the sample mean (0 with no samples).
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Max returns the largest sample.
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	return float64(h.max.Load())
}

// Quantile returns an upper-bound estimate of the q-quantile (q in
// [0,1]) with the resolution of the bucket widths.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(n)))
	seen := h.under.Load()
	if rank <= seen {
		return h.base
	}
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return h.base * math.Exp(float64(i+1)/h.invLogG)
		}
	}
	return float64(h.max.Load())
}

// HistogramSnapshot is a point-in-time summary of a histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Snapshot summarises the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	return HistogramSnapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}
