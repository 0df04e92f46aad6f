package main

import (
	"math/bits"
	"sort"
	"time"
)

// hist is a fixed-size log-linear latency histogram over nanosecond
// samples: 128 sub-buckets per power of two, so a bucket is at most
// 0.8 % wide and an interpolated percentile is within 1 % of the exact
// one. It exists beside internal/stats and metrics because those two
// have 9 % buckets, report a bucket's upper edge (so a steady percentile
// reads identically run after run) and take a logarithm per sample; this
// one is an index computation and an increment, with no allocation and
// no sort inside a timed window.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// histMaxBits caps samples at 2^40 ns (18 minutes); longer ones
	// clamp into the last bucket.
	histMaxBits = 40
	histBuckets = (histMaxBits - histSubBits + 1) * histSub
)

func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	if ns >= 1<<histMaxBits {
		return histBuckets - 1
	}
	shift := bits.Len64(uint64(ns)) - histSubBits - 1
	return shift<<histSubBits + int(ns>>shift)
}

// histBounds returns bucket i's lowest value and its width.
func histBounds(i int) (low, width float64) {
	if i < 2*histSub {
		return float64(i), 1
	}
	shift := i>>histSubBits - 1
	return float64(int64(i&(histSub-1)+histSub) << shift), float64(int64(1) << shift)
}

func (h *hist) add(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolated inside
// its bucket, or 0 with no samples.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			low, width := histBounds(i)
			return low + width*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	low, width := histBounds(histBuckets - 1)
	return low + width
}

// nSlices is how many equal slices a timed window is cut into; every
// rate and percentile is reported as the median of its per-slice values,
// so one disturbed slice (a GC cycle, a noisy neighbour) does not move
// the result.
const nSlices = 5

type windowSlice struct {
	h        hist
	events   int64
	start    time.Time
	end      time.Time
	finished bool
}

// slicer cuts one timed window into nSlices slices, bounded either by
// wall time (measured runs) or by event count (traced runs, so counts
// repeat exactly). Only one goroutine may call add.
type slicer struct {
	s        [nSlices]windowSlice
	i        int
	sliceDur time.Duration
	total    int64 // events in the whole window, when bounded by count
	seen     int64 // events so far
}

// newSlicer returns a slicer for a window of the given length, or, when
// events > 0, of that many events.
func newSlicer(window time.Duration, events int64) *slicer {
	if events > 0 {
		return &slicer{total: events}
	}
	return &slicer{sliceDur: window / nSlices}
}

func (w *slicer) begin(now time.Time) { w.s[0].start = now }

// add records one completed operation of the given latency (negative:
// not a latency sample) that finished events events at now. It reports
// whether the window is still open.
func (w *slicer) add(now time.Time, latNs, events int64) bool {
	if w.i >= nSlices {
		return false
	}
	s := &w.s[w.i]
	if latNs >= 0 {
		s.h.add(latNs)
	}
	s.events += events
	w.seen += events
	if w.total > 0 {
		if w.seen < w.total*int64(w.i+1)/nSlices {
			return true
		}
	} else if now.Sub(s.start) < w.sliceDur {
		return true
	}
	s.end, s.finished = now, true
	w.i++
	if w.i >= nSlices {
		return false
	}
	w.s[w.i].start = now
	return true
}

// windowStats is a slicer's window reduced to what is reported.
type windowStats struct {
	events      int64   // completed in the window
	samples     uint64  // latency samples in the window
	perSlice    uint64  // fewest latency samples in one slice
	rate        float64 // events/s, median slice
	p50, p99    float64 // ns, median of the per-slice percentiles
	p999        float64 // ns, whole window
	sliceSpread float64 // (max − min) ÷ median of the slice rates
}

func (w *slicer) stats() windowStats {
	var st windowStats
	var all hist
	var rates, p50s, p99s []float64
	for i := range w.s {
		s := &w.s[i]
		if !s.finished {
			continue
		}
		st.events += s.events
		if d := s.end.Sub(s.start).Seconds(); d > 0 {
			rates = append(rates, float64(s.events)/d)
		}
		if s.h.n > 0 {
			p50s = append(p50s, s.h.quantile(0.50))
			p99s = append(p99s, s.h.quantile(0.99))
			if st.perSlice == 0 || s.h.n < st.perSlice {
				st.perSlice = s.h.n
			}
			all.merge(&s.h)
		}
	}
	st.samples = all.n
	st.rate, st.p50, st.p99 = median(rates), median(p50s), median(p99s)
	st.p999 = all.quantile(0.999)
	if len(rates) > 0 && st.rate > 0 {
		sort.Float64s(rates)
		st.sliceSpread = (rates[len(rates)-1] - rates[0]) / st.rate
	}
	return st
}

// median returns the median of vs (the mean of the middle two for an
// even count), or 0 for none. It sorts a copy.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
