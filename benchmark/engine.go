package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	apcm "github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/trace"
)

// engineLoop is one closed-loop pass of an engine workload: it runs until
// w closes, recording spans under parent when tr is non-nil.
type engineLoop func(w *slicer, tr *tracer, parent int32)

// measureEngine runs the warm-up and then either the measured window
// (untraced) or the two fixed-count passes of a traced run, and records
// the run's metrics. The caller has set the engine up already.
func (r *run) measureEngine(setupS float64, loop engineLoop) {
	if !r.traced {
		loop(newSlicer(r.sz.warmup, 0), nil, -1)
		runtime.GC()
		w := newSlicer(r.sz.window, 0)
		cpu0 := cpuTime()
		loop(w, nil, -1)
		cpu := cpuTime() - cpu0
		st := w.stats()
		r.putEndToEnd(setupS, st, st, cpu)
		r.attempted += st.events
		return
	}
	// Every pass of a traced run is a count of events, the warm-up too:
	// how far the churn has got decides which subscriptions are live, and
	// a traced run's counts must repeat.
	n := int64(r.sz.count(r.spec.tracedEvents))
	loop(newSlicer(0, n), nil, -1)
	runtime.GC()
	plain := newSlicer(0, n)
	loop(plain, nil, -1)
	runtime.GC()
	traced := newSlicer(0, n)
	phase := r.tr.open(spanPhase, r.root, "closed loop, traced")
	loop(traced, r.tr, phase)
	r.tr.close(phase)
	ps, ts := plain.stats(), traced.stats()
	r.attempted += ps.events + ts.events
	r.putDriver(ps, ps, ts.rate/ps.rate, 0)
}

// putDriver records the metrics that say whether a run can be trusted:
// closed is the traced run's untraced closed-loop pass, lat the window
// its latencies come from, traceOverhead the traced pass's rate over the
// untraced one's.
func (r *run) putDriver(closed, lat windowStats, traceOverhead, lateP99us float64) {
	r.put("driver.trace_overhead_ratio", traceOverhead, "ratio")
	r.put("driver.late_p99_us", lateP99us, "us")
	r.put("driver.slice_spread", closed.sliceSpread, "ratio")
	r.put("driver.latency_p99_us", lat.p99/1e3, "us")
	r.put("driver.latency_p999_us", lat.p999/1e3, "us")
}

// engine_match: a snapshot restored through LoadSubscriptions, then one
// goroutine calling Match per event.
func runEngineMatch(r *run) error {
	g := newGenerator(r.seed)
	xs := g.Expressions(r.sz.count(r.spec.subs))
	events := g.Events(r.sz.count(r.spec.pool))
	var snap bytes.Buffer
	if err := trace.WriteExpressions(&snap, xs); err != nil {
		return err
	}
	// The generator keeps every expression as a plant source; drop both so
	// that mem_mb is the engine's, not the input builder's.
	g, xs = nil, nil

	var eng *apcm.Engine
	setupS, err := r.timeSetups(func() error {
		var err error
		if eng, err = apcm.New(apcm.Options{}); err != nil {
			return err
		}
		if _, err := eng.LoadSubscriptions(bytes.NewReader(snap.Bytes())); err != nil {
			return err
		}
		eng.Prepare()
		return nil
	}, func() { eng.Close() })
	if err != nil {
		return err
	}
	defer eng.Close()

	next := 0
	r.measureEngine(setupS, func(w *slicer, tr *tracer, parent int32) {
		t0 := time.Now()
		w.begin(t0)
		for seq := int64(0); ; seq++ {
			eng.Match(events[next])
			if next++; next == len(events) {
				next = 0
			}
			t1 := time.Now()
			tr.add(spanEngineMatch, parent, seq, t0, t1)
			if !w.add(t1, int64(t1.Sub(t0)), 1) {
				return
			}
			t0 = t1
		}
	})

	idx := sampleIndexes(len(events))
	samples := make([]*expr.Event, len(idx))
	got := make([][]expr.ID, len(idx))
	for i, j := range idx {
		samples[i] = events[j]
		got[i] = eng.Match(events[j])
	}
	var decodeErr error
	want := bruteForce(func(visit func(*expr.Expression)) {
		decodeErr = forEachInSnapshot(snap.Bytes(), visit)
	}, samples)
	if decodeErr != nil {
		return decodeErr
	}
	r.checkOracle(got, want)
	if r.traced {
		return r.probeLayers(snap.Bytes(), events)
	}
	return nil
}

// forEachInSnapshot decodes a subscription snapshot one expression at a
// time, so the oracle never holds the whole set beside the engine.
func forEachInSnapshot(snap []byte, visit func(*expr.Expression)) error {
	tr, err := trace.NewReader(bytes.NewReader(snap))
	if err != nil {
		return err
	}
	for tr.Remaining() > 0 {
		x, err := tr.ReadExpression()
		if err != nil {
			return err
		}
		visit(x)
	}
	return nil
}

// Churn shape: every round replaces churnPerRound subscriptions (oldest
// out, new in) and then matches one batch of churnBatch events.
const (
	churnPerRound = 16
	churnBatch    = 256
)

// engine_churn: subscriptions added one by one, then rounds of writes
// beside one batch match.
func runEngineChurn(r *run) error {
	n := r.sz.count(r.spec.subs)
	g := newGenerator(r.seed)
	// A fifth more expressions than are live at once: the window of live
	// subscriptions slides over them cyclically, each re-entry under a
	// fresh id, so the run never runs out of new subscriptions.
	xs := g.Expressions(n + n/5)
	events := g.Events(r.sz.count(r.spec.pool))
	g = nil

	var eng *apcm.Engine
	setupS, err := r.timeSetups(func() error {
		var err error
		if eng, err = apcm.New(apcm.Options{}); err != nil {
			return err
		}
		for _, x := range xs[:n] {
			if err := eng.Subscribe(x); err != nil {
				return err
			}
		}
		eng.Prepare()
		return nil
	}, func() { eng.Close() })
	if err != nil {
		return err
	}
	defer eng.Close()

	// live[i] is the subscription currently registered from xs[i], nil if
	// none; oldest is the next to leave and newest+1 the next to enter.
	live := make([]*expr.Expression, len(xs))
	copy(live, xs[:n])
	oldest, entering := 0, n
	nextID := expr.ID(len(xs))
	offset := 0
	var res apcm.BatchResult
	r.measureEngine(setupS, func(w *slicer, tr *tracer, parent int32) {
		w.begin(time.Now())
		for seq := int64(0); ; seq++ {
			for k := 0; k < churnPerRound; k++ {
				t0 := time.Now()
				ok := eng.Unsubscribe(live[oldest].ID)
				t1 := time.Now()
				tr.add(spanEngineUnsubscribe, parent, seq, t0, t1)
				if !ok {
					r.failf(1, "Unsubscribe(%d) found no subscription", live[oldest].ID)
				}
				live[oldest] = nil
				if oldest++; oldest == len(xs) {
					oldest = 0
				}
				nextID++
				x := &expr.Expression{ID: nextID, Preds: xs[entering].Preds}
				t0 = time.Now()
				err := eng.Subscribe(x)
				t1 = time.Now()
				tr.add(spanEngineSubscribe, parent, seq, t0, t1)
				if err != nil {
					r.failf(1, "Subscribe: %v", err)
				} else {
					live[entering] = x
				}
				if entering++; entering == len(xs) {
					entering = 0
				}
				r.attempted += 2
			}
			if offset+churnBatch > len(events) {
				offset = 0
			}
			batch := events[offset : offset+churnBatch]
			offset += churnBatch
			t0 := time.Now()
			eng.MatchBatchInto(batch, &res)
			t1 := time.Now()
			tr.add(spanEngineMatchBatch, parent, seq, t0, t1)
			if !w.add(t1, int64(t1.Sub(t0)), churnBatch) {
				return
			}
		}
	})

	idx := sampleIndexes(len(events))
	samples := make([]*expr.Event, len(idx))
	for i, j := range idx {
		samples[i] = events[j]
	}
	eng.MatchBatchInto(samples, &res)
	got := make([][]expr.ID, len(samples))
	for i := range got {
		got[i] = res.For(i)
	}
	want := bruteForce(func(visit func(*expr.Expression)) {
		for _, x := range live {
			if x != nil {
				visit(x)
			}
		}
	}, samples)
	r.checkOracle(got, want)
	if eng.Len() != n {
		r.failf(1, "engine holds %d subscriptions after churn, want %d", eng.Len(), n)
	}
	if r.traced {
		var snap bytes.Buffer
		if err := eng.SaveSubscriptions(&snap); err != nil {
			return fmt.Errorf("saving the churned set: %w", err)
		}
		eng.Close()
		return r.probeLayers(snap.Bytes(), events)
	}
	return nil
}
