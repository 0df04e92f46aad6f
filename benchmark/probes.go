package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	apcm "github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/commitlog"
	"github.com/streammatch/apcm/metrics"
	"github.com/streammatch/apcm/shard"
)

// probeLayers is the second half of a traced run: it times calls into
// each layer's public functions, standalone, over the workload's own
// subscription set (as a snapshot) and event pool, and records the
// per-layer metrics. Probes run one after another with nothing else
// going on, so what they report is the layer's cost, not its share of a
// contended pipeline. Every probe pass is one span.
func (r *run) probeLayers(snap []byte, events []*expr.Event) error {
	// A part of a large pool is enough for a per-event time, and keeps the
	// traced run inside its time budget.
	events = events[:min(len(events), probeEvents)]
	codec := r.probeExpr(events)
	eng, matchNs, err := r.probeEngine(snap, events)
	if err != nil {
		return err
	}
	err = r.probeMetrics(eng, snap, events)
	eng.Close()
	if err != nil {
		return err
	}
	if err := r.probeShard(snap, events, matchNs); err != nil {
		return err
	}
	appendCPUus, err := r.probeCommitlog(events)
	if err != nil {
		return err
	}
	r.putBrokerShares(codec, matchNs, appendCPUus)
	return nil
}

// probe runs fn as one labelled span and returns how long it took.
func (r *run) probe(label string, fn func()) time.Duration {
	id := r.tr.open(spanProbe, r.root, label)
	start := time.Now()
	fn()
	d := time.Since(start)
	r.tr.close(id)
	return d
}

// probePasses is how many times a probe walks the event pool; the
// fastest pass is reported, which is the one least disturbed.
const probePasses = 3

// probeEvents caps how much of the event pool the probes walk.
const probeEvents = 16_384

func fastest(passes int, fn func() time.Duration) time.Duration {
	best := fn()
	for i := 1; i < passes; i++ {
		if d := fn(); d < best {
			best = d
		}
	}
	return best
}

type codecCost struct{ decodeNs, appendNs float64 }

// probeExpr times the event codec, which a broker publish crosses four
// times (client encode, server decode, server encode, client decode) and
// an engine workload never.
func (r *run) probeExpr(events []*expr.Event) codecCost {
	n := float64(len(events))
	frames := make([][]byte, len(events))
	var buf []byte
	appendD := fastest(probePasses, func() time.Duration {
		return r.probe("expr.AppendEvent over the pool", func() {
			for _, ev := range events {
				buf = expr.AppendEvent(buf[:0], ev)
			}
		})
	})
	for i, ev := range events {
		frames[i] = expr.AppendEvent(nil, ev)
	}
	m0, _ := mallocs()
	decodeD := fastest(probePasses, func() time.Duration {
		return r.probe("expr.DecodeEvent over the pool", func() {
			for _, f := range frames {
				if _, _, err := expr.DecodeEvent(f); err != nil {
					r.failf(1, "DecodeEvent: %v", err)
				}
			}
		})
	})
	m1, _ := mallocs()
	c := codecCost{decodeNs: float64(decodeD) / n, appendNs: float64(appendD) / n}
	r.put("expr.decode_event_ns", c.decodeNs, "ns")
	r.put("expr.append_event_ns", c.appendNs, "ns")
	// AppendEvent into a reused buffer allocates nothing, so these are
	// DecodeEvent's.
	r.put("expr.codec_allocs_per_event", float64(m1-m0)/(n*probePasses), "count")
	return c
}

// loadEngine restores snap into a fresh engine and reports the restore
// and Prepare times.
func loadEngine(opts apcm.Options, snap []byte) (eng *apcm.Engine, subs int, load, prepare time.Duration, err error) {
	if eng, err = apcm.New(opts); err != nil {
		return nil, 0, 0, 0, err
	}
	t0 := time.Now()
	if subs, err = eng.LoadSubscriptions(bytes.NewReader(snap)); err != nil {
		eng.Close()
		return nil, 0, 0, 0, err
	}
	t1 := time.Now()
	eng.Prepare()
	return eng, subs, t1.Sub(t0), time.Since(t1), nil
}

// matchPass times one Match per pool event and returns the time and the
// number of matches.
func matchPass(m interface {
	Match(*expr.Event) []expr.ID
}, events []*expr.Event) (time.Duration, int) {
	matches := 0
	start := time.Now()
	for _, ev := range events {
		matches += len(m.Match(ev))
	}
	return time.Since(start), matches
}

// probeEngine restores the set into a fresh engine and times the
// engine's public calls. It returns the engine, for the caller to close,
// and the single-event match time in ns.
func (r *run) probeEngine(snap []byte, events []*expr.Event) (*apcm.Engine, float64, error) {
	before := heapInUse()
	var eng *apcm.Engine
	var subs int
	var load, prepare time.Duration
	var err error
	r.probe("apcm.Engine.LoadSubscriptions + Prepare", func() {
		eng, subs, load, prepare, err = loadEngine(apcm.Options{}, snap)
	})
	if err != nil {
		return nil, 0, err
	}
	after := heapInUse()
	r.put("apcm.load_subs_per_s", float64(subs)/load.Seconds(), "1/s")
	r.put("apcm.prepare_ms", prepare.Seconds()*1e3, "ms")
	r.put("apcm.clusters", float64(eng.Stats().CompiledClusters), "count")
	r.put("apcm.heap_bytes_per_sub", float64(int64(after)-int64(before))/float64(subs), "bytes")

	n := float64(len(events))
	matchPass(eng, events) // warm: adaptive kernel choices settle
	var matches int
	m0, _ := mallocs()
	matchD := fastest(probePasses, func() time.Duration {
		var d time.Duration
		r.probe("apcm.Engine.Match over the pool", func() { d, matches = matchPass(eng, events) })
		return d
	})
	m1, _ := mallocs()
	matchNs := float64(matchD) / n
	r.put("apcm.match_ns", matchNs, "ns")
	r.put("apcm.matches_per_event", float64(matches)/n, "count")
	// Match returns a fresh slice for an event that matches, so this is
	// about matches_per_event, and 0 for an event that matches nothing.
	r.put("apcm.match_allocs_per_event", float64(m1-m0)/(n*probePasses), "count")

	var res apcm.BatchResult
	batchD := fastest(probePasses, func() time.Duration {
		return r.probe("apcm.Engine.MatchBatchInto, batches of 256", func() {
			for off := 0; off < len(events); off += churnBatch {
				eng.MatchBatchInto(events[off:min(off+churnBatch, len(events))], &res)
			}
		})
	})
	r.put("apcm.batch256_ns_per_event", float64(batchD)/n, "ns")

	// Writes beside reads: re-register the first expressions of the set
	// under fresh ids, then remove them again.
	k := subs / 50
	extra := make([]*expr.Expression, 0, k)
	if err := forEachInSnapshot(snap, func(x *expr.Expression) {
		if len(extra) < k {
			extra = append(extra, &expr.Expression{ID: eng.NewID() + 1<<40, Preds: x.Preds})
		}
	}); err != nil {
		eng.Close()
		return nil, 0, err
	}
	subD := r.probe("apcm.Engine.Subscribe", func() {
		for _, x := range extra {
			if err := eng.Subscribe(x); err != nil {
				r.failf(1, "probe Subscribe: %v", err)
			}
		}
	})
	unsubD := r.probe("apcm.Engine.Unsubscribe", func() {
		for _, x := range extra {
			if !eng.Unsubscribe(x.ID) {
				r.failf(1, "probe Unsubscribe(%d) found nothing", x.ID)
			}
		}
	})
	r.put("apcm.subscribe_ns", float64(subD)/float64(len(extra)), "ns")
	r.put("apcm.unsubscribe_ns", float64(unsubD)/float64(len(extra)), "ns")
	return eng, matchNs, nil
}

// probeShard matches through a two-shard Group holding the same set. No
// end-to-end workload routes through shard; this is its before-number.
func (r *run) probeShard(snap []byte, events []*expr.Event, engineMatchNs float64) error {
	g, err := shard.New(shard.Options{Shards: 2})
	if err != nil {
		return err
	}
	defer g.Close()
	if _, err := g.LoadSubscriptions(bytes.NewReader(snap)); err != nil {
		return err
	}
	g.Prepare()
	matchPass(g, events)
	d := fastest(probePasses, func() time.Duration {
		var d time.Duration
		r.probe("shard.Group.Match over the pool", func() { d, _ = matchPass(g, events) })
		return d
	})
	ns := float64(d) / float64(len(events))
	r.put("shard.match_ns", ns, "ns")
	r.put("shard.overhead_ratio", ns/engineMatchNs, "ratio")
	return nil
}

// probeMetrics compares the match rate of an engine with
// Options.Metrics set to that of plain, which has none and holds the
// same set. The two alternate so drift hits both.
func (r *run) probeMetrics(plain *apcm.Engine, snap []byte, events []*expr.Event) error {
	observed, _, _, _, err := loadEngine(apcm.Options{Metrics: metrics.New()}, snap)
	if err != nil {
		return err
	}
	defer observed.Close()
	matchPass(plain, events)
	matchPass(observed, events)
	var plainD, observedD time.Duration
	for i := 0; i < probePasses; i++ {
		r.probe("apcm.Engine.Match, metrics off", func() {
			d, _ := matchPass(plain, events)
			if i == 0 || d < plainD {
				plainD = d
			}
		})
		r.probe("apcm.Engine.Match, metrics on", func() {
			d, _ := matchPass(observed, events)
			if i == 0 || d < observedD {
				observedD = d
			}
		})
	}
	// A rate ratio: with ÷ without, so 0.95 is 5 % slower with metrics.
	r.put("metrics.overhead_ratio", float64(plainD)/float64(observedD), "ratio")
	return nil
}

// durableRecordSize is the size of the record broker_durable logs for ev
// delivered to one subscription: consumer name, id count, id, event.
func durableRecordSize(ev *expr.Event) int {
	const idBytes = 3 // uvarint of a subscription id in the tens of thousands
	return 1 + len(consumerName) + 1 + idBytes + len(expr.AppendEvent(nil, ev))
}

// probeCommitlog appends records of the median durable record size to a
// standalone Log in the run's scratch directory, one appender, fsync on,
// then replays them. It returns the CPU time per append in µs.
func (r *run) probeCommitlog(events []*expr.Event) (float64, error) {
	sizes := make([]int, len(events))
	for i, ev := range events {
		sizes[i] = durableRecordSize(ev)
	}
	sort.Ints(sizes)
	rec := make([]byte, sizes[len(sizes)/2])
	r.put("commitlog.bytes_per_record", float64(len(rec)), "bytes")

	dir, err := os.MkdirTemp(r.sz.workDir, "probe-log-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	l, err := commitlog.Open(dir, commitlog.Config{})
	if err != nil {
		return 0, err
	}
	defer l.Close()

	// Bounded both ways: enough appends for a p99, but no more than a few
	// seconds when every fsync reaches a real disk.
	const maxAppends = 4000
	deadline := time.Now().Add(time.Duration(float64(3*time.Second) * r.sz.scale))
	var h hist
	var appendErr error
	runtime.GC()
	cpu0 := cpuTime()
	r.probe("commitlog.Log.Append, one appender", func() {
		t0 := time.Now()
		for i := 0; i < maxAppends && (i < 100 || t0.Before(deadline)); i++ {
			if _, appendErr = l.Append(rec); appendErr != nil {
				return
			}
			t1 := time.Now()
			h.add(int64(t1.Sub(t0)))
			t0 = t1
		}
	})
	cpu := cpuTime() - cpu0
	if appendErr != nil {
		return 0, appendErr
	}
	appendCPUus := cpu.Seconds() * 1e6 / float64(h.n)
	r.put("commitlog.append_p50_us", h.quantile(0.50)/1e3, "us")
	r.put("commitlog.append_p99_us", h.quantile(0.99)/1e3, "us")
	r.put("commitlog.append_cpu_us", appendCPUus, "us")

	var read int
	readD := r.probe("commitlog.Log.Read replay", func() {
		err = l.Read(0, func(uint64, []byte) error { read++; return nil })
	})
	if err != nil {
		return 0, err
	}
	if uint64(read) != h.n {
		r.failf(1, "commit log replayed %d records of %d appended", read, h.n)
	}
	r.put("commitlog.read_ns_per_record", float64(readD)/float64(read), "ns")
	return appendCPUus, nil
}

// brokerCosts is what a traced broker run measures of the broker layer
// in its untraced closed-loop pass, per event: allocations, bytes,
// deliveries, process CPU and, at saturation, wall time.
type brokerCosts struct {
	publishCallNs   float64 // median Client.Publish call, traced passes
	wireSubscribeUs float64 // per subscription, at set-up
	allocs, bytes   float64
	deliveries      float64
	cpuUs           float64
	saturationUs    float64
}

// putBrokerShares records the broker layer's metrics and splits a broker
// event's CPU among the layers, from the standalone probes: the codec
// (crossed four times per event), the match, the log append on
// broker_durable, and the remainder — routing, framing, outbox, sockets,
// and this benchmark's own clients, which share the process. On the
// engine workloads the broker does no work and all seven read 0.
func (r *run) putBrokerShares(c codecCost, matchNs, appendCPUus float64) {
	b := r.broker
	var residual, tax float64
	if r.spec.broker {
		residual = b.cpuUs - 2*(c.decodeNs+c.appendNs)/1e3 - matchNs/1e3
		if r.spec.durable {
			residual -= appendCPUus
		}
		tax = b.saturationUs / (matchNs / 1e3)
	}
	r.put("broker.publish_call_ns", b.publishCallNs, "ns")
	r.put("broker.wire_subscribe_us", b.wireSubscribeUs, "us")
	r.put("broker.allocs_per_event", b.allocs, "count")
	r.put("broker.bytes_per_event", b.bytes, "bytes")
	r.put("broker.deliveries_per_event", b.deliveries, "count")
	r.put("broker.residual_cpu_us", residual, "us")
	r.put("broker.tax_ratio", tax, "ratio")
}

// writeTrace stores the run's spans.
func (r *run) writeTrace() error {
	return r.tr.write(filepath.Join(r.sz.traceDir, "trace-"+r.spec.name+".json"), r.spec.name, r.seed)
}
