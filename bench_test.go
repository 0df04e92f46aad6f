// Go benchmarks of the Engine itself: the testing.B twins of the
// experiments whose subject is the Engine (E6, E8, E10–E12, E14, E15,
// E19 and the cold-start restore; DESIGN.md §4), at CI-friendly sizes
// with events/s reported as a custom metric. The comparison tables
// (A-PCM against its baselines and ablation variants) run only through
// cmd/apcm-bench. Quick regression tracking:
//
//	go test -bench=. -benchmem
package apcm_test

import (
	"bytes"
	"net"
	"os"
	"strconv"
	"testing"
	"time"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/broker"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/osr"
	"github.com/streammatch/apcm/metrics"
	"github.com/streammatch/apcm/shard"
	"github.com/streammatch/apcm/trace"
	"github.com/streammatch/apcm/workload"
)

// benchParams is the canonical benchmark workload (DESIGN.md §4),
// scaled to benchmark-friendly sizes.
func benchParams() workload.Params {
	return workload.Default()
}

func benchWorkload(b *testing.B, p workload.Params, n, nev int) ([]*expr.Expression, []*expr.Event) {
	b.Helper()
	g, err := workload.New(p)
	if err != nil {
		b.Fatal(err)
	}
	return g.Expressions(n), g.Events(nev)
}

func benchEngine(b *testing.B, opts apcm.Options, xs []*expr.Expression) *apcm.Engine {
	b.Helper()
	e, err := apcm.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	for _, x := range xs {
		if err := e.Subscribe(x); err != nil {
			b.Fatal(err)
		}
	}
	e.Prepare()
	b.Cleanup(e.Close)
	return e
}

// matchLoop drives b.N single-event matches and reports events/s.
func matchLoop(b *testing.B, e *apcm.Engine, events []*expr.Event) {
	b.Helper()
	var dst []expr.ID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = e.MatchAppend(dst[:0], events[i%len(events)])
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// ---- E6: parallel scaling -------------------------------------------------

func BenchmarkE6ParallelScaling(b *testing.B) {
	xs, events := benchWorkload(b, benchParams(), 10000, 1000)
	for _, w := range []int{1, 2, 4} {
		b.Run("workers="+itoa(w), func(b *testing.B) {
			e := benchEngine(b, apcm.Options{Workers: w}, xs)
			const batch = 64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := (i * batch) % len(events)
				end := off + batch
				if end > len(events) {
					end = len(events)
				}
				e.MatchBatch(events[off:end])
			}
			b.StopTimer()
			processed := float64(b.N) * batch
			b.ReportMetric(processed/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// ---- E8: OSR window ----------------------------------------------------------

func BenchmarkE8OSRWindow(b *testing.B) {
	p := benchParams()
	p.AttrZipf = 1.5
	xs, events := benchWorkload(b, p, 10000, 2000)
	for _, w := range []int{1, 64, 1024} {
		ordered := make([]*expr.Event, len(events))
		copy(ordered, events)
		if w > 1 {
			for off := 0; off < len(ordered); off += w {
				end := off + w
				if end > len(ordered) {
					end = len(ordered)
				}
				osr.Reorder(ordered[off:end])
			}
		}
		b.Run("window="+itoa(w), func(b *testing.B) {
			matchLoop(b, benchEngine(b, apcm.Options{}, xs), ordered)
		})
	}
}

// ---- E10: batch size ---------------------------------------------------------------

func BenchmarkE10BatchSize(b *testing.B) {
	xs, events := benchWorkload(b, benchParams(), 10000, 2000)
	e := benchEngine(b, apcm.Options{}, xs)
	for _, batch := range []int{1, 64, 256, 1024} {
		b.Run("batch="+itoa(batch), func(b *testing.B) {
			var r apcm.BatchResult
			b.ReportAllocs()
			b.ResetTimer()
			processed := 0
			for i := 0; i < b.N; i++ {
				off := (i * batch) % len(events)
				end := off + batch
				if end > len(events) {
					end = len(events)
				}
				e.MatchBatchInto(events[off:end], &r)
				processed += end - off
			}
			b.StopTimer()
			b.ReportMetric(float64(processed)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// ---- E11: single-event latency -------------------------------------------------------

// ns/op here IS the Engine's per-event match latency.
func BenchmarkE11MatchLatency(b *testing.B) {
	xs, events := benchWorkload(b, benchParams(), 10000, 1000)
	matchLoop(b, benchEngine(b, apcm.Options{}, xs), events)
}

// ---- E12: updates ---------------------------------------------------------------------

func BenchmarkE12Updates(b *testing.B) {
	xs, _ := benchWorkload(b, benchParams(), 10000, 10)
	e := benchEngine(b, apcm.Options{}, xs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := xs[i%len(xs)]
		if !e.Unsubscribe(x.ID) {
			b.Fatal("unsubscribe failed")
		}
		if err := e.Subscribe(x); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Observability: metrics overhead ---------------------------------------------------------

// BenchmarkMetricsOverhead measures the match hot path with the metrics
// registry disabled (the nil fast path every unmetered engine takes) and
// enabled (two histogram observations per event). Compare ns/op between
// the two sub-benchmarks; the enabled variant must stay within a few
// percent of disabled.
func BenchmarkMetricsOverhead(b *testing.B) {
	xs, events := benchWorkload(b, benchParams(), 10000, 1000)
	b.Run("disabled", func(b *testing.B) {
		matchLoop(b, benchEngine(b, apcm.Options{}, xs), events)
	})
	b.Run("enabled", func(b *testing.B) {
		reg := metrics.New()
		matchLoop(b, benchEngine(b, apcm.Options{Metrics: reg}, xs), events)
		if snap := reg.Snapshot(); len(snap) == 0 {
			b.Fatal("registry recorded nothing")
		}
	})
}

// ---- E14: broker end-to-end -----------------------------------------------------------------

func BenchmarkE14BrokerEndToEnd(b *testing.B) {
	xs, events := benchWorkload(b, benchParams(), 5000, 500)
	eng := benchEngine(b, apcm.Options{}, nil)
	for _, x := range xs {
		seed := &expr.Expression{ID: x.ID + 1<<40, Preds: x.Preds}
		if err := eng.Subscribe(seed); err != nil {
			b.Fatal(err)
		}
	}
	eng.Prepare()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := broker.NewServer(eng)
	srv.Logf = func(string, ...any) {}
	go srv.Serve(ln)
	b.Cleanup(srv.Close)
	c, err := broker.Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Publish(events[i%len(events)]); err != nil {
			b.Fatal(err)
		}
		if i%256 == 255 || i == b.N-1 {
			// Barrier: an acknowledged request on the same connection
			// proves the server has processed every prior publish.
			if err := c.Unsubscribe(expr.ID(1 << 50)); err == nil {
				b.Fatal("barrier unsubscribe unexpectedly succeeded")
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// ---- E19: sharded matching tier ---------------------------------------

// envInt reads an integer override from the environment, for CI smoke
// runs and paper-scale reruns of the same benchmark
// (APCM_E19_SUBS=1000000 go test -bench E19 -benchtime 1x).
func envInt(name string, def int) int {
	v := os.Getenv(name)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		return def
	}
	return n
}

// benchGroup streams nsubs fresh workload expressions into a group and
// returns it with a matching event stream. Subscriptions are never
// materialised as a slice, so paper-scale counts keep setup memory flat.
func benchGroup(b *testing.B, shards, nsubs, nev int) (*shard.Group, []*expr.Event) {
	b.Helper()
	p := benchParams()
	p.PlantPoolSize = 65536
	g, err := workload.New(p)
	if err != nil {
		b.Fatal(err)
	}
	grp, err := shard.New(shard.Options{Shards: shards, Workers: 0})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(grp.Close)
	for i := 0; i < nsubs; i++ {
		if err := grp.Subscribe(g.Expression()); err != nil {
			b.Fatal(err)
		}
	}
	grp.Prepare()
	return grp, g.Events(nev)
}

// BenchmarkE19ShardSweep is the testing.B twin of experiment E19: batch
// match throughput through a shard.Group at each shard count, with the
// single-event p99 reported alongside. APCM_E19_SUBS overrides the
// subscription count (default 20000; EXPERIMENTS.md E19 records the
// full 100k–5M sweep through cmd/apcm-bench).
func BenchmarkE19ShardSweep(b *testing.B) {
	nsubs := envInt("APCM_E19_SUBS", 20000)
	const batch = 256
	for _, sc := range []int{1, 2, 4, 8, 16} {
		b.Run("subs="+strconv.Itoa(nsubs)+"/shards="+itoa(sc), func(b *testing.B) {
			grp, events := benchGroup(b, sc, nsubs, 2000)
			var r apcm.BatchResult
			grp.MatchBatchInto(events[:batch], &r) // warm
			// p99 of the single-event path, sampled before the timed
			// batch loop so it never perturbs the throughput number.
			h := metrics.NewLatencyHistogram()
			var dst []expr.ID
			for i := 0; i < 2000; i++ {
				ev := events[i%len(events)]
				t0 := time.Now()
				dst = grp.MatchAppend(dst[:0], ev)
				h.ObserveDuration(time.Since(t0))
			}
			b.ReportAllocs()
			b.ResetTimer()
			n := 0
			for i := 0; i < b.N; i++ {
				off := (i * batch) % len(events)
				end := off + batch
				if end > len(events) {
					end = len(events)
				}
				grp.MatchBatchInto(events[off:end], &r)
				n += end - off
			}
			b.StopTimer()
			b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "events/s")
			b.ReportMetric(h.Quantile(0.99), "p99-ns")
		})
	}
}

// ---- cold start: LoadSubscriptions ------------------------------------

// BenchmarkLoadSubscriptions measures the cold-start path — restoring a
// subscription trace into an empty matcher — for a single engine and a
// 4-shard group (which loads shards in parallel). The trace is built in
// memory once; every iteration replays it into a fresh instance.
// APCM_LOAD_SUBS overrides the subscription count (default 100000; set
// 1000000 for the paper-scale point).
func BenchmarkLoadSubscriptions(b *testing.B) {
	nsubs := envInt("APCM_LOAD_SUBS", 100000)
	p := benchParams()
	p.PlantPoolSize = 65536
	g, err := workload.New(p)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, trace.KindExpressions, nsubs)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < nsubs; i++ {
		if err := tw.WriteExpression(g.Expression()); err != nil {
			b.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()

	b.Run("subs="+strconv.Itoa(nsubs)+"/engine", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e, err := apcm.New(apcm.Options{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			n, err := e.LoadSubscriptions(bytes.NewReader(data))
			if err != nil || n != nsubs {
				b.Fatalf("loaded %d, err %v", n, err)
			}
			e.Close()
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N*nsubs)/b.Elapsed().Seconds(), "subs/s")
	})
	b.Run("subs="+strconv.Itoa(nsubs)+"/group=4", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			grp, err := shard.New(shard.Options{Shards: 4, Workers: 0})
			if err != nil {
				b.Fatal(err)
			}
			n, err := grp.LoadSubscriptions(bytes.NewReader(data))
			if err != nil || n != nsubs {
				b.Fatalf("loaded %d, err %v", n, err)
			}
			grp.Close()
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N*nsubs)/b.Elapsed().Seconds(), "subs/s")
	})
}
