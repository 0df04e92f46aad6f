package apcm

import (
	"fmt"

	"github.com/streammatch/apcm/internal/coldstart"
	"github.com/streammatch/apcm/metrics"
)

// engineMetrics holds the engine's instruments. It is nil when no
// registry is attached (Options.Metrics == nil), and every hot path
// guards on that single nil check — with metrics disabled the engine
// takes no timestamps and touches no atomics.
type engineMetrics struct {
	matchLatency    *metrics.Histogram // per Match/MatchAppend call
	matchesPerEvent *metrics.Histogram
	batchLatency    *metrics.Histogram // per MatchBatch call
	batchSize       *metrics.Histogram
	subscribes      *metrics.Counter
	unsubscribes    *metrics.Counter

	// Cold-start restore instruments (LoadSubscriptions and
	// RestoreSubscriptions over it), recorded by the restore loop.
	coldstart *coldstart.Metrics
}

// attachMetrics registers the engine's instruments and read-time gauges
// on reg. Called once from New, after the matcher and pool exist.
func (e *Engine) attachMetrics(reg *metrics.Registry) {
	m := &engineMetrics{
		matchLatency:    reg.Histogram("apcm_match_latency_ns", "single-event match latency"),
		matchesPerEvent: reg.HistogramShaped("apcm_matches_per_event", "subscriptions matched per event", 1, 2, 24),
		batchLatency:    reg.Histogram("apcm_match_batch_latency_ns", "MatchBatch call latency"),
		batchSize:       reg.HistogramShaped("apcm_match_batch_size", "events per MatchBatch call", 1, 2, 24),
		subscribes:      reg.Counter("apcm_subscribe_total", "successful Subscribe calls"),
		unsubscribes:    reg.Counter("apcm_unsubscribe_total", "successful Unsubscribe calls"),

		coldstart: coldstart.NewMetrics(reg),
	}
	e.met = m

	reg.GaugeFunc("apcm_subscriptions", "live subscriptions", func() float64 {
		return float64(e.Len())
	})
	reg.GaugeFunc("apcm_mem_bytes", "estimated index heap footprint", func() float64 {
		return float64(e.Stats().MemBytes)
	})
	reg.GaugeFunc("apcm_compiled_clusters", "compiled compressed clusters", func() float64 {
		return float64(e.Stats().CompiledClusters)
	})
	reg.GaugeFunc("apcm_compressed_serving", "clusters currently routed to the compressed kernel", func() float64 {
		return float64(e.Stats().CompressedServing)
	})
	reg.GaugeFunc("apcm_arena_bytes", "total backing size of compiled-cluster arenas", func() float64 {
		return float64(e.Stats().ArenaBytes)
	})
	reg.CounterFunc("apcm_adaptive_probes_total", "dual-kernel cost probes", func() float64 {
		p, _, _ := e.cm.AdaptiveCounters()
		return float64(p)
	})
	reg.CounterFunc("apcm_kernel_flips_compressed_total", "cluster flips to the compressed kernel", func() float64 {
		_, c, _ := e.cm.AdaptiveCounters()
		return float64(c)
	})
	reg.CounterFunc("apcm_kernel_flips_uncompressed_total", "cluster flips to the scan kernel", func() float64 {
		_, _, u := e.cm.AdaptiveCounters()
		return float64(u)
	})
	reg.CounterFunc("apcm_scratch_gets_total", "match scratch pool fetches", func() float64 {
		return float64(e.scratchGets.Load())
	})
	reg.CounterFunc("apcm_scratch_news_total", "match scratch pool misses (fresh allocations)", func() float64 {
		return float64(e.scratchNews.Load())
	})
	reg.GaugeFunc("apcm_scratch_recycle_ratio", "fraction of scratch fetches served by recycling", func() float64 {
		gets := e.scratchGets.Load()
		if gets == 0 {
			return 0
		}
		news := e.scratchNews.Load()
		return 1 - float64(news)/float64(gets)
	})
	if e.pool != nil {
		reg.GaugeFunc("apcm_pool_queue_depth", "scheduler jobs waiting in the queue", func() float64 {
			return float64(e.pool.Stats().QueueDepth)
		})
		reg.CounterFunc("apcm_pool_runs_total", "scheduler Run invocations", func() float64 {
			return float64(e.pool.Stats().Runs)
		})
		lanes := e.pool.Workers() + 1
		for w := 0; w < lanes; w++ {
			w := w
			reg.GaugeFunc(fmt.Sprintf("apcm_pool_worker_items{worker=\"%d\"}", w),
				"task items executed per worker lane (last lane = inline callers)",
				func() float64 {
					return float64(e.pool.Stats().WorkerItems[w])
				})
		}
	}
}
