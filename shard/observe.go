package shard

import (
	"fmt"
	"sync/atomic"

	"github.com/streammatch/apcm/internal/coldstart"
	"github.com/streammatch/apcm/metrics"
)

// shardCounter is an atomic counter padded to a cache line; one per
// shard, so instrumented fan-outs on different shards never false-share.
type shardCounter struct {
	n atomic.Int64
	_ [56]byte
}

// groupMetrics holds the group's instruments. It is nil when no
// registry is attached (Options.Metrics == nil); the fan-out path
// guards on that single nil check and, uninstrumented, takes no
// timestamps and touches no atomics.
type groupMetrics struct {
	fanLatency   *metrics.Histogram // per fan-out: all shards matched
	mergeLatency *metrics.Histogram // per fan-out: per-shard results merged
	events       []shardCounter     // events fanned out, per shard
	coldstart    *coldstart.Metrics // LoadSubscriptions restores
}

// countEvents records n events fanned out to every shard.
func (m *groupMetrics) countEvents(n int) {
	for s := range m.events {
		m.events[s].n.Add(int64(n))
	}
}

// attachMetrics registers the group's instruments and read-time gauges
// on reg. Called once from New, after the shards and pool exist. Shard
// engines themselves are not instrumented (N shards would register
// colliding names); the group exposes the per-shard view under
// apcm_shard_* with a shard label, and records its restores under the
// engine's apcm_coldstart_* names.
func (g *Group) attachMetrics(reg *metrics.Registry) {
	m := &groupMetrics{
		fanLatency:   reg.Histogram("apcm_shard_fanout_latency_ns", "per-call latency of fanning one event or batch out to every shard"),
		mergeLatency: reg.Histogram("apcm_shard_merge_latency_ns", "per-call latency of merging per-shard results into the caller's buffer"),
		events:       make([]shardCounter, len(g.shards)),
		coldstart:    coldstart.NewMetrics(reg),
	}
	g.met = m

	reg.GaugeFunc("apcm_shard_count", "engine shards in the group", func() float64 {
		return float64(len(g.shards))
	})
	reg.GaugeFunc("apcm_shard_group_subscriptions", "live subscriptions across all shards", func() float64 {
		return float64(g.Len())
	})
	for s := range g.shards {
		s := s
		reg.GaugeFunc(fmt.Sprintf("apcm_shard_subscriptions{shard=\"%d\"}", s),
			"live subscriptions on this shard", func() float64 {
				return float64(g.shards[s].Len())
			})
		reg.GaugeFunc(fmt.Sprintf("apcm_shard_mem_bytes{shard=\"%d\"}", s),
			"estimated index heap footprint of this shard", func() float64 {
				return float64(g.shards[s].Stats().MemBytes)
			})
		reg.CounterFunc(fmt.Sprintf("apcm_shard_events_total{shard=\"%d\"}", s),
			"events fanned out to this shard", func() float64 {
				return float64(m.events[s].n.Load())
			})
	}
}
