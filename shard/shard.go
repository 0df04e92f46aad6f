// Package shard partitions a subscription space across multiple
// apcm.Engine instances behind one Engine-shaped facade. A Group owns N
// independently-locked engines ("shards"); subscriptions are routed to
// exactly one shard by a partitioning strategy, while every event is
// fanned out to all shards — a matching event may satisfy subscriptions
// anywhere — and the per-shard results are merged into the caller's
// buffer.
//
// The point of the split is horizontal scale. Each shard carries 1/N of
// the subscription index behind its own RWMutex, so subscription churn
// on one shard never blocks matching on the others, and the fan-out
// runs the shards on a persistent worker pool (internal/sched), giving
// match parallelism that grows with shard count on multi-core hosts.
// Shard costs are tracked with per-shard EWMAs fed by periodic probes
// and handed to sched.Pool.RunWeighted, so a skewed partition (one hot
// shard) is balanced across lanes instead of serialising one.
//
// The Group implements the Engine surface the rest of the stack is
// written against — Subscribe, Unsubscribe, Match, MatchAppend,
// MatchBatchInto, LoadSubscriptions, SaveSubscriptions,
// CheckpointSubscriptions — so broker.Server and the benchmark harness
// run unchanged against either. See DESIGN.md §10 for the model and its
// invariants.
package shard

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/sched"
	"github.com/streammatch/apcm/metrics"
)

// Strategy selects how subscriptions are partitioned across shards.
type Strategy int

const (
	// HashID routes each subscription by a mixed hash of its expression
	// id: uniform occupancy regardless of workload shape, and O(1)
	// Unsubscribe (the owning shard is recomputable from the id). The
	// default.
	HashID Strategy = iota
	// AttrRange routes each subscription by its lowest constrained
	// attribute, splitting the attribute space [0, AttrSpace) into N
	// contiguous ranges. Subscriptions over adjacent attributes cluster
	// on the same shard — better per-shard compression and cache
	// coherence on attribute-skewed workloads — at the price of
	// occupancy tracking the workload's attribute distribution and
	// Unsubscribe probing shards (the owning shard is not recoverable
	// from the id alone).
	AttrRange
)

// String names the strategy as used in benchmark tables.
func (s Strategy) String() string {
	switch s {
	case HashID:
		return "hash-id"
	case AttrRange:
		return "attr-range"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Options configures a Group. The zero value builds a single-shard
// group of default engines — valid, but the point is Shards > 1.
type Options struct {
	// Shards is the number of engine partitions. 0 means GOMAXPROCS
	// (one shard per core, the natural fan-out width).
	Shards int

	// Strategy selects the subscription partitioning; default HashID.
	Strategy Strategy

	// AttrSpace bounds the attribute ids AttrRange splits over; ids at
	// or beyond it land on the last shard. 0 means 1024. Ignored by
	// HashID.
	AttrSpace int

	// Workers sets the fan-out pool size. 0 means GOMAXPROCS; 1 fans
	// out sequentially on the calling goroutine.
	Workers int

	// Engine configures every shard's engine. Engine.Workers defaults
	// to 1 — shard fan-out is the parallelism axis, and per-shard
	// worker pools on top of it would oversubscribe the host; set it
	// explicitly to layer intra-shard parallelism anyway.
	// Engine.Metrics is ignored: N shards registering the same engine
	// metric names would collide, so per-shard visibility comes from
	// the group's own apcm_shard_* instruments (see Options.Metrics).
	Engine apcm.Options

	// Metrics, when non-nil, receives the group's instrumentation:
	// per-shard event counters, fan-out and merge latency histograms,
	// per-shard subscription/cost gauges, the imbalance ratio and the
	// apcm_coldstart_* restore instruments. Nil — the default — keeps
	// the fan-out path free of timestamps and atomics, mirroring the
	// engine's discipline.
	Metrics *metrics.Registry
}

// probeEvery is the fan-out period between per-shard cost probes: one
// event in probeEvery is timed per shard to feed the cost EWMAs that
// weight RunWeighted's lane slicing. Must be a power of two.
const probeEvery = 64

// costAlpha is the EWMA decay for per-shard cost estimates.
const costAlpha = 0.8

// shardCost is a float64-bits cost EWMA padded to a cache line so
// concurrent probe updates on neighbouring shards never false-share.
type shardCost struct {
	bits atomic.Uint64
	_    [56]byte
}

// Group is N engines behind one Engine-shaped facade. Create with New,
// release with Close. The Group is safe for concurrent use with the
// same contract as apcm.Engine: Subscribe/Unsubscribe may race with
// Match freely; the group's engines are exclusively owned (do not
// Subscribe to a shard directly — routing and snapshot consistency
// depend on every write going through the Group).
type Group struct {
	opts      Options
	shards    []*apcm.Engine
	pool      *sched.Pool
	attrSpace int

	// mu orders everything against Close and snapshots: matches and
	// writers take it shared (the per-shard engine locks provide the
	// actual mutual exclusion), while SaveSubscriptions — whose record
	// count, declared up front, cannot drift while shards are streamed
	// out — and Close take it exclusively. Holding it across Close also
	// upholds sched.Pool's contract that Run never races Close.
	mu     sync.RWMutex //apcm:lockrank=1
	closed bool

	// nextID is the group-wide id allocator; per-shard engine
	// allocators are unused so ids are unique across the whole group.
	nextID atomic.Uint64

	// fanSeq counts fan-outs; every probeEvery-th one times each shard
	// to refresh costs.
	costs  []shardCost
	fanSeq atomic.Uint64

	fanJobs   sync.Pool // *fanJob
	batchJobs sync.Pool // *batchJob

	// met is non-nil iff Options.Metrics was set; see observe.go.
	met *groupMetrics
}

// New builds a Group of opts.Shards engines.
func New(opts Options) (*Group, error) {
	if opts.Shards < 0 {
		return nil, fmt.Errorf("shard: negative shard count %d", opts.Shards)
	}
	if opts.Shards == 0 {
		opts.Shards = runtime.GOMAXPROCS(0)
	}
	if opts.AttrSpace <= 0 {
		opts.AttrSpace = 1024
	}
	if opts.Strategy != HashID && opts.Strategy != AttrRange {
		return nil, fmt.Errorf("shard: unknown strategy %v", opts.Strategy)
	}
	eopts := opts.Engine
	if eopts.Workers == 0 {
		eopts.Workers = 1
	}
	eopts.Metrics = nil
	g := &Group{opts: opts, attrSpace: opts.AttrSpace, costs: make([]shardCost, opts.Shards)}
	g.shards = make([]*apcm.Engine, opts.Shards)
	for s := range g.shards {
		e, err := apcm.New(eopts)
		if err != nil {
			for _, built := range g.shards[:s] {
				built.Close()
			}
			return nil, err
		}
		g.shards[s] = e
	}
	g.pool = sched.NewPool(opts.Workers)
	g.fanJobs.New = func() any { return newFanJob(g) }
	g.batchJobs.New = func() any { return newBatchJob(g) }
	if opts.Metrics != nil {
		g.attachMetrics(opts.Metrics)
	}
	return g, nil
}

// MustNew is New for tests and examples; it panics on invalid Options.
func MustNew(opts Options) *Group {
	g, err := New(opts)
	if err != nil {
		panic(err)
	}
	return g
}

// Shards returns the number of engine partitions.
func (g *Group) Shards() int { return len(g.shards) }

// NewID allocates a fresh subscription id, unique within this Group.
// Always allocate through the Group, never through a shard engine: the
// group-wide allocator is what keeps ids collision-free across shards.
func (g *Group) NewID() expr.ID {
	return expr.ID(g.nextID.Add(1))
}

// mix64 is the splitmix64 finalizer: sequential ids (the common case —
// NewID counts up) spread uniformly across shards.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (g *Group) idShard(id expr.ID) int {
	return int(mix64(uint64(id)) % uint64(len(g.shards)))
}

// attrShard maps an attribute id to the shard owning its range.
func (g *Group) attrShard(a expr.AttrID) int {
	v := int(a)
	if v >= g.attrSpace {
		v = g.attrSpace - 1
	}
	if v < 0 {
		v = 0
	}
	return v * len(g.shards) / g.attrSpace
}

// shardOf routes x to its owning shard under the configured strategy.
func (g *Group) shardOf(x *expr.Expression) int {
	if g.opts.Strategy == AttrRange {
		min := x.Preds[0].Attr
		for i := 1; i < len(x.Preds); i++ {
			if x.Preds[i].Attr < min {
				min = x.Preds[i].Attr
			}
		}
		return g.attrShard(min)
	}
	return g.idShard(x.ID)
}

// Subscribe indexes x on its owning shard. The expression's ID must be
// unique among live subscriptions (use NewID). With Engine.Normalize
// set, x is canonicalised by the shard and ErrUnsatisfiable surfaces
// unchanged.
func (g *Group) Subscribe(x *expr.Expression) error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	err := g.shards[g.shardOf(x)].Subscribe(x)
	if err == nil {
		// Keep NewID clear of externally-chosen ids, as the engine's
		// loader does.
		g.advanceID(x.ID)
	}
	return err
}

// SubscribePreds builds an expression from preds under a fresh group
// id and indexes it, returning the id.
func (g *Group) SubscribePreds(preds ...expr.Predicate) (expr.ID, error) {
	x, err := expr.New(g.NewID(), preds...)
	if err != nil {
		return 0, err
	}
	if err := g.Subscribe(x); err != nil {
		return 0, err
	}
	return x.ID, nil
}

// Unsubscribe removes the subscription with the given id, reporting
// whether it was present. Under HashID the owning shard is recomputed
// from the id; under AttrRange the shards are probed in order.
func (g *Group) Unsubscribe(id expr.ID) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.opts.Strategy == HashID {
		return g.shards[g.idShard(id)].Unsubscribe(id)
	}
	for _, e := range g.shards {
		if e.Unsubscribe(id) {
			return true
		}
	}
	return false
}

// Len returns the number of live subscriptions across all shards.
func (g *Group) Len() int {
	n := 0
	for _, e := range g.shards {
		n += e.Len()
	}
	return n
}

// Prepare eagerly compiles every shard's compressed clusters, shards in
// parallel across the fan-out pool — the same axis LoadSubscriptions
// parallelises, and together with it the cold-start path.
func (g *Group) Prepare() {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.closed {
		return
	}
	g.pool.Run(len(g.shards), func(_, s int) {
		g.shards[s].Prepare()
	})
}

// advanceID lifts the id allocator to at least id, so NewID never
// collides with an externally-chosen or restored subscription id.
func (g *Group) advanceID(id expr.ID) {
	for {
		cur := g.nextID.Load()
		if cur >= uint64(id) || g.nextID.CompareAndSwap(cur, uint64(id)) {
			return
		}
	}
}

// costNs returns shard s's per-event cost EWMA in nanoseconds.
func (g *Group) costNs(s int) float64 {
	return math.Float64frombits(g.costs[s].bits.Load())
}

// observeCost blends a probed duration into shard s's EWMA. Concurrent
// probes may race the read-modify-write; the feedback loop tolerates
// lost updates (same policy as sched.Pool.tune).
func (g *Group) observeCost(s int, ns int64) {
	ew := g.costNs(s)
	if ew == 0 {
		ew = float64(ns)
	} else {
		ew = costAlpha*ew + (1-costAlpha)*float64(ns)
	}
	g.costs[s].bits.Store(math.Float64bits(ew))
}

// imbalance is the max/avg ratio of per-shard cost EWMAs: 1.0 means the
// partitions cost the same to match, higher means one shard dominates
// the fan-out. 0 before any probe.
func (g *Group) imbalance() float64 {
	var mx, sum float64
	n := 0
	for s := range g.costs {
		c := g.costNs(s)
		if c > 0 {
			n++
			sum += c
			if c > mx {
				mx = c
			}
		}
	}
	if n == 0 || sum == 0 {
		return 0
	}
	return mx * float64(n) / sum
}

// ShardStats describes one shard of a group snapshot.
type ShardStats struct {
	Subscriptions int
	MemBytes      int64
	// CostNs is the shard's per-event match cost EWMA from fan-out
	// probes (0 before any probe).
	CostNs float64
	// Events counts events fanned out to this shard (recorded only with
	// metrics attached).
	Events int64
}

// Stats describes the group's state for tables and diagnostics.
type Stats struct {
	Shards        int
	Strategy      Strategy
	Workers       int
	Subscriptions int
	MemBytes      int64
	// Imbalance is the max/avg per-shard cost EWMA (1.0 = balanced
	// partitions, 0 = unprobed).
	Imbalance float64
	PerShard  []ShardStats
}

// Stats returns a snapshot of group statistics.
func (g *Group) Stats() Stats {
	st := Stats{
		Shards:   len(g.shards),
		Strategy: g.opts.Strategy,
		Workers:  g.pool.Workers(),
		PerShard: make([]ShardStats, len(g.shards)),
	}
	for s, e := range g.shards {
		es := e.Stats()
		ss := ShardStats{
			Subscriptions: es.Subscriptions,
			MemBytes:      es.MemBytes,
			CostNs:        g.costNs(s),
		}
		if g.met != nil {
			ss.Events = g.met.events[s].n.Load()
		}
		st.PerShard[s] = ss
		st.Subscriptions += ss.Subscriptions
		st.MemBytes += ss.MemBytes
	}
	st.Imbalance = g.imbalance()
	return st
}

// Close releases every shard engine and the fan-out pool. Further
// Subscribes return apcm.ErrClosed and Matches return nil. Close is
// idempotent.
func (g *Group) Close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return
	}
	g.closed = true
	for _, e := range g.shards {
		e.Close()
	}
	g.pool.Close()
}
