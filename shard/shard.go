// Package shard partitions a subscription space across multiple
// apcm.Engine instances behind one Engine-shaped facade. A Group owns N
// independently-locked engines ("shards"); subscriptions are routed to
// exactly one shard by a hash of their id, while every event is fanned
// out to all shards — a matching event may satisfy subscriptions
// anywhere — and the per-shard results are merged into the caller's
// buffer.
//
// The point of the split is horizontal scale. Each shard carries 1/N of
// the subscription index behind its own RWMutex, so subscription churn
// on one shard never blocks matching on the others, and the fan-out
// runs the shards on a persistent worker pool (internal/sched), giving
// match parallelism that grows with shard count on multi-core hosts.
// Hash routing keeps the shards evenly loaded, so the fan-out hands the
// pool one task per shard.
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
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/sched"
	"github.com/streammatch/apcm/metrics"
)

// Options configures a Group. The zero value builds a single-shard
// group of default engines — valid, but the point is Shards > 1.
type Options struct {
	// Shards is the number of engine partitions. 0 means GOMAXPROCS
	// (one shard per core, the natural fan-out width).
	Shards int

	// Workers sets the fan-out pool size. 0 means GOMAXPROCS; 1 fans
	// out sequentially on the calling goroutine.
	Workers int

	// Engine configures every shard's engine. Engine.Workers defaults
	// to 1 — shard fan-out is the parallelism axis, and per-shard
	// worker pools on top of it would oversubscribe the host; set it
	// explicitly to shard each engine's MatchBatchInto chunks and
	// Prepare compilations as well. A single-event match inside a
	// shard runs on the fan-out lane that called it either way.
	// Engine.Metrics is ignored: N shards registering the same engine
	// metric names would collide, so per-shard visibility comes from
	// the group's own apcm_shard_* instruments (see Options.Metrics).
	Engine apcm.Options

	// Metrics, when non-nil, receives the group's instrumentation:
	// per-shard event counters, fan-out and merge latency histograms,
	// per-shard subscription and memory gauges and the apcm_coldstart_*
	// restore instruments. Nil — the default — keeps the fan-out path
	// free of timestamps and atomics, mirroring the engine's discipline.
	Metrics *metrics.Registry
}

// Group is N engines behind one Engine-shaped facade. Create with New,
// release with Close. The Group is safe for concurrent use with the
// same contract as apcm.Engine: Subscribe/Unsubscribe may race with
// Match freely; the group's engines are exclusively owned (do not
// Subscribe to a shard directly — routing and snapshot consistency
// depend on every write going through the Group).
type Group struct {
	shards []*apcm.Engine
	pool   *sched.Pool

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
	eopts := opts.Engine
	if eopts.Workers == 0 {
		eopts.Workers = 1
	}
	eopts.Metrics = nil
	g := &Group{shards: make([]*apcm.Engine, opts.Shards)}
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

// shardOf routes id to its owning shard. The owner is a pure function
// of the id, so Unsubscribe finds it again without searching the shards.
func (g *Group) shardOf(id expr.ID) int {
	return int(mix64(uint64(id)) % uint64(len(g.shards)))
}

// Subscribe indexes x on its owning shard. The expression's ID must be
// unique among live subscriptions (use NewID). With Engine.Normalize
// set, x is canonicalised by the shard and ErrUnsatisfiable surfaces
// unchanged.
func (g *Group) Subscribe(x *expr.Expression) error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	err := g.shards[g.shardOf(x.ID)].Subscribe(x)
	if err == nil {
		// Keep NewID clear of externally-chosen ids, as the engine's
		// loader does.
		g.advanceID(x.ID)
	}
	return err
}

// Unsubscribe removes the subscription with the given id, reporting
// whether it was present.
func (g *Group) Unsubscribe(id expr.ID) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.shards[g.shardOf(id)].Unsubscribe(id)
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
	g.pool.Run(len(g.shards), func(s int) {
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

// ShardStats describes one shard of a group snapshot.
type ShardStats struct {
	Subscriptions int
	MemBytes      int64
	// Events counts events fanned out to this shard (recorded only with
	// metrics attached).
	Events int64
}

// Stats describes the group's state for tables and diagnostics.
type Stats struct {
	Shards        int
	Workers       int
	Subscriptions int
	MemBytes      int64
	PerShard      []ShardStats
}

// Stats returns a snapshot of group statistics.
func (g *Group) Stats() Stats {
	st := Stats{
		Shards:   len(g.shards),
		Workers:  g.pool.Workers(),
		PerShard: make([]ShardStats, len(g.shards)),
	}
	for s, e := range g.shards {
		es := e.Stats()
		ss := ShardStats{
			Subscriptions: es.Subscriptions,
			MemBytes:      es.MemBytes,
		}
		if g.met != nil {
			ss.Events = g.met.events[s].n.Load()
		}
		st.PerShard[s] = ss
		st.Subscriptions += ss.Subscriptions
		st.MemBytes += ss.MemBytes
	}
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
