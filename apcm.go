// Package apcm is a high-throughput matcher for Boolean expressions over
// event streams: a Go implementation of adaptive parallel compressed
// event matching (A-PCM) in the publish/subscribe style.
//
// Subscriptions are conjunctions of predicates (=, ≠, <, ≤, >, ≥,
// BETWEEN, IN, NOT IN) over discrete attributes; events assign values to
// attributes. The Engine indexes millions of subscriptions and reports,
// for each event, exactly the subscriptions it satisfies.
//
//	sch := expr.NewSchema()
//	eng, _ := apcm.New(apcm.Options{})
//	sub := expr.MustParse(sch, eng.NewID(), "price <= 500 and brand in {3, 7}")
//	_ = eng.Subscribe(sub)
//	matches := eng.Match(expr.MustParseEvent(sch, "price=300, brand=7"))
//
// Subscriptions cluster in a BE-Tree and each cluster is served by the
// compressed or the uncompressed kernel, whichever measures cheaper.
// The baselines the paper evaluates A-PCM against live under internal/
// and run through cmd/apcm-bench; see DESIGN.md for how they relate and
// EXPERIMENTS.md for measured comparisons.
package apcm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/core"
	"github.com/streammatch/apcm/internal/sched"
	"github.com/streammatch/apcm/metrics"
)

// Options configures an Engine. The zero value uses GOMAXPROCS workers
// and the default tuning.
type Options struct {
	// Workers sets the worker pool size that MatchBatchInto (and the
	// batch wrappers over it) shards event chunks across and Prepare
	// fans cluster compilations across. 0 means GOMAXPROCS; 1 runs
	// fully sequentially. A single-event Match always runs on the
	// calling goroutine; concurrent callers match in parallel.
	Workers int

	// ClusterSize bounds BE-Tree pools before they split. Compressed
	// matching prefers larger clusters. 0 means default (256).
	ClusterSize int

	// Normalize canonicalises subscriptions on Subscribe (merging
	// redundant predicates per attribute; see expr.Expression.Normalize)
	// and rejects provably unsatisfiable ones with ErrUnsatisfiable.
	// Canonical subscriptions cluster and compress better.
	Normalize bool

	// Metrics, when non-nil, receives engine instrumentation: match
	// latency histograms, batch sizes, subscription churn, cold-start
	// restore progress, adaptive kernel flips and worker-pool depth (see
	// DESIGN.md §6). Nil — the default — disables instrumentation at the
	// cost of a single pointer check per operation.
	Metrics *metrics.Registry
}

func (o *Options) sanitize() {
	if o.ClusterSize < 0 {
		o.ClusterSize = 0
	}
}

// Engine indexes subscriptions and matches events against them. Engines
// are safe for concurrent use: Subscribe/Unsubscribe take a write lock,
// Match/MatchBatch a read lock.
type Engine struct {
	opts Options

	mu     sync.RWMutex //apcm:lockrank=1
	closed bool

	cm *core.Matcher

	pool      *sched.Pool
	scratches sync.Pool // *core.Scratch

	// Scratch-pool effectiveness (recorded only with metrics attached):
	// gets per match operation vs. misses that allocated a fresh scratch.
	// recycle rate = 1 - news/gets.
	scratchGets atomic.Int64
	scratchNews atomic.Int64

	nextID atomic.Uint64

	// met is non-nil iff Options.Metrics was set; see observe.go.
	met *engineMetrics

	// DNF subscription groups (see dnf.go): groups maps a group id to
	// its member expression ids, alias maps each member back to its
	// group. Both are nil until the first SubscribeAny.
	groups map[expr.ID][]expr.ID
	alias  map[expr.ID]expr.ID
}

// New builds an Engine.
func New(opts Options) (*Engine, error) {
	opts.sanitize()
	cfg := core.DefaultConfig()
	if opts.ClusterSize > 0 {
		cfg.Tree.MaxPool = opts.ClusterSize
	}
	e := &Engine{opts: opts, cm: core.New(cfg)}
	e.scratches.New = func() any {
		e.scratchNews.Add(1)
		return e.cm.NewScratch()
	}
	if w := opts.Workers; w > 1 || (w <= 0 && runtime.GOMAXPROCS(0) > 1) {
		e.pool = sched.NewPool(w)
	}
	if opts.Metrics != nil {
		e.attachMetrics(opts.Metrics)
	}
	return e, nil
}

// MustNew is New for tests and examples; it panics on invalid Options.
func MustNew(opts Options) *Engine {
	e, err := New(opts)
	if err != nil {
		panic(err)
	}
	return e
}

// ErrClosed is returned by operations on a closed Engine.
var ErrClosed = fmt.Errorf("apcm: engine closed")

// ErrUnsatisfiable is returned by Subscribe (with Options.Normalize set)
// for subscriptions that can never match any event.
var ErrUnsatisfiable = fmt.Errorf("apcm: subscription is unsatisfiable")

// NewID allocates a fresh subscription id, unique within this Engine.
func (e *Engine) NewID() expr.ID {
	return expr.ID(e.nextID.Add(1))
}

// Subscribe indexes x. The expression's ID must be unique among live
// subscriptions. With Options.Normalize, x is canonicalised first and
// ErrUnsatisfiable is returned if it can never match.
func (e *Engine) Subscribe(x *expr.Expression) error {
	if e.opts.Normalize {
		nx, ok := x.Normalize()
		if !ok {
			return ErrUnsatisfiable
		}
		x = nx
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	err := e.cm.Insert(x)
	if err == nil && e.met != nil {
		e.met.subscribes.Inc()
	}
	return err
}

// SubscribeBulk indexes xs, returning the number of expressions
// subscribed and the first error. Expressions are inserted in order and
// insertion stops at the first failure: xs[:n] are subscribed, xs[n:]
// are not. One write lock covers the whole batch and compiled clusters
// absorb the batch in one step where possible, so bulk restores (see
// LoadSubscriptions) pay per-batch rather than per-subscription
// synchronisation. With Options.Normalize each expression is
// canonicalised first; an unsatisfiable one stops the batch with
// ErrUnsatisfiable.
func (e *Engine) SubscribeBulk(xs []*expr.Expression) (int, error) {
	if e.opts.Normalize {
		nxs := make([]*expr.Expression, 0, len(xs))
		for _, x := range xs {
			nx, ok := x.Normalize()
			if !ok {
				n, err := e.subscribeBulk(nxs)
				if err == nil {
					err = ErrUnsatisfiable
				}
				return n, err
			}
			nxs = append(nxs, nx)
		}
		xs = nxs
	}
	return e.subscribeBulk(xs)
}

func (e *Engine) subscribeBulk(xs []*expr.Expression) (int, error) {
	if len(xs) == 0 {
		return 0, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return 0, ErrClosed
	}
	n, err := e.cm.InsertBulk(xs)
	if n > 0 && e.met != nil {
		e.met.subscribes.Add(int64(n))
	}
	return n, err
}

// SubscribePreds builds an expression from preds under a fresh id and
// indexes it, returning the id.
func (e *Engine) SubscribePreds(preds ...expr.Predicate) (expr.ID, error) {
	x, err := expr.New(e.NewID(), preds...)
	if err != nil {
		return 0, err
	}
	if err := e.Subscribe(x); err != nil {
		return 0, err
	}
	return x.ID, nil
}

// Unsubscribe removes the subscription with the given id — a plain
// subscription or a whole DNF group — reporting whether it was present.
func (e *Engine) Unsubscribe(id expr.ID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	removed := false
	if wasGroup, ok := e.unsubscribeGroupLocked(id); wasGroup {
		removed = ok
	} else {
		removed = e.cm.Delete(id)
	}
	if removed && e.met != nil {
		e.met.unsubscribes.Inc()
	}
	return removed
}

// Len returns the number of live subscriptions. A DNF group counts as
// one subscription regardless of its number of conjunctions.
func (e *Engine) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return 0
	}
	return e.cm.Size() - (len(e.alias) - len(e.groups))
}

// Match returns the ids of all subscriptions matching ev (order
// unspecified). On a closed engine it returns nil.
func (e *Engine) Match(ev *expr.Event) []expr.ID {
	return e.MatchAppend(nil, ev)
}

// MatchAppend appends the ids of all subscriptions matching ev to dst
// and returns it. With live DNF groups, matched group ids are reported
// once even when several disjuncts match.
func (e *Engine) MatchAppend(dst []expr.ID, ev *expr.Event) []expr.ID {
	if m := e.met; m != nil {
		head := len(dst)
		start := time.Now()
		dst = e.matchAppendUninstrumented(dst, ev)
		m.matchLatency.ObserveDuration(time.Since(start))
		m.matchesPerEvent.Observe(float64(len(dst) - head))
		return dst
	}
	return e.matchAppendUninstrumented(dst, ev)
}

func (e *Engine) matchAppendUninstrumented(dst []expr.ID, ev *expr.Event) []expr.ID {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return dst
	}
	if e.hasAliases() {
		// Match into a fresh tail so only this event's ids are rewritten.
		head := len(dst)
		dst = e.matchAppendLocked(dst, ev)
		rewritten := e.translate(dst[head:])
		return dst[:head+len(rewritten)]
	}
	return e.matchAppendLocked(dst, ev)
}

// getScratch and putScratch wrap the scratch pool with recycle-rate
// accounting; the counter is only touched when metrics are attached so
// the uninstrumented hot path stays atomic-free.
func (e *Engine) getScratch() *core.Scratch {
	if e.met != nil {
		e.scratchGets.Add(1)
	}
	return e.scratches.Get().(*core.Scratch)
}

func (e *Engine) putScratch(s *core.Scratch) {
	e.scratches.Put(s)
}

// matchAppendLocked matches ev on the calling goroutine. The scratch
// is released by a plain call rather than a defer: a panic in a kernel
// only drops one pooled scratch.
//
//apcm:hotpath
func (e *Engine) matchAppendLocked(dst []expr.ID, ev *expr.Event) []expr.ID {
	s := e.getScratch()
	dst = e.cm.MatchWith(s, dst, ev)
	e.putScratch(s)
	return dst
}

// MatchBatch matches a batch of events, returning one id slice per
// event. It is a convenience wrapper over MatchBatchInto that allocates
// fresh, caller-owned result slices; throughput-sensitive callers should
// reuse a BatchResult with MatchBatchInto instead.
func (e *Engine) MatchBatch(events []*expr.Event) [][]expr.ID {
	if m := e.met; m != nil {
		start := time.Now()
		out := e.matchBatchUninstrumented(events)
		m.batchLatency.ObserveDuration(time.Since(start))
		m.batchSize.Observe(float64(len(events)))
		return out
	}
	return e.matchBatchUninstrumented(events)
}

// matchBatchUninstrumented runs the batch path and copies the packed
// segments into caller-owned slices.
func (e *Engine) matchBatchUninstrumented(events []*expr.Event) [][]expr.ID {
	out := make([][]expr.ID, len(events))
	if len(events) == 0 {
		return out
	}
	r := batchResults.Get().(*BatchResult)
	e.matchBatchInto(events, r)
	for i := range out {
		if seg := r.For(i); len(seg) > 0 {
			out[i] = append([]expr.ID(nil), seg...)
		}
	}
	batchResults.Put(r)
	return out
}

// Prepare eagerly compiles all compressed clusters so that subsequent
// matches pay no compilation cost.
func (e *Engine) Prepare() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	if e.pool != nil {
		// Clusters compile independently into private arenas, so fan the
		// compilations across the worker pool — after a bulk restore this
		// is the dominant remaining cold-start cost.
		e.cm.PrepareAllWith(e.pool.Run)
		return
	}
	e.cm.PrepareAll()
}

// Stats describes the engine's state for tables and diagnostics.
type Stats struct {
	Subscriptions    int
	Workers          int
	MemBytes         int64
	CompiledClusters int
	// ArenaBytes is the total backing size of compiled-cluster arenas
	// (the apcm_arena_bytes gauge).
	ArenaBytes int64
	// CompressionRatio is predicate slots per dictionary entry across
	// compiled clusters.
	CompressionRatio float64
	// CompressedServing counts clusters currently routed to the
	// compressed kernel (A-PCM adaptivity visibility).
	CompressedServing int
	// Probes counts dual-kernel cost probes and KernelFlips the cluster
	// kernel re-decisions they triggered, both directions, cumulative.
	Probes      int64
	KernelFlips int64
	// ScratchGets/ScratchNews describe scratch-pool recycling (recorded
	// only with metrics attached): recycle rate = 1 − News/Gets.
	ScratchGets int64
	ScratchNews int64
}

// Stats returns a snapshot of engine statistics.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	st := Stats{Workers: 1}
	if e.pool != nil {
		st.Workers = e.pool.Workers()
	}
	if e.closed {
		return st
	}
	st.ScratchGets = e.scratchGets.Load()
	st.ScratchNews = e.scratchNews.Load()
	st.Subscriptions = e.cm.Size()
	st.MemBytes = e.cm.MemBytes()
	cs := e.cm.Stats()
	st.CompiledClusters = cs.CompiledClusters
	st.ArenaBytes = cs.ArenaBytes
	st.CompressionRatio = cs.CompressionRatio()
	st.CompressedServing = cs.CompressedServing
	st.Probes = cs.Probes
	st.KernelFlips = cs.FlipsToCompressed + cs.FlipsToUncompressed
	return st
}

// ClusterInfo describes one compiled compressed cluster, for
// diagnostics and capacity planning (see cmd/apcm-inspect).
type ClusterInfo struct {
	// Members is the number of member slots in use (live + tombstoned).
	Members    int
	Live       int
	Tombstones int
	// Attrs is the number of distinct attributes the cluster constrains.
	Attrs int
	// PredSlots and DistinctPreds give the cluster's compression:
	// PredSlots predicates across members collapse to DistinctPreds
	// dictionary entries.
	PredSlots     int
	DistinctPreds int
	MemBytes      int64
	// Compressed reports whether the adaptive policy currently routes
	// this cluster to the compressed kernel.
	Compressed bool
	// Cost estimates from adaptive probes, ns/event (0 before any probe).
	EwmaCompressedNs float64
	EwmaScanNs       float64
	// Posting counts by the representation the density rule chose, and
	// the member ids the sparse ones hold.
	DensePostings     int
	SparsePostings    int
	SparseMemberSlots int
	// PostingHist is a log2-bucketed posting-density histogram: bucket i
	// counts postings with member count in [2^(i-1), 2^i).
	PostingHist [12]int
}

// Clusters snapshots per-cluster diagnostics.
func (e *Engine) Clusters() []ClusterInfo {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return nil
	}
	raw := e.cm.Clusters()
	out := make([]ClusterInfo, len(raw))
	for i, c := range raw {
		out[i] = ClusterInfo{
			Members:           c.Members,
			Live:              c.Live,
			Tombstones:        c.Tombstones,
			Attrs:             c.Attrs,
			PredSlots:         c.PredSlots,
			DistinctPreds:     c.DistinctPreds,
			MemBytes:          c.MemBytes,
			Compressed:        c.Compressed,
			EwmaCompressedNs:  c.EwmaCompressedNs,
			EwmaScanNs:        c.EwmaScanNs,
			DensePostings:     c.DensePostings,
			SparsePostings:    c.SparsePostings,
			SparseMemberSlots: c.SparseMemberSlots,
			PostingHist:       c.PostingHist,
		}
	}
	return out
}

// Close releases the worker pool. Further Subscribes return ErrClosed
// and Matches return nil. Close is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	if e.pool != nil {
		e.pool.Close()
	}
}
