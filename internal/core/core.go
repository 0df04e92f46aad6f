// Package core implements the paper's contribution: parallel compressed
// event matching (PCM) and its adaptive variant (A-PCM).
//
// The matcher clusters subscriptions with a BE-Tree (internal/betree)
// and compiles every sufficiently large pool into a compressed cluster:
// per-member attribute masks for a one-pass eligibility test,
// per-attribute equality unions (one probe of a value-sorted slice
// evaluates every distinct equality predicate on an attribute at once)
// and dictionaries of distinct non-equality predicates, each entry
// carrying a bitset of the members that contain it. Matching an event is then word-wide
// Boolean algebra over the whole cluster instead of per-subscription
// interpretation; see kernel.go for the exact steps. Updates maintain
// compiled clusters incrementally (appends into slack capacity,
// tombstone deletions) and recompile lazily otherwise; see compile.go.
//
// Compression wins when clusters share predicates and selectivity is
// low; it loses on heterogeneous clusters where the uncompressed
// short-circuiting scan touches far fewer predicates. A-PCM therefore
// keeps per-cluster exponentially-weighted cost estimates for both
// kernels (wall-clock, refreshed by periodic probes that run both
// kernels on the same event) and routes each cluster to its cheaper
// kernel.
//
// Concurrency contract: Insert and Delete require external write
// exclusion (no concurrent writers or matchers). MatchWith may be called
// concurrently from many goroutines, each with its own Scratch; lazy
// cluster compilation and adaptive state are internally synchronised.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/betree"
)

// Mode selects the matching kernel policy.
type Mode int

const (
	// ModeAdaptive picks per cluster between the compressed and the
	// uncompressed kernel using online cost estimates (A-PCM).
	ModeAdaptive Mode = iota
	// ModeCompressed always uses the compressed kernel on every
	// compilable cluster (PCM).
	ModeCompressed
	// ModeUncompressed never compresses; matching is a BE-Tree with
	// large pools (the ablation baseline).
	ModeUncompressed
)

// String names the mode for tables and logs.
func (m Mode) String() string {
	switch m {
	case ModeAdaptive:
		return "A-PCM"
	case ModeCompressed:
		return "PCM"
	case ModeUncompressed:
		return "uncompressed"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config tunes the matcher.
type Config struct {
	// Mode selects the kernel policy. The zero value is ModeAdaptive.
	Mode Mode
	// Tree configures the clustering BE-Tree. Compressed matching likes
	// larger pools than sequential matching; the zero value is
	// {MaxPool: 256, MaxClusterDepth: 32}.
	Tree betree.Config
	// MinCompressSize is the smallest pool worth compiling; smaller pools
	// are always scanned. Default 8.
	MinCompressSize int
	// ProbeInterval is the number of events a cluster serves between
	// adaptive probes (runs of both kernels on one event). Default 64.
	ProbeInterval int
	// Decay is the weight kept by the old cost estimate at each probe,
	// in (0,1). Default 0.8.
	Decay float64
}

// DefaultConfig returns the configuration used by the benchmarks.
func DefaultConfig() Config {
	return Config{
		Mode:            ModeAdaptive,
		Tree:            betree.Config{MaxPool: 256, MaxClusterDepth: 32},
		MinCompressSize: 8,
		ProbeInterval:   64,
		Decay:           0.8,
	}
}

func (c *Config) sanitize() {
	if c.Tree.MaxPool <= 0 {
		c.Tree.MaxPool = 256
	}
	if c.MinCompressSize <= 1 {
		c.MinCompressSize = 8
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 64
	}
	if c.Decay <= 0 || c.Decay >= 1 {
		c.Decay = 0.8
	}
}

// Matcher is the compressed matcher. Create with New.
type Matcher struct {
	cfg  Config
	tree *betree.Tree

	// cmu guards the clusters map; individual clusterState values carry
	// their own synchronisation.
	cmu      sync.RWMutex
	clusters map[*betree.Pool]*clusterState

	// Adaptive-policy observability: probe runs and kernel flips across
	// all clusters (see adaptive.go). Without these the adaptivity that
	// is A-PCM's whole point is invisible in a running system.
	probes atomic.Int64
	flipsC atomic.Int64 // flips to the compressed kernel
	flipsU atomic.Int64 // flips to the uncompressed (scan) kernel

	// scratch backs the plain MatchAppend entry point (single-threaded
	// use); parallel callers bring their own via NewScratch/MatchWith.
	scratch *Scratch
}

// New returns an empty matcher.
func New(cfg Config) *Matcher {
	cfg.sanitize()
	m := &Matcher{
		cfg:      cfg,
		tree:     betree.New(cfg.Tree),
		clusters: make(map[*betree.Pool]*clusterState),
	}
	m.scratch = m.NewScratch()
	return m
}

// Insert adds x to the index. If the destination pool's cluster is
// compiled and has slack, the new member is appended incrementally;
// otherwise the cluster goes stale and is recompiled lazily on its next
// match. A pool that the insert split below MinCompressSize loses its
// cluster. Insert must not run concurrently with matching (see the
// package contract).
func (m *Matcher) Insert(x *expr.Expression) error {
	pool, split, err := m.tree.InsertPool(x)
	if err != nil {
		return err
	}
	if m.cfg.Mode == ModeUncompressed {
		return nil
	}
	if split != nil {
		m.dropShrunk(split)
	}
	m.cmu.RLock()
	cs := m.clusters[pool]
	m.cmu.RUnlock()
	if cs != nil {
		if c := cs.compiled.Load(); c != nil {
			c.tryAppend(pool, x)
		}
	}
	return nil
}

// InsertBulk adds xs to the index in order, stopping at the first
// failure; it returns the number inserted. It is Insert amortized for
// bulk restores: appended members are bucketed per destination pool and
// each compiled cluster incorporates its whole batch with a single
// generation check (tryAppendBatch) instead of one per subscription.
// Same write contract as Insert.
func (m *Matcher) InsertBulk(xs []*expr.Expression) (int, error) {
	maintain := m.cfg.Mode != ModeUncompressed
	if maintain {
		// A cold matcher has nothing compiled, hence nothing to maintain;
		// skip the bucketing entirely (the common restore case).
		m.cmu.RLock()
		maintain = len(m.clusters) > 0
		m.cmu.RUnlock()
	}
	if !maintain {
		for i, x := range xs {
			if _, _, err := m.tree.InsertPool(x); err != nil {
				return i, err
			}
		}
		return len(xs), nil
	}
	inserted, ierr := len(xs), error(nil)
	var pools []*betree.Pool // distinct destination pools, first-touch order
	var splits []*betree.Pool
	byPool := make(map[*betree.Pool][]*expr.Expression)
	for i, x := range xs {
		p, split, err := m.tree.InsertPool(x)
		if err != nil {
			inserted, ierr = i, err
			break
		}
		if split != nil {
			splits = append(splits, split)
		}
		if _, ok := byPool[p]; !ok {
			pools = append(pools, p)
		}
		byPool[p] = append(byPool[p], x)
	}
	if len(splits) > 0 {
		m.dropShrunk(splits...)
	}
	m.cmu.RLock()
	for _, p := range pools {
		if cs := m.clusters[p]; cs != nil {
			if c := cs.compiled.Load(); c != nil {
				c.tryAppendBatch(p, byPool[p])
			}
		}
	}
	m.cmu.RUnlock()
	return inserted, ierr
}

// Delete removes the expression with the given id. A compiled cluster
// tombstones the member in place when possible instead of recompiling;
// a pool that falls below MinCompressSize loses its cluster.
func (m *Matcher) Delete(id expr.ID) bool {
	pool, ok := m.tree.DeletePool(id)
	if !ok {
		return false
	}
	if m.cfg.Mode != ModeUncompressed {
		m.cmu.RLock()
		cs := m.clusters[pool]
		m.cmu.RUnlock()
		switch {
		case cs == nil:
		case len(pool.Exprs) < m.cfg.MinCompressSize:
			m.dropShrunk(pool)
		default:
			if c := cs.compiled.Load(); c != nil {
				c.tryTombstone(pool, id)
			}
		}
	}
	return true
}

// dropShrunk forgets the compiled clusters of the given pools that now
// hold fewer than MinCompressSize members. matchPool scans those pools
// and never reads their cluster again, so keeping it would only pin its
// memory and inflate Stats, Clusters and MemBytes. A pool that grows
// back compiles afresh.
func (m *Matcher) dropShrunk(pools ...*betree.Pool) {
	m.cmu.Lock()
	for _, p := range pools {
		if len(p.Exprs) < m.cfg.MinCompressSize {
			delete(m.clusters, p)
		}
	}
	m.cmu.Unlock()
}

// Size returns the number of indexed expressions.
func (m *Matcher) Size() int { return m.tree.Size() }

// ForEach visits every indexed expression. Must not run concurrently
// with Insert or Delete.
func (m *Matcher) ForEach(fn func(*expr.Expression) bool) { m.tree.ForEach(fn) }

// MatchAppend appends the ids of all matching expressions to dst. It
// uses the matcher's internal scratch and is therefore not reentrant;
// concurrent matchers must use MatchWith with their own Scratch.
func (m *Matcher) MatchAppend(dst []expr.ID, e *expr.Event) []expr.ID {
	return m.MatchWith(m.scratch, dst, e)
}

// Scratch holds per-goroutine match state: the survivor bitset and the
// candidate pool list. Obtain with NewScratch; never share between
// concurrent matchers.
type Scratch struct {
	kern     kernelScratch
	pools    []*betree.Pool
	probeIDs []expr.ID // probe-time scan results, discarded after costing
}

// NewScratch returns a Scratch for use with MatchWith.
func (m *Matcher) NewScratch() *Scratch { return &Scratch{} }

// MatchWith appends the ids of all matching expressions to dst, using s
// for temporary state. Safe for concurrent use with distinct Scratch
// values, provided no Insert/Delete runs concurrently.
//
//apcm:hotpath
func (m *Matcher) MatchWith(s *Scratch, dst []expr.ID, e *expr.Event) []expr.ID {
	s.kern.vt.forget()
	s.pools = m.tree.CollectPoolsAppend(s.pools[:0], e)
	for _, p := range s.pools {
		dst = m.matchPool(s, dst, p, e)
	}
	return dst
}

// matchPool matches e against a single candidate pool, appending matches
// to dst. Safe for concurrent use with distinct Scratch values.
func (m *Matcher) matchPool(s *Scratch, dst []expr.ID, p *betree.Pool, e *expr.Event) []expr.ID {
	if m.cfg.Mode == ModeUncompressed || len(p.Exprs) < m.cfg.MinCompressSize {
		return scanPool(&s.kern, p.Exprs, e, dst)
	}
	cs := m.clusterFor(p)
	switch m.cfg.Mode {
	case ModeCompressed:
		return cs.compiled.Load().matchCompressed(&s.kern, e, dst)
	default:
		return m.matchAdaptive(cs, s, dst, p, e)
	}
}

// clusterFor returns an up-to-date cluster state for p, compiling it if
// missing or stale.
func (m *Matcher) clusterFor(p *betree.Pool) *clusterState {
	m.cmu.RLock()
	cs := m.clusters[p]
	m.cmu.RUnlock()
	if cs != nil {
		if c := cs.compiled.Load(); c != nil && c.gen == p.Gen && !c.needsRebuild() {
			return cs
		}
	}
	m.cmu.Lock()
	defer m.cmu.Unlock()
	cs = m.clusters[p]
	if cs == nil {
		cs = newClusterState()
		m.clusters[p] = cs
	}
	if c := cs.compiled.Load(); c == nil || c.gen != p.Gen || c.needsRebuild() {
		cs.compiled.Store(compile(p))
	}
	return cs
}

// Stats summarises compression across all clusters compiled so far.
type Stats struct {
	Tree              betree.Stats
	CompiledClusters  int
	MemberSlots       int // Σ cluster members
	PredicateSlots    int // Σ per-member predicates (uncompressed volume)
	DistinctPreds     int // Σ dictionary entries (compressed volume)
	CompressedBytes   int64
	ArenaBytes        int64 // Σ cluster arena slab bytes (see internal/core/arena.go)
	CompressedServing int   // clusters currently routed to the compressed kernel

	// Adaptive-policy counters, cumulative since matcher creation.
	Probes              int64 // events served by both kernels for costing
	FlipsToCompressed   int64 // cluster re-decisions toward the compressed kernel
	FlipsToUncompressed int64 // cluster re-decisions toward the scan kernel
}

// CompressionRatio is PredicateSlots / DistinctPreds: how many predicate
// evaluations each dictionary evaluation replaces.
func (s Stats) CompressionRatio() float64 {
	if s.DistinctPreds == 0 {
		return 0
	}
	return float64(s.PredicateSlots) / float64(s.DistinctPreds)
}

// AdaptiveCounters reports the cumulative adaptive-policy counters
// without touching the cluster map — cheap enough for metric scrapes.
func (m *Matcher) AdaptiveCounters() (probes, flipsToCompressed, flipsToUncompressed int64) {
	return m.probes.Load(), m.flipsC.Load(), m.flipsU.Load()
}

// Stats returns current compression statistics. It compiles nothing; only
// clusters visited by earlier matches are counted. Its cost is per
// cluster, not per posting: the posting census is in Clusters.
func (m *Matcher) Stats() Stats {
	st := Stats{
		Tree:                m.tree.Stats(),
		Probes:              m.probes.Load(),
		FlipsToCompressed:   m.flipsC.Load(),
		FlipsToUncompressed: m.flipsU.Load(),
	}
	m.cmu.RLock()
	defer m.cmu.RUnlock()
	for _, cs := range m.clusters {
		c := cs.compiled.Load()
		st.CompiledClusters++
		st.MemberSlots += c.live()
		st.PredicateSlots += c.predSlots
		st.DistinctPreds += c.distinctPreds
		st.CompressedBytes += c.memoryBytes()
		st.ArenaBytes += c.arena.bytes()
		if cs.mode.Load() == int32(kernelCompressed) {
			st.CompressedServing++
		}
	}
	return st
}

// ClusterInfo describes one compiled cluster for diagnostics.
type ClusterInfo struct {
	Members       int // slots in use (live + tombstoned)
	Live          int
	Tombstones    int
	Attrs         int // cluster-local attribute universe size
	PredSlots     int
	DistinctPreds int
	MemBytes      int64
	Compressed    bool // currently routed to the compressed kernel
	// Cost estimates from adaptive probes, ns/event (0 before any probe).
	EwmaCompressedNs float64
	EwmaScanNs       float64
	// Posting representations chosen by the density rule (see
	// bitset.SparseMaxFor) and the ids held by the sparse ones.
	DensePostings     int
	SparsePostings    int
	SparseMemberSlots int
	// PostingHist is a log2-bucketed posting-density histogram: bucket i
	// counts postings with member count in [2^(i-1), 2^i).
	PostingHist [12]int
}

// Clusters snapshots every compiled cluster's diagnostics.
func (m *Matcher) Clusters() []ClusterInfo {
	m.cmu.RLock()
	defer m.cmu.RUnlock()
	out := make([]ClusterInfo, 0, len(m.clusters))
	for _, cs := range m.clusters {
		c := cs.compiled.Load()
		ewmaC, ewmaU, mode := cs.estimates()
		t := c.tally()
		out = append(out, ClusterInfo{
			Members:           c.n,
			Live:              c.live(),
			Tombstones:        c.tombs,
			Attrs:             c.nAttrs,
			PredSlots:         c.predSlots,
			DistinctPreds:     c.distinctPreds,
			MemBytes:          c.memoryBytes(),
			Compressed:        mode == kernelCompressed,
			EwmaCompressedNs:  ewmaC,
			EwmaScanNs:        ewmaU,
			DensePostings:     t.Dense,
			SparsePostings:    t.Sparse,
			SparseMemberSlots: t.SparseMembers,
			PostingHist:       t.Hist,
		})
	}
	return out
}

// PrepareAll eagerly compiles every pool large enough to compress, so
// that first-match latency excludes compilation (benchmarks call this
// after loading).
func (m *Matcher) PrepareAll() {
	if m.cfg.Mode == ModeUncompressed {
		return
	}
	m.tree.Pools(func(p *betree.Pool) {
		if len(p.Exprs) >= m.cfg.MinCompressSize {
			m.clusterFor(p)
		}
	})
}

// PrepareAllWith is PrepareAll with the compilations fanned out through
// run (typically sched.Pool.Run): each pool compiles independently into
// its own arena, so after a bulk restore — where compilation is the
// dominant remaining cold-start cost — the compiles parallelize
// cleanly. run must execute fn(i) for every i in [0, n) and
// return only when all have completed. Same write contract as
// PrepareAll: no concurrent matchers or writers.
func (m *Matcher) PrepareAllWith(run func(n int, fn func(idx int))) {
	if m.cfg.Mode == ModeUncompressed {
		return
	}
	var todo []*betree.Pool
	m.cmu.RLock()
	m.tree.Pools(func(p *betree.Pool) {
		if len(p.Exprs) < m.cfg.MinCompressSize {
			return
		}
		if cs := m.clusters[p]; cs != nil {
			if c := cs.compiled.Load(); c != nil && c.gen == p.Gen && !c.needsRebuild() {
				return
			}
		}
		todo = append(todo, p)
	})
	m.cmu.RUnlock()
	if len(todo) == 0 {
		return
	}
	built := make([]*compiled, len(todo))
	run(len(todo), func(i int) {
		built[i] = compile(todo[i])
	})
	m.cmu.Lock()
	for i, p := range todo {
		cs := m.clusters[p]
		if cs == nil {
			cs = newClusterState()
			m.clusters[p] = cs
		}
		cs.compiled.Store(built[i])
	}
	m.cmu.Unlock()
}

// MemBytes estimates the total heap footprint: tree plus compiled
// clusters.
func (m *Matcher) MemBytes() int64 {
	b := m.tree.MemBytes()
	m.cmu.RLock()
	defer m.cmu.RUnlock()
	for _, cs := range m.clusters {
		b += cs.compiled.Load().memoryBytes()
	}
	return b
}
