package core

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/betree"
)

type kernel int32

const (
	kernelUncompressed kernel = iota
	kernelCompressed
)

// clusterState pairs a cluster's compiled form with its adaptive state.
// The compiled pointer is replaced wholesale (under Matcher.cmu) when the
// pool mutates; mode and counters survive recompilation so a cluster's
// learned behaviour is not forgotten on every update.
type clusterState struct {
	// compiled is published wholesale: recompilation builds a fresh
	// value and Stores it; the match path Loads it with no lock held.
	// In-place append/tombstone repairs go through the compiled
	// value's own guarded entry points (tryAppend, tryTombstone), never
	// through naked field writes after publication.
	//apcm:publish
	compiled atomic.Pointer[compiled]

	// mode is the kernel serving non-probe events.
	mode atomic.Int32
	// events counts matches served, for probe scheduling.
	events atomic.Uint32

	// mu serialises probe updates; the estimates themselves are float64
	// bits in atomics so the diagnostics reader (Matcher.Clusters) never
	// waits on a probe.
	mu    sync.Mutex
	ewmaC atomic.Uint64 // compressed kernel cost estimate, ns/event
	ewmaU atomic.Uint64 // uncompressed kernel cost estimate, ns/event
}

func (cs *clusterState) ewmaCompressed() float64 { return math.Float64frombits(cs.ewmaC.Load()) }
func (cs *clusterState) ewmaScan() float64       { return math.Float64frombits(cs.ewmaU.Load()) }

func newClusterState() *clusterState {
	cs := &clusterState{}
	// Optimistic start: serve compressed until the first probe says
	// otherwise (the first event always probes).
	cs.mode.Store(int32(kernelCompressed))
	return cs
}

// matchAdaptive serves one event from cs: probe events run both kernels
// and refresh the cost estimates; all others run the currently chosen
// kernel.
func (m *Matcher) matchAdaptive(cs *clusterState, s *Scratch, dst []expr.ID, p *betree.Pool, e *expr.Event) []expr.ID {
	n := cs.events.Add(1)
	if n == 1 || n%uint32(m.cfg.ProbeInterval) == 0 {
		return m.probe(cs, s, dst, p, e)
	}
	if kernel(cs.mode.Load()) == kernelCompressed {
		dst, _ = cs.compiled.Load().matchCompressed(&s.kern, e, dst)
		return dst
	}
	dst, _ = scanPool(&s.kern, p.Exprs, e, dst)
	return dst
}

// probe runs both kernels on e (returning the compressed kernel's
// matches; the kernels agree by construction, which the equivalence
// tests verify) and re-decides the cluster's kernel from the updated
// estimates. Estimates are wall-clock nanoseconds: an abstract work-unit
// model proved too easy to miscalibrate against real hardware (word-wide
// bitset sweeps run far faster per "operation" than interpreted
// predicate evaluations), and the probe runs both kernels back-to-back
// on the same event anyway, so measuring them directly is both simpler
// and honest. The EWMA absorbs timer noise on microsecond-scale runs.
func (m *Matcher) probe(cs *clusterState, s *Scratch, dst []expr.ID, p *betree.Pool, e *expr.Event) []expr.ID {
	m.probes.Add(1)
	startU := time.Now()
	s.probeIDs, _ = scanPool(&s.kern, p.Exprs, e, s.probeIDs[:0])
	costU := float64(time.Since(startU))

	// measure=true folds per-group kill counts into the groupKill EWMAs,
	// so the selectivity order is refined on the same cadence as the
	// kernel choice. The wall-clock estimate automatically prices the
	// hybrid layout (sparse member loops, flat eq probes) correctly —
	// both kernels are timed as actually executed, so A-PCM keeps
	// picking the genuinely cheaper one per cluster.
	startC := time.Now()
	dst, _ = cs.compiled.Load().matchHybrid(&s.kern, e, dst, true)
	costC := float64(time.Since(startC))

	d := m.cfg.Decay
	cs.mu.Lock()
	ewmaC := cs.ewmaCompressed()
	if ewmaC == 0 {
		ewmaC = costC
	} else {
		ewmaC = d*ewmaC + (1-d)*costC
	}
	cs.ewmaC.Store(math.Float64bits(ewmaC))
	ewmaU := cs.ewmaScan()
	if ewmaU == 0 {
		ewmaU = costU
	} else {
		ewmaU = d*ewmaU + (1-d)*costU
	}
	cs.ewmaU.Store(math.Float64bits(ewmaU))
	// Hysteresis: leave the current kernel only when the other one is
	// estimated meaningfully cheaper. Single-run wall-clock probes carry
	// scheduler and cache noise; without a margin, clusters flap between
	// kernels on microsecond-scale jitter.
	const margin = 1.15
	switch kernel(cs.mode.Load()) {
	case kernelCompressed:
		if ewmaC > ewmaU*margin {
			cs.mode.Store(int32(kernelUncompressed))
			m.flipsU.Add(1)
		}
	default:
		if ewmaU > ewmaC*margin {
			cs.mode.Store(int32(kernelCompressed))
			m.flipsC.Add(1)
		}
	}
	cs.mu.Unlock()
	return dst
}

// Group-kill EWMA: kills observed per group visit, in 24.8 fixed point.
// Seeded statically by finalize, refreshed only on probe events (the
// popcounts it needs would be too dear per ordinary match).
const (
	killPointShift = 8 // fractional bits of the kill estimate
	killEwmaShift  = 2 // EWMA weight 1/4 per probe observation
)

// noteKills folds one probe-time observation — kills members killed by
// the group at local index li — into its EWMA. Concurrent probes race
// benignly: Load/Store atomics keep the race detector quiet and the
// estimate is heuristic, same contract as the arming policies.
func (c *compiled) noteKills(li int32, kills int) {
	v := uint32(kills) << killPointShift
	g := &c.groupKill[li]
	old := g.Load()
	if old == 0 {
		g.Store(v)
		return
	}
	g.Store(old - old>>killEwmaShift + v>>killEwmaShift)
}

// Estimates reports a cluster-state snapshot for tests and diagnostics.
func (cs *clusterState) estimates() (ewmaC, ewmaU float64, mode kernel) {
	return cs.ewmaCompressed(), cs.ewmaScan(), kernel(cs.mode.Load())
}
