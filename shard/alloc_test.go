package shard_test

import (
	"math"
	"runtime"
	"testing"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/shard"
)

// Allocation regression gates for the fan-out hot path: a steady-state
// Group match — fan out to every shard, merge into the caller's buffer —
// must not allocate, exactly like a single engine's. Same tolerance as
// the engine's gates: 0.5 allocs/run absorbs the rare sync.Pool refill
// after a GC cycle empties a job pool mid-run.
const allocTolerance = 0.5

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("race runtime makes sync.Pool drop puts at random; alloc gates only hold on plain builds")
	}
}

// allocGroup builds a 4-shard group with the given fan-out pool size.
// Workers: 1 keeps the fan-out sequential on the calling goroutine so a
// gate measures the merge path deterministically on any host; Workers: 2
// takes the pooled fan-out, the path the repo benchmark measures.
func allocGroup(tb testing.TB, seed int64, nexprs, workers int) (*shard.Group, []*expr.Event) {
	tb.Helper()
	w := testWorkload(seed)
	g := shard.MustNew(shard.Options{Shards: 4, Workers: workers})
	tb.Cleanup(g.Close)
	subscribeAll(tb, g, w.Expressions(nexprs))
	g.Prepare()
	return g, w.Events(256)
}

// pooledAllocsPerRun is testing.AllocsPerRun at GOMAXPROCS(2).
// AllocsPerRun pins GOMAXPROCS to 1 while it measures, which sends the
// fan-out down the single-core inline loop; this keeps two procs so
// the fan-out runs on the worker pool. Mallocs is process-wide, so
// allocations on the pool's worker goroutines count too.
//
// It returns the lowest of a few consecutive windows. Each engine's
// pooled batch scratch grows to fit on first use on each proc, and a
// shard's scratch may reach a proc for the first time well after the
// warm-up, so an early window can carry those one-off growths. An
// allocation on every call, or on every other call, shows in every
// window.
func pooledAllocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	f() // warm-up, as AllocsPerRun does
	lowest := math.Inf(1)
	for window := 0; window < 4 && lowest > 0; window++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		lowest = min(lowest, float64(after.Mallocs-before.Mallocs)/float64(runs))
	}
	return lowest
}

// allocsPerRun measures the average heap allocations of one f call.
type allocsPerRun func(runs int, f func()) float64

func TestGroupMatchSteadyStateZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	g, events := allocGroup(t, 31, 3000, 1)
	assertMatchAppendZeroAllocs(t, g, events, testing.AllocsPerRun)
}

func TestGroupMatchBatchIntoSteadyStateZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	g, events := allocGroup(t, 37, 3000, 1)
	assertMatchBatchIntoZeroAllocs(t, g, events, testing.AllocsPerRun)
}

func TestGroupPooledMatchSteadyStateZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	g, events := allocGroup(t, 31, 3000, 2)
	assertMatchAppendZeroAllocs(t, g, events, pooledAllocsPerRun)
}

func TestGroupPooledMatchBatchIntoSteadyStateZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	g, events := allocGroup(t, 37, 3000, 2)
	assertMatchBatchIntoZeroAllocs(t, g, events, pooledAllocsPerRun)
}

func assertMatchAppendZeroAllocs(t *testing.T, g *shard.Group, events []*expr.Event, measure allocsPerRun) {
	t.Helper()
	dst := make([]expr.ID, 0, 1024)
	for _, ev := range events { // warm job pools, scratch, adaptive state
		dst = g.MatchAppend(dst[:0], ev)
	}
	i := 0
	avg := measure(400, func() {
		dst = g.MatchAppend(dst[:0], events[i%len(events)])
		i++
	})
	if avg > allocTolerance {
		t.Fatalf("Group.MatchAppend allocates %.2f/op in steady state, want 0", avg)
	}
}

func assertMatchBatchIntoZeroAllocs(t *testing.T, g *shard.Group, events []*expr.Event, measure allocsPerRun) {
	t.Helper()
	var r apcm.BatchResult
	for i := 0; i < 8; i++ { // warm per-shard results and the merge buffer
		g.MatchBatchInto(events, &r)
	}
	avg := measure(50, func() {
		g.MatchBatchInto(events, &r)
	})
	if avg > allocTolerance {
		t.Fatalf("Group.MatchBatchInto allocates %.2f/op in steady state, want 0", avg)
	}
}
