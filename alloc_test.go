package apcm_test

import (
	"runtime"
	"testing"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
)

// Allocation regression gates for the zero-allocation hot path. The
// steady state of Match, MatchBatchInto and the OSR flush/recycle cycle
// must not allocate; a tolerance of 0.5 allocs/run absorbs the rare
// sync.Pool refill after a GC cycle empties the scratch pool mid-run
// (the same tolerance the scheduler's alloc gate uses).
const allocTolerance = 0.5

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("race runtime makes sync.Pool drop puts at random; alloc gates only hold on plain builds")
	}
}

func allocEngine(tb testing.TB, seed int64, nexprs int) (*apcm.Engine, []*expr.Event) {
	tb.Helper()
	g := testWorkload(seed)
	// Workers: 1 keeps the engine pool-free so the gates measure the
	// sequential hot path deterministically on any host.
	e := apcm.MustNew(apcm.Options{Workers: 1})
	tb.Cleanup(e.Close)
	for _, x := range g.Expressions(nexprs) {
		if err := e.Subscribe(x); err != nil {
			tb.Fatal(err)
		}
	}
	e.Prepare()
	return e, g.Events(256)
}

func TestMatchSteadyStateZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	e, events := allocEngine(t, 31, 3000)
	dst := make([]expr.ID, 0, 1024)
	for _, ev := range events { // warm scratch pool, caches, adaptive state
		dst = e.MatchAppend(dst[:0], ev)
	}
	i := 0
	avg := testing.AllocsPerRun(400, func() {
		dst = e.MatchAppend(dst[:0], events[i%len(events)])
		i++
	})
	if avg > allocTolerance {
		t.Fatalf("MatchAppend allocates %.2f/op in steady state, want 0", avg)
	}
}

// TestMatchDefaultOptionsZeroAllocs gates MatchAppend at the product
// default, apcm.Options{}: with GOMAXPROCS > 1 the engine carries a
// worker pool, which a single-event match must never touch.
func TestMatchDefaultOptionsZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	g := testWorkload(43)
	e := apcm.MustNew(apcm.Options{})
	defer e.Close()
	if got, want := e.Stats().Workers, runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("default engine has %d workers, want GOMAXPROCS = %d", got, want)
	}
	if _, err := e.SubscribeBulk(g.Expressions(3000)); err != nil {
		t.Fatal(err)
	}
	e.Prepare()
	events := g.Events(256)
	dst := make([]expr.ID, 0, 1024)
	for _, ev := range events { // warm scratch pool, caches, adaptive state
		dst = e.MatchAppend(dst[:0], ev)
	}
	i := 0
	avg := testing.AllocsPerRun(400, func() {
		dst = e.MatchAppend(dst[:0], events[i%len(events)])
		i++
	})
	if avg > allocTolerance {
		t.Fatalf("MatchAppend at default options allocates %.2f/op in steady state, want 0", avg)
	}
}

func TestMatchBatchIntoSteadyStateZeroAllocs(t *testing.T) {
	skipUnderRace(t)
	e, events := allocEngine(t, 37, 3000)
	batch := events[:128]
	var r apcm.BatchResult
	for k := 0; k < 8; k++ { // warm: grow r's buffers and the scratch
		e.MatchBatchInto(batch, &r)
	}
	avg := testing.AllocsPerRun(100, func() {
		e.MatchBatchInto(batch, &r)
	})
	if avg > allocTolerance {
		t.Fatalf("MatchBatchInto allocates %.2f/op in steady state, want 0", avg)
	}
}

// TestMatchBatchDoesNotAllocateBeyondResults gates the MatchBatch
// wrapper: it borrows its packed BatchResult from a pool and returns it,
// so a steady-state call allocates the outer slice and one copy per
// non-empty segment, nothing more.
func TestMatchBatchDoesNotAllocateBeyondResults(t *testing.T) {
	skipUnderRace(t)
	e, events := allocEngine(t, 41, 3000)
	batch := events[:128]
	want := 1.0
	for _, ids := range e.MatchBatch(batch) {
		if len(ids) > 0 {
			want++
		}
	}
	for k := 0; k < 8; k++ { // warm the result pool and the scratch
		e.MatchBatch(batch)
	}
	avg := testing.AllocsPerRun(100, func() {
		e.MatchBatch(batch)
	})
	if avg > want+allocTolerance {
		t.Fatalf("MatchBatch allocates %.2f/op in steady state, want %.0f (1 + non-empty segments)", avg, want)
	}
}
