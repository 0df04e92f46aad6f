package apcm_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/workload"
)

func testWorkload(seed int64) *workload.Generator {
	p := workload.Default()
	p.Seed = seed
	p.NumAttrs = 25
	p.Cardinality = 50
	p.EventAttrs = 8
	p.PredsMin, p.PredsMax = 1, 4
	p.MatchFraction = 0.3
	p.WNegated = 0.05
	return workload.MustNew(p)
}

func sorted(ids []expr.ID) []expr.ID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// matchOracle is the reference semantics: every subscription in xs
// whose MatchesEvent holds for ev, in ascending id order.
func matchOracle(xs []*expr.Expression, ev *expr.Event) []expr.ID {
	var want []expr.ID
	for _, x := range xs {
		if x.MatchesEvent(ev) {
			want = append(want, x.ID)
		}
	}
	return sorted(want)
}

// engineWorkers are the worker counts the differential tests run the
// Engine at: fully sequential, and a pool wide enough for several
// parallel batch chunks (the only work the pool serves besides Prepare).
var engineWorkers = []int{1, 4}

func TestAlgorithmsAgree(t *testing.T) {
	g := testWorkload(1)
	xs := g.Expressions(1500)
	events := g.Events(400)

	for _, workers := range engineWorkers {
		e := apcm.MustNew(apcm.Options{Workers: workers})
		defer e.Close()
		for _, x := range xs {
			if err := e.Subscribe(x); err != nil {
				t.Fatal(err)
			}
		}
		for i, ev := range events {
			if got, want := sorted(e.Match(ev)), matchOracle(xs, ev); !equalIDs(got, want) {
				t.Fatalf("workers=%d event %d: got %v, oracle %v", workers, i, got, want)
			}
		}
	}
}

// TestConcurrentMatchAgreesWithOracle runs Match from several goroutines
// on one default engine: concurrent callers are the single-event
// parallelism axis, so each must still see exactly the oracle's answer.
func TestConcurrentMatchAgreesWithOracle(t *testing.T) {
	g := testWorkload(5)
	xs := g.Expressions(1500)
	e := apcm.MustNew(apcm.Options{})
	defer e.Close()
	if _, err := e.SubscribeBulk(xs); err != nil {
		t.Fatal(err)
	}
	const callers, perCaller = 4, 200
	events := g.Events(callers * perCaller)
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(evs []*expr.Event) {
			defer wg.Done()
			for i, ev := range evs {
				if got, want := sorted(e.Match(ev)), matchOracle(xs, ev); !equalIDs(got, want) {
					errs <- fmt.Errorf("event %d: got %v, oracle %v", i, got, want)
					return
				}
			}
		}(events[c*perCaller : (c+1)*perCaller])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestMatchBatchAgreesWithMatch(t *testing.T) {
	g := testWorkload(2)
	xs := g.Expressions(1000)
	events := g.Events(200)
	for _, workers := range engineWorkers {
		e := apcm.MustNew(apcm.Options{Workers: workers})
		for _, x := range xs {
			if err := e.Subscribe(x); err != nil {
				t.Fatal(err)
			}
		}
		batch := e.MatchBatch(events)
		for i, ev := range events {
			want := matchOracle(xs, ev)
			if single := sorted(e.Match(ev)); !equalIDs(single, want) {
				t.Fatalf("workers=%d: Match(event %d) = %v, oracle %v", workers, i, single, want)
			}
			if got := sorted(batch[i]); !equalIDs(got, want) {
				t.Fatalf("workers=%d: batch[%d] = %v, oracle %v", workers, i, got, want)
			}
		}
		e.Close()
	}
}

func TestSubscribeUnsubscribe(t *testing.T) {
	e := apcm.MustNew(apcm.Options{})
	defer e.Close()
	id, err := e.SubscribePreds(expr.Eq(1, 5), expr.Ge(2, 10))
	if err != nil {
		t.Fatal(err)
	}
	ev := expr.MustEvent(expr.P(1, 5), expr.P(2, 15))
	if got := e.Match(ev); len(got) != 1 || got[0] != id {
		t.Fatalf("Match = %v, want [%d]", got, id)
	}
	if e.Len() != 1 {
		t.Fatalf("Len = %d", e.Len())
	}
	if !e.Unsubscribe(id) {
		t.Fatal("Unsubscribe failed")
	}
	if e.Unsubscribe(id) {
		t.Fatal("double Unsubscribe succeeded")
	}
	if got := e.Match(ev); len(got) != 0 {
		t.Fatalf("match after unsubscribe: %v", got)
	}
}

func TestSubscribePredsValidates(t *testing.T) {
	e := apcm.MustNew(apcm.Options{})
	defer e.Close()
	if _, err := e.SubscribePreds(); err == nil {
		t.Fatal("empty predicate list should fail")
	}
	if _, err := e.SubscribePreds(expr.Predicate{Attr: 1, Op: expr.Between, Lo: 5, Hi: 1}); err == nil {
		t.Fatal("invalid predicate should fail")
	}
}

// TestSubscribeRejectsMalformedExpressions hands Subscribe and
// SubscribeBulk expressions built without expr.New, next to a compiled
// pool on attribute 1. Indexed, the one without predicates matched
// {a1=500} but not {a2=5}, and the one with unsorted predicates matched
// {a1=3, a2=2} although MatchesEvent says it does not: the compiled
// kernel assumes attribute-sorted, non-empty predicate lists. With
// Options.Normalize the empty one made Normalize panic.
func TestSubscribeRejectsMalformedExpressions(t *testing.T) {
	bad := []*expr.Expression{
		{ID: 99},
		{ID: 100, Preds: []expr.Predicate{expr.Eq(1, 1), expr.Eq(2, 2), expr.Le(1, 5)}},
	}
	events := []*expr.Event{
		expr.MustEvent(expr.P(1, 500)),
		expr.MustEvent(expr.P(2, 5)),
		expr.MustEvent(expr.P(1, 3), expr.P(2, 2)),
	}
	for _, c := range []struct{ bulk, normalize bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		e := apcm.MustNew(apcm.Options{Normalize: c.normalize})
		var good []*expr.Expression
		for i := 0; i < 16; i++ {
			good = append(good, expr.MustNew(expr.ID(i+1), expr.Ge(1, expr.Value(i))))
		}
		if _, err := e.SubscribeBulk(good); err != nil {
			t.Fatal(err)
		}
		e.Prepare()
		for _, x := range bad {
			if c.bulk {
				next := expr.MustNew(x.ID+100, expr.Ge(1, 0))
				if n, err := e.SubscribeBulk([]*expr.Expression{next, x, next}); err == nil || n != 1 {
					t.Fatalf("SubscribeBulk with expression %d = %d, %v; want 1 and an error", x.ID, n, err)
				}
				good = append(good, next)
			} else if err := e.Subscribe(x); err == nil {
				t.Fatalf("Subscribe accepted expression %d", x.ID)
			}
		}
		if e.Len() != len(good) {
			t.Fatalf("%+v: Len = %d, want %d", c, e.Len(), len(good))
		}
		for _, ev := range events {
			if got, want := sorted(e.Match(ev)), matchOracle(good, ev); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%+v: Match(%v) = %v, want %v", c, ev, got, want)
			}
		}
		e.Close()
	}
}

func TestDuplicateSubscribe(t *testing.T) {
	e := apcm.MustNew(apcm.Options{})
	defer e.Close()
	x := expr.MustNew(7, expr.Eq(1, 1))
	if err := e.Subscribe(x); err != nil {
		t.Fatal(err)
	}
	if err := e.Subscribe(x); err == nil {
		t.Fatal("duplicate id should fail")
	}
}

func TestNewIDUnique(t *testing.T) {
	e := apcm.MustNew(apcm.Options{})
	defer e.Close()
	seen := map[expr.ID]bool{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := e.NewID()
				mu.Lock()
				if seen[id] {
					t.Errorf("duplicate id %d", id)
				}
				seen[id] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestCloseSemantics(t *testing.T) {
	e := apcm.MustNew(apcm.Options{Workers: 2})
	if _, err := e.SubscribePreds(expr.Eq(1, 1)); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent
	if err := e.Subscribe(expr.MustNew(99, expr.Eq(1, 1))); err != apcm.ErrClosed {
		t.Fatalf("Subscribe after close = %v, want ErrClosed", err)
	}
	if got := e.Match(expr.MustEvent(expr.P(1, 1))); got != nil {
		t.Fatalf("Match after close = %v", got)
	}
	if e.Len() != 0 {
		t.Fatalf("Len after close = %d", e.Len())
	}
	if e.Unsubscribe(1) {
		t.Fatal("Unsubscribe after close succeeded")
	}
}

func TestConcurrentSubscribeAndMatch(t *testing.T) {
	g := testWorkload(3)
	xs := g.Expressions(2000)
	events := g.Events(100)
	e := apcm.MustNew(apcm.Options{Workers: 4})
	defer e.Close()
	for _, x := range xs[:1000] {
		if err := e.Subscribe(x); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, x := range xs[1000:] {
			if err := e.Subscribe(x); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			e.Match(events[i%len(events)])
		}
	}()
	wg.Wait()
	if e.Len() != 2000 {
		t.Fatalf("Len = %d", e.Len())
	}
}

func TestStats(t *testing.T) {
	g := testWorkload(4)
	e := apcm.MustNew(apcm.Options{Workers: 2})
	defer e.Close()
	for _, x := range g.Expressions(1000) {
		if err := e.Subscribe(x); err != nil {
			t.Fatal(err)
		}
	}
	e.Prepare()
	st := e.Stats()
	if st.Subscriptions != 1000 {
		t.Fatalf("Subscriptions = %d", st.Subscriptions)
	}
	if st.Workers != 2 {
		t.Fatalf("Workers = %d", st.Workers)
	}
	if st.MemBytes <= 0 {
		t.Fatal("MemBytes should be positive")
	}
	if st.CompiledClusters == 0 {
		t.Fatal("Prepare compiled nothing")
	}
	if st.CompressionRatio <= 0 {
		t.Fatal("CompressionRatio should be positive after Prepare")
	}
}

func TestNormalizeOption(t *testing.T) {
	e := apcm.MustNew(apcm.Options{Workers: 1, Normalize: true})
	defer e.Close()
	// Redundant predicates collapse but matching is unchanged.
	id, err := e.SubscribePreds(expr.Ge(1, 100), expr.Ge(1, 150), expr.Le(1, 300))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Match(expr.MustEvent(expr.P(1, 200))); len(got) != 1 || got[0] != id {
		t.Fatalf("got %v", got)
	}
	if got := e.Match(expr.MustEvent(expr.P(1, 120))); len(got) != 0 {
		t.Fatalf("normalization changed semantics: %v", got)
	}
	// Unsatisfiable subscriptions are rejected up front.
	if _, err := e.SubscribePreds(expr.Eq(1, 1), expr.Eq(1, 2)); err != apcm.ErrUnsatisfiable {
		t.Fatalf("unsat subscribe = %v, want ErrUnsatisfiable", err)
	}
}

func TestClustersDiagnostics(t *testing.T) {
	g := testWorkload(9)
	e := apcm.MustNew(apcm.Options{Workers: 1})
	defer e.Close()
	for _, x := range g.Expressions(2000) {
		if err := e.Subscribe(x); err != nil {
			t.Fatal(err)
		}
	}
	e.Prepare()
	for _, ev := range g.Events(200) {
		e.Match(ev)
	}
	cs := e.Clusters()
	if len(cs) == 0 {
		t.Fatal("no cluster diagnostics after Prepare")
	}
	totalLive, probed := 0, 0
	for _, c := range cs {
		if c.Live < 0 || c.Tombstones < 0 {
			t.Fatalf("negative member counts: %+v", c)
		}
		if c.PredSlots < c.DistinctPreds || c.Attrs <= 0 || c.MemBytes <= 0 {
			t.Fatalf("implausible cluster info: %+v", c)
		}
		totalLive += c.Live
		if c.EwmaCompressedNs > 0 {
			probed++
		}
	}
	if totalLive > 2000 {
		t.Fatalf("clusters hold %d live members, more than subscribed", totalLive)
	}
	if probed == 0 {
		t.Fatal("no cluster was ever probed despite matching")
	}
}

// TestMatchEventRefilledInPlace matches one *expr.Event, rewrites it in
// place through the same pointer and matches it again: the second Match must
// see the new values. A scan kernel that keyed its per-event value table
// by the event pointer would answer from the old values.
func TestMatchEventRefilledInPlace(t *testing.T) {
	e := apcm.MustNew(apcm.Options{Workers: 1})
	defer e.Close()
	id, err := e.SubscribePreds(expr.Ge(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	ev := expr.MustEvent(expr.P(1, 20))
	if got := e.Match(ev); len(got) != 1 || got[0] != id {
		t.Fatalf("a1=20: got %v, want [%d]", got, id)
	}
	*ev = *expr.MustEvent(expr.P(1, 5))
	if got := e.Match(ev); len(got) != 0 {
		t.Fatalf("a1=5 after refilling the event: got %v, want no match", got)
	}
	*ev = *expr.MustEvent(expr.P(1, 30))
	if got := e.Match(ev); len(got) != 1 || got[0] != id {
		t.Fatalf("a1=30 after refilling the event: got %v, want [%d]", got, id)
	}
}
