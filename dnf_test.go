package apcm_test

import (
	"bytes"
	"testing"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
)

func TestSubscribeAnyMatchesAnyDisjunct(t *testing.T) {
	for _, workers := range engineWorkers {
		e := apcm.MustNew(apcm.Options{Workers: workers})
		gid, err := e.SubscribeAny(
			[]expr.Predicate{expr.Eq(1, 5)},
			[]expr.Predicate{expr.Ge(2, 100), expr.Lt(3, 10)},
		)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		cases := []struct {
			ev   *expr.Event
			want bool
		}{
			{expr.MustEvent(expr.P(1, 5)), true},                 // first disjunct
			{expr.MustEvent(expr.P(2, 150), expr.P(3, 5)), true}, // second disjunct
			{expr.MustEvent(expr.P(1, 4)), false},
			{expr.MustEvent(expr.P(2, 150), expr.P(3, 15)), false}, // second fails
		}
		for i, c := range cases {
			got := e.Match(c.ev)
			if c.want && (len(got) != 1 || got[0] != gid) {
				t.Fatalf("workers=%d case %d: got %v, want [%d]", workers, i, got, gid)
			}
			if !c.want && len(got) != 0 {
				t.Fatalf("workers=%d case %d: got %v, want none", workers, i, got)
			}
		}
		e.Close()
	}
}

func TestSubscribeAnyDeduplicates(t *testing.T) {
	e := apcm.MustNew(apcm.Options{Workers: 1})
	defer e.Close()
	// Both disjuncts match the same event: the group must be reported once.
	gid, err := e.SubscribeAny(
		[]expr.Predicate{expr.Ge(1, 0)},
		[]expr.Predicate{expr.Le(1, 100)},
	)
	if err != nil {
		t.Fatal(err)
	}
	got := e.Match(expr.MustEvent(expr.P(1, 50)))
	if len(got) != 1 || got[0] != gid {
		t.Fatalf("got %v, want exactly [%d]", got, gid)
	}
	// Batch path must deduplicate too.
	batch := e.MatchBatch([]*expr.Event{expr.MustEvent(expr.P(1, 50))})
	if len(batch[0]) != 1 || batch[0][0] != gid {
		t.Fatalf("batch got %v", batch[0])
	}
}

func TestSubscribeAnyMixesWithPlainSubscriptions(t *testing.T) {
	e := apcm.MustNew(apcm.Options{Workers: 1})
	defer e.Close()
	plain, err := e.SubscribePreds(expr.Eq(1, 5))
	if err != nil {
		t.Fatal(err)
	}
	gid, err := e.SubscribeAny(
		[]expr.Predicate{expr.Eq(1, 5)},
		[]expr.Predicate{expr.Eq(1, 6)},
	)
	if err != nil {
		t.Fatal(err)
	}
	got := e.Match(expr.MustEvent(expr.P(1, 5)))
	if len(got) != 2 {
		t.Fatalf("got %v, want plain and group", got)
	}
	seen := map[expr.ID]bool{got[0]: true, got[1]: true}
	if !seen[plain] || !seen[gid] {
		t.Fatalf("got %v, want {%d,%d}", got, plain, gid)
	}
	if e.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (group counts once)", e.Len())
	}
}

func TestUnsubscribeGroup(t *testing.T) {
	e := apcm.MustNew(apcm.Options{Workers: 1})
	defer e.Close()
	gid, err := e.SubscribeAny(
		[]expr.Predicate{expr.Eq(1, 5)},
		[]expr.Predicate{expr.Eq(1, 6)},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Unsubscribe(gid) {
		t.Fatal("group unsubscribe failed")
	}
	if got := e.Match(expr.MustEvent(expr.P(1, 5))); len(got) != 0 {
		t.Fatalf("match after group unsubscribe: %v", got)
	}
	if got := e.Match(expr.MustEvent(expr.P(1, 6))); len(got) != 0 {
		t.Fatalf("match after group unsubscribe: %v", got)
	}
	if e.Len() != 0 {
		t.Fatalf("Len = %d", e.Len())
	}
	if e.Unsubscribe(gid) {
		t.Fatal("double group unsubscribe succeeded")
	}
}

func TestSubscribeAnyValidation(t *testing.T) {
	e := apcm.MustNew(apcm.Options{Workers: 1})
	defer e.Close()
	if _, err := e.SubscribeAny(); err == nil {
		t.Fatal("empty disjunction accepted")
	}
	if _, err := e.SubscribeAny([]expr.Predicate{}); err == nil {
		t.Fatal("empty conjunction accepted")
	}
	bad := expr.Predicate{Attr: 1, Op: expr.Between, Lo: 9, Hi: 1}
	if _, err := e.SubscribeAny([]expr.Predicate{expr.Eq(1, 1)}, []expr.Predicate{bad}); err == nil {
		t.Fatal("invalid disjunct accepted")
	}
	// The failed call must leave nothing behind.
	if e.Len() != 0 {
		t.Fatalf("Len = %d after failed SubscribeAny", e.Len())
	}
	if got := e.Match(expr.MustEvent(expr.P(1, 1))); len(got) != 0 {
		t.Fatalf("partial group leaked: %v", got)
	}
}

func TestSubscribeAnyUnderParallelMatching(t *testing.T) {
	// Group dedup must hold on the intra-event parallel path too.
	g := testWorkload(21)
	e := apcm.MustNew(apcm.Options{Workers: 4, IntraEventParallelism: 1})
	defer e.Close()
	for _, x := range g.Expressions(1500) {
		// High-range ids keep clear of the engine's NewID allocator,
		// which SubscribeAny draws from below.
		seed := &expr.Expression{ID: x.ID + 1<<40, Preds: x.Preds}
		if err := e.Subscribe(seed); err != nil {
			t.Fatal(err)
		}
	}
	gid, err := e.SubscribeAny(
		[]expr.Predicate{expr.Ge(1, 0)},
		[]expr.Predicate{expr.Le(1, 100)},
		[]expr.Predicate{expr.Ne(1, 50)},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range g.Events(100) {
		got := e.Match(ev)
		n := 0
		for _, id := range got {
			if id == gid {
				n++
			}
		}
		if _, hasAttr1 := ev.Lookup(1); hasAttr1 && n != 1 {
			t.Fatalf("group reported %d times for %s", n, ev)
		}
	}
}

func TestLoadSubscriptionsPartialFailure(t *testing.T) {
	// A duplicate id mid-trace stops the load; the error reports how far
	// it got and earlier subscriptions remain live.
	xs := []*expr.Expression{
		expr.MustNew(1, expr.Eq(1, 1)),
		expr.MustNew(2, expr.Eq(1, 2)),
		expr.MustNew(1, expr.Eq(1, 3)), // duplicate id
	}
	var buf bytes.Buffer
	if err := writeExpressionTrace(&buf, xs); err != nil {
		t.Fatal(err)
	}
	e := apcm.MustNew(apcm.Options{Workers: 1})
	defer e.Close()
	n, err := e.LoadSubscriptions(&buf)
	if err == nil {
		t.Fatal("duplicate id in trace should fail the load")
	}
	if n != 2 {
		t.Fatalf("loaded %d before failure, want 2", n)
	}
	if e.Len() != 2 {
		t.Fatalf("Len = %d after partial load", e.Len())
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	g := testWorkload(11)
	xs := g.Expressions(500)
	events := g.Events(100)
	src := apcm.MustNew(apcm.Options{Workers: 1})
	defer src.Close()
	for _, x := range xs {
		if err := src.Subscribe(x); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := src.SaveSubscriptions(&buf); err != nil {
		t.Fatal(err)
	}

	for _, workers := range engineWorkers {
		dst := apcm.MustNew(apcm.Options{Workers: workers})
		n, err := dst.LoadSubscriptions(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if n != len(xs) || dst.Len() != len(xs) {
			t.Fatalf("workers=%d: loaded %d, Len %d, want %d", workers, n, dst.Len(), len(xs))
		}
		for _, ev := range events {
			a := sorted(src.Match(ev))
			b := sorted(dst.Match(ev))
			if !equalIDs(a, b) {
				t.Fatalf("workers=%d: snapshot changed matching: %v vs %v", workers, b, a)
			}
		}
		// NewID must not collide with restored ids.
		if id := dst.NewID(); id <= 500 {
			t.Fatalf("workers=%d: NewID after load = %d, may collide", workers, id)
		}
		dst.Close()
	}
}

func TestSnapshotRefusesGroups(t *testing.T) {
	e := apcm.MustNew(apcm.Options{Workers: 1})
	defer e.Close()
	if _, err := e.SubscribeAny([]expr.Predicate{expr.Eq(1, 1)}, []expr.Predicate{expr.Eq(1, 2)}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.SaveSubscriptions(&buf); err == nil {
		t.Fatal("snapshot of DNF engine should be refused")
	}
}

func TestLoadRejectsEventTrace(t *testing.T) {
	var buf bytes.Buffer
	g := testWorkload(12)
	evs := g.Events(3)
	if err := writeEventTrace(&buf, evs); err != nil {
		t.Fatal(err)
	}
	e := apcm.MustNew(apcm.Options{Workers: 1})
	defer e.Close()
	if _, err := e.LoadSubscriptions(&buf); err == nil {
		t.Fatal("event trace accepted as subscriptions")
	}
}

func TestSaveAfterClose(t *testing.T) {
	e := apcm.MustNew(apcm.Options{Workers: 1})
	e.Close()
	var buf bytes.Buffer
	if err := e.SaveSubscriptions(&buf); err != apcm.ErrClosed {
		t.Fatalf("SaveSubscriptions after close = %v", err)
	}
}
