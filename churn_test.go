package apcm_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/scan"
)

// TestAlgorithmsAgreeUnderChurn is the differential churn test: the
// Engine, sequential and with a worker pool, must stay equivalent to the
// brute-force oracle on a stable subscription set while background
// goroutines subscribe and unsubscribe a disjoint churn set
// concurrently with Match and MatchBatch. Run under -race this also
// hammers the engine's RWMutex discipline (Subscribe/Unsubscribe write
// vs. Match read).
func TestAlgorithmsAgreeUnderChurn(t *testing.T) {
	g := testWorkload(7)
	const (
		stableCount = 300
		churnCount  = 100
	)
	xs := g.Expressions(stableCount + churnCount)
	stable, churny := xs[:stableCount], xs[stableCount:]
	var maxStable expr.ID
	for _, x := range stable {
		if x.ID > maxStable {
			maxStable = x.ID
		}
	}
	for _, x := range churny {
		if x.ID <= maxStable {
			t.Fatalf("churn id %d not above stable range %d", x.ID, maxStable)
		}
	}

	type eng struct {
		name string
		e    *apcm.Engine
	}
	var engines []eng
	for _, workers := range engineWorkers {
		e := apcm.MustNew(apcm.Options{Workers: workers})
		defer e.Close()
		for _, x := range stable {
			if err := e.Subscribe(x); err != nil {
				t.Fatal(err)
			}
		}
		engines = append(engines, eng{fmt.Sprintf("workers=%d", workers), e})
	}

	// Background churners: each engine gets a goroutine cycling the
	// churn set in and out. Cycles finish completely before checking
	// stop, so every engine ends holding exactly the stable set.
	stop := make(chan struct{})
	var churnWG sync.WaitGroup
	for _, en := range engines {
		churnWG.Add(1)
		go func(e *apcm.Engine) {
			defer churnWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, x := range churny {
					if err := e.Subscribe(x); err != nil {
						t.Errorf("churn subscribe %d: %v", x.ID, err)
						return
					}
				}
				for _, x := range churny {
					if !e.Unsubscribe(x.ID) {
						t.Errorf("churn unsubscribe %d failed", x.ID)
						return
					}
				}
			}
		}(en.e)
	}

	// stableOnly filters out churn-set ids: those may legitimately differ
	// between engines depending on where each churner happens to be.
	stableOnly := func(ids []expr.ID) []expr.ID {
		out := ids[:0]
		for _, id := range ids {
			if id <= maxStable {
				out = append(out, id)
			}
		}
		return sorted(out)
	}

	events := g.Events(120)
	for i, ev := range events {
		var want []expr.ID
		for _, x := range stable {
			if x.MatchesEvent(ev) {
				want = append(want, x.ID)
			}
		}
		want = sorted(want)
		for _, en := range engines {
			var got []expr.ID
			if i%8 == 7 {
				// Exercise the batch path too: a window ending at this event.
				lo := i - 7
				batch := en.e.MatchBatch(events[lo : i+1])
				got = append(got, batch[7]...)
			} else {
				got = en.e.Match(ev)
			}
			got = stableOnly(got)
			if len(got) != len(want) {
				t.Fatalf("event %d: %s returned %d stable matches, oracle %d", i, en.name, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("event %d: %s diverged from oracle on stable set", i, en.name)
				}
			}
		}
	}

	close(stop)
	churnWG.Wait()

	// Churners finished on a cycle boundary: every engine must now hold
	// exactly the stable set and agree with the oracle without filtering.
	for _, en := range engines {
		if en.e.Len() != stableCount {
			t.Fatalf("%s: Len = %d after churn, want %d", en.name, en.e.Len(), stableCount)
		}
	}
	for i, ev := range events[:30] {
		var want []expr.ID
		for _, x := range stable {
			if x.MatchesEvent(ev) {
				want = append(want, x.ID)
			}
		}
		want = sorted(want)
		for _, en := range engines {
			got := sorted(en.e.Match(ev))
			if len(got) != len(want) {
				t.Fatalf("post-churn event %d: %s returned %d matches, oracle %d", i, en.name, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("post-churn event %d: %s diverged from oracle", i, en.name)
				}
			}
		}
	}
}

// TestChurnOnOversizedPool churns a pool the BE-Tree cannot split: every
// subscription is a == 7 plus != predicates on b and c, so once the tree
// has partitioned on a there is no indexable attribute left and the pool
// grows past MaxPool. Rounds of unsubscribes and subscribes then drive
// the compiled cluster's in-place maintenance at that size — tombstones
// found by scanning the member ids, dictionary entries appended after a
// scan of their group, recompiles when slack runs out — and every round
// is checked against the Scan oracle.
func TestChurnOnOversizedPool(t *testing.T) {
	const (
		subs     = 1500
		rounds   = 12
		perRound = 120
	)
	rng := rand.New(rand.NewSource(41))
	nextID := expr.ID(1)
	newSub := func() *expr.Expression {
		x := expr.MustNew(nextID, expr.Eq(1, 7),
			expr.Ne(2, expr.Value(rng.Intn(300))), expr.Ne(3, expr.Value(rng.Intn(300))))
		nextID++
		return x
	}
	e := apcm.MustNew(apcm.Options{})
	defer e.Close()
	oracle := scan.New()
	var live []expr.ID
	subscribe := func(x *expr.Expression) {
		if err := e.Subscribe(x); err != nil {
			t.Fatal(err)
		}
		if err := oracle.Insert(x); err != nil {
			t.Fatal(err)
		}
		live = append(live, x.ID)
	}
	for i := 0; i < subs; i++ {
		subscribe(newSub())
	}
	e.Prepare()

	events := make([]*expr.Event, 64)
	var r apcm.BatchResult
	for round := 0; round <= rounds; round++ {
		for i := range events {
			a := expr.Value(7)
			if i%8 == 0 {
				a = 8
			}
			events[i] = expr.MustEvent(expr.P(1, a),
				expr.P(2, expr.Value(rng.Intn(300))), expr.P(3, expr.Value(rng.Intn(300))))
		}
		e.MatchBatchInto(events, &r)
		for i, ev := range events {
			want := sorted(oracle.MatchAppend(nil, ev))
			if got := sorted(e.Match(ev)); !equalIDs(got, want) {
				t.Fatalf("round %d event %s: Match has %d ids, Scan %d", round, ev, len(got), len(want))
			}
			if got := sorted(append([]expr.ID(nil), r.For(i)...)); !equalIDs(got, want) {
				t.Fatalf("round %d event %s: MatchBatchInto has %d ids, Scan %d", round, ev, len(got), len(want))
			}
		}
		if round == rounds {
			break
		}
		for i := 0; i < perRound; i++ {
			k := rng.Intn(len(live))
			if !e.Unsubscribe(live[k]) || !oracle.Delete(live[k]) {
				t.Fatalf("round %d: unsubscribe %d failed", round, live[k])
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for i := 0; i < perRound; i++ {
			subscribe(newSub())
		}
	}
	largest := 0
	for _, c := range e.Clusters() {
		largest = max(largest, c.Live)
	}
	if largest != len(live) {
		t.Fatalf("largest cluster holds %d live subscriptions, want all %d in one", largest, len(live))
	}
}
