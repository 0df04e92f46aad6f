package apcm_test

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
)

func equalIDs(a, b []expr.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkBatchAgainstMatch runs one batch through MatchBatchInto and
// verifies every segment against the per-event Match oracle.
func checkBatchAgainstMatch(t *testing.T, e *apcm.Engine, r *apcm.BatchResult, batch []*expr.Event) {
	t.Helper()
	e.MatchBatchInto(batch, r)
	if r.Len() != len(batch) {
		t.Fatalf("BatchResult.Len = %d, want %d", r.Len(), len(batch))
	}
	for i, ev := range batch {
		got := sorted(append([]expr.ID(nil), r.For(i)...))
		want := sorted(e.Match(ev))
		if !equalIDs(got, want) {
			t.Fatalf("event %d: batch %v != per-event %v", i, got, want)
		}
	}
}

// TestMatchBatchDifferential is the batch path's differential property:
// for ANY permutation and ANY partition of an event stream into batches,
// MatchBatchInto must report exactly what per-event Match reports. The
// permutation/partition is drawn by testing/quick from a random seed, so
// each run exercises fresh batch boundaries, duplicate placements and
// chunk splits.
func TestMatchBatchDifferential(t *testing.T) {
	g := testWorkload(7)
	xs := g.Expressions(2500)
	base := g.Events(160)

	for _, workers := range []int{1, 2} {
		e := apcm.MustNew(apcm.Options{Workers: workers})
		for _, x := range xs {
			if err := e.Subscribe(x); err != nil {
				t.Fatal(err)
			}
		}
		e.Prepare()
		var r apcm.BatchResult
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			evs := append([]*expr.Event(nil), base...)
			rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
			// Inject duplicate events.
			for i := 0; i < 24; i++ {
				evs = append(evs, evs[rng.Intn(len(evs))])
			}
			for off := 0; off < len(evs); {
				n := 1 + rng.Intn(80)
				if off+n > len(evs) {
					n = len(evs) - off
				}
				checkBatchAgainstMatch(t, e, &r, evs[off:off+n])
				off += n
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
		e.Close()
	}
}

// TestMatchBatchDedupsDuplicates feeds a batch that is one event
// repeated: every segment must equal what Match returns for it.
func TestMatchBatchDedupsDuplicates(t *testing.T) {
	g := testWorkload(11)
	xs := g.Expressions(1200)
	ev := g.Events(1)[0]
	e := apcm.MustNew(apcm.Options{Workers: 1})
	defer e.Close()
	for _, x := range xs {
		if err := e.Subscribe(x); err != nil {
			t.Fatal(err)
		}
	}
	e.Prepare()

	batch := make([]*expr.Event, 64)
	for i := range batch {
		batch[i] = ev
	}
	var r apcm.BatchResult
	checkBatchAgainstMatch(t, e, &r, batch)
}

// TestMatchBatchChurnDifferential interleaves subscribe/unsubscribe
// churn between batches: after every mutation the batch path must track
// the new index state exactly.
func TestMatchBatchChurnDifferential(t *testing.T) {
	g := testWorkload(13)
	xs := g.Expressions(2000)
	events := g.Events(96)
	e := apcm.MustNew(apcm.Options{Workers: 2})
	defer e.Close()
	live := make([]*expr.Expression, 0, len(xs))
	for _, x := range xs[:1200] {
		if err := e.Subscribe(x); err != nil {
			t.Fatal(err)
		}
		live = append(live, x)
	}
	spare := xs[1200:]

	rng := rand.New(rand.NewSource(17))
	var r apcm.BatchResult
	for round := 0; round < 12; round++ {
		checkBatchAgainstMatch(t, e, &r, events)
		// Churn: delete a handful of live subscriptions, add spares back.
		for i := 0; i < 40 && len(live) > 0; i++ {
			k := rng.Intn(len(live))
			if !e.Unsubscribe(live[k].ID) {
				t.Fatalf("round %d: unsubscribe %d failed", round, live[k].ID)
			}
			spare = append(spare, live[k])
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for i := 0; i < 40 && len(spare) > 0; i++ {
			k := rng.Intn(len(spare))
			if err := e.Subscribe(spare[k]); err != nil {
				t.Fatal(err)
			}
			live = append(live, spare[k])
			spare[k] = spare[len(spare)-1]
			spare = spare[:len(spare)-1]
		}
	}
}

// TestMatchBatchConcurrentChurn hammers the batch path from several
// reader goroutines while a writer churns subscriptions — primarily a
// -race exercise of the scratch pool and the compiled clusters' in-place
// maintenance. Results are only sanity-checked (ids must be ones this
// test ever subscribed) because the oracle changes under the readers.
func TestMatchBatchConcurrentChurn(t *testing.T) {
	g := testWorkload(19)
	xs := g.Expressions(1500)
	events := g.Events(128)
	e := apcm.MustNew(apcm.Options{Workers: 2})
	defer e.Close()
	valid := make(map[expr.ID]bool, len(xs))
	for _, x := range xs {
		valid[x.ID] = true
	}
	for _, x := range xs[:1000] {
		if err := e.Subscribe(x); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	var churner, readers sync.WaitGroup
	churner.Add(1)
	go func() {
		defer churner.Done()
		rng := rand.New(rand.NewSource(23))
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			x := xs[rng.Intn(len(xs))]
			if i%2 == 0 {
				e.Unsubscribe(x.ID)
			} else {
				_ = e.Subscribe(x) // duplicate ids are rejected; fine
			}
		}
	}()
	for w := 0; w < 3; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			var r apcm.BatchResult
			rng := rand.New(rand.NewSource(int64(29 + w)))
			for i := 0; i < 60; i++ {
				n := 1 + rng.Intn(len(events))
				e.MatchBatchInto(events[:n], &r)
				for j := 0; j < r.Len(); j++ {
					for _, id := range r.For(j) {
						if !valid[id] {
							t.Errorf("reader %d: unknown id %d", w, id)
							return
						}
					}
				}
				// Interleave the single-event path on the same scratch pool.
				_ = e.Match(events[rng.Intn(len(events))])
			}
		}(w)
	}
	readers.Wait()
	close(done)
	churner.Wait()
}
