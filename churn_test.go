package apcm_test

import (
	"fmt"
	"sync"
	"testing"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
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
