package core

import (
	"testing"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/betree"
	"github.com/streammatch/apcm/workload"
)

// onePoolMatcher builds a matcher whose tree never splits, so everything
// lands in a single observable cluster.
func onePoolMatcher(probe int) *Matcher {
	return New(Config{
		Mode:            ModeAdaptive,
		Tree:            betree.Config{MaxPool: 1 << 20},
		MinCompressSize: 2,
		ProbeInterval:   probe,
		Decay:           0.5,
	})
}

// theCluster returns the matcher's single cluster state.
func theCluster(t *testing.T, m *Matcher) *clusterState {
	t.Helper()
	var states []*clusterState
	m.forEachCluster(func(cs *clusterState) { states = append(states, cs) })
	if len(states) != 1 {
		t.Fatalf("expected exactly 1 cluster, have %d", len(states))
	}
	return states[0]
}

func TestIncrementalAppendAvoidsRecompile(t *testing.T) {
	m := onePoolMatcher(1 << 30)
	for i := 1; i <= 64; i++ {
		if err := m.Insert(expr.MustNew(expr.ID(i), expr.Eq(1, expr.Value(i%4)))); err != nil {
			t.Fatal(err)
		}
	}
	ev := expr.MustEvent(expr.P(1, 1))
	before := len(m.MatchAppend(nil, ev))
	cs := theCluster(t, m)
	compiledBefore := cs.compiled.Load()

	// Insert an expression over the existing attribute: must append in
	// place, keeping the same compiled object.
	if err := m.Insert(expr.MustNew(1000, expr.Eq(1, 1))); err != nil {
		t.Fatal(err)
	}
	if cs.compiled.Load() != compiledBefore {
		t.Fatal("append replaced the compiled cluster")
	}
	got := m.MatchAppend(nil, ev)
	if len(got) != before+1 {
		t.Fatalf("after append got %d matches, want %d", len(got), before+1)
	}
	if cs.compiled.Load() != compiledBefore {
		t.Fatal("match after incremental append still recompiled")
	}
}

func TestIncrementalAppendNewAttributeForcesRecompile(t *testing.T) {
	m := onePoolMatcher(1 << 30)
	for i := 1; i <= 32; i++ {
		if err := m.Insert(expr.MustNew(expr.ID(i), expr.Eq(1, expr.Value(i%4)))); err != nil {
			t.Fatal(err)
		}
	}
	ev := expr.MustEvent(expr.P(1, 1), expr.P(2, 5))
	m.MatchAppend(nil, ev)
	cs := theCluster(t, m)
	compiledBefore := cs.compiled.Load()

	// Attribute 2 is outside the cluster universe: the incremental path
	// must refuse and the next match must recompile correctly.
	if err := m.Insert(expr.MustNew(1000, expr.Eq(2, 5), expr.Eq(1, 1))); err != nil {
		t.Fatal(err)
	}
	got := m.MatchAppend(nil, ev)
	found := false
	for _, id := range got {
		if id == 1000 {
			found = true
		}
	}
	if !found {
		t.Fatalf("new-attribute expression not matched after recompile: %v", got)
	}
	if cs.compiled.Load() == compiledBefore {
		t.Fatal("expected a recompile for a new attribute")
	}
}

func TestTombstoneDeleteAvoidsRecompile(t *testing.T) {
	m := onePoolMatcher(1 << 30)
	for i := 1; i <= 64; i++ {
		if err := m.Insert(expr.MustNew(expr.ID(i), expr.Eq(1, 1))); err != nil {
			t.Fatal(err)
		}
	}
	ev := expr.MustEvent(expr.P(1, 1))
	if got := m.MatchAppend(nil, ev); len(got) != 64 {
		t.Fatalf("precondition: %d matches", len(got))
	}
	cs := theCluster(t, m)
	compiledBefore := cs.compiled.Load()

	if !m.Delete(17) {
		t.Fatal("delete failed")
	}
	if cs.compiled.Load() != compiledBefore {
		t.Fatal("delete replaced the compiled cluster")
	}
	got := m.MatchAppend(nil, ev)
	if len(got) != 63 {
		t.Fatalf("after tombstone got %d matches, want 63", len(got))
	}
	for _, id := range got {
		if id == 17 {
			t.Fatal("tombstoned member still matching")
		}
	}
	if cs.compiled.Load() != compiledBefore {
		t.Fatal("match after tombstone still recompiled")
	}
	if cs.compiled.Load().live() != 63 || cs.compiled.Load().tombs != 1 {
		t.Fatalf("live/tombs bookkeeping wrong: %d/%d", cs.compiled.Load().live(), cs.compiled.Load().tombs)
	}
}

func TestTombstonePileupTriggersRebuild(t *testing.T) {
	m := onePoolMatcher(1 << 30)
	for i := 1; i <= 64; i++ {
		if err := m.Insert(expr.MustNew(expr.ID(i), expr.Eq(1, 1))); err != nil {
			t.Fatal(err)
		}
	}
	ev := expr.MustEvent(expr.P(1, 1))
	m.MatchAppend(nil, ev)
	cs := theCluster(t, m)
	compiledBefore := cs.compiled.Load()

	// Delete well past the 50% threshold.
	for i := 1; i <= 40; i++ {
		if !m.Delete(expr.ID(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	got := m.MatchAppend(nil, ev)
	if len(got) != 24 {
		t.Fatalf("after heavy deletion got %d matches, want 24", len(got))
	}
	if cs.compiled.Load() == compiledBefore {
		t.Fatal("tombstone pile-up did not trigger a rebuild")
	}
	if cs.compiled.Load().tombs != 0 {
		t.Fatalf("rebuilt cluster still carries %d tombstones", cs.compiled.Load().tombs)
	}
}

func TestAppendBeyondSlackRecompiles(t *testing.T) {
	m := onePoolMatcher(1 << 30)
	for i := 1; i <= 8; i++ {
		if err := m.Insert(expr.MustNew(expr.ID(i), expr.Eq(1, 1))); err != nil {
			t.Fatal(err)
		}
	}
	ev := expr.MustEvent(expr.P(1, 1))
	m.MatchAppend(nil, ev)
	cs := theCluster(t, m)
	capN := cs.compiled.Load().capN

	// Grow far past the slack; correctness must hold throughout.
	for i := 9; i <= capN+32; i++ {
		if err := m.Insert(expr.MustNew(expr.ID(i), expr.Eq(1, 1))); err != nil {
			t.Fatal(err)
		}
		if got := m.MatchAppend(nil, ev); len(got) != i {
			t.Fatalf("after %d inserts got %d matches", i, len(got))
		}
	}
	if cs.compiled.Load().capN == capN {
		t.Fatal("capacity never grew; recompile on slack exhaustion missing")
	}
}

func TestIncrementalChurnStaysCorrect(t *testing.T) {
	// Sustained interleaved updates and matches against the oracle, at a
	// size where incremental maintenance is constantly exercised.
	p := workload.Default()
	p.NumAttrs = 15
	p.Cardinality = 40
	p.EventAttrs = 8
	p.PredsMin, p.PredsMax = 1, 3
	p.MatchFraction = 0.3
	g := workload.MustNew(p)
	xs := g.Expressions(600)

	m := onePoolMatcher(8)
	live := map[expr.ID]*expr.Expression{}
	for _, x := range xs[:400] {
		if err := m.Insert(x); err != nil {
			t.Fatal(err)
		}
		live[x.ID] = x
	}
	for step := 0; step < 800; step++ {
		x := xs[(step*13)%len(xs)]
		if _, ok := live[x.ID]; ok {
			if !m.Delete(x.ID) {
				t.Fatalf("step %d: delete failed", step)
			}
			delete(live, x.ID)
		} else {
			if err := m.Insert(x); err != nil {
				t.Fatal(err)
			}
			live[x.ID] = x
		}
		if step%7 == 0 {
			ev := g.Event()
			want := 0
			for _, lx := range live {
				if lx.MatchesEvent(ev) {
					want++
				}
			}
			if got := m.MatchAppend(nil, ev); len(got) != want {
				t.Fatalf("step %d: got %d matches, want %d", step, len(got), want)
			}
		}
	}
}

// staleClusters counts the pools among pools, and among the tree's
// pools, that hold a cluster state but fewer than MinCompressSize
// members. matchPool scans such pools and never reads their cluster, so
// every one is memory that nothing serves. The tree walk skips empty
// pools, so a caller passes the pools a split may have emptied.
func staleClusters(m *Matcher, pools ...*betree.Pool) int {
	n := 0
	check := func(p *betree.Pool) {
		if stateOf(p) != nil && len(p.Exprs) < m.cfg.MinCompressSize {
			n++
		}
	}
	for _, p := range pools {
		check(p)
	}
	m.tree.Pools(check)
	return n
}

// TestSplitAndShrunkPoolsDropTheirClusters compiles the root pool, lets
// a split empty it, then deletes most members so that 45 of the 50
// equality pools fall below MinCompressSize. Neither the split pool
// nor the shrunk ones may keep a compiled cluster.
func TestSplitAndShrunkPoolsDropTheirClusters(t *testing.T) {
	const n, vals = 2200, 50
	xs := make([]*expr.Expression, n)
	for i := range xs {
		xs[i] = expr.MustNew(expr.ID(i+1), expr.Eq(1, expr.Value(i%vals)))
	}
	check := func(t *testing.T, m *Matcher, root *betree.Pool, phase string, wantClusters, wantSlots int) {
		t.Helper()
		m.PrepareAll()
		if s := staleClusters(m, root); s != 0 {
			t.Fatalf("%s: %d compiled clusters belong to pools below MinCompressSize", phase, s)
		}
		if st := m.Stats(); st.CompiledClusters != wantClusters || st.MemberSlots != wantSlots {
			t.Fatalf("%s: Stats counts %d clusters and %d member slots, want %d and %d",
				phase, st.CompiledClusters, st.MemberSlots, wantClusters, wantSlots)
		}
	}
	for _, bulk := range []bool{false, true} {
		name := "Insert"
		if bulk {
			name = "InsertBulk"
		}
		t.Run(name, func(t *testing.T) {
			m := New(DefaultConfig())
			// Fill the root pool to its bound and compile it: the next
			// insert splits it on attribute 1 and moves every member out.
			root := m.cfg.Tree.MaxPool
			for _, x := range xs[:root] {
				if err := m.Insert(x); err != nil {
					t.Fatal(err)
				}
			}
			m.PrepareAll()
			var rootPool *betree.Pool
			m.tree.Pools(func(p *betree.Pool) { rootPool = p })
			if stateOf(rootPool) == nil {
				t.Fatal("the full root pool compiled no cluster")
			}
			if bulk {
				if k, err := m.InsertBulk(xs[root:]); err != nil || k != n-root {
					t.Fatalf("InsertBulk = %d, %v", k, err)
				}
			} else {
				for _, x := range xs[root:] {
					if err := m.Insert(x); err != nil {
						t.Fatal(err)
					}
				}
			}
			check(t, m, rootPool, "after the split", vals, n)

			// Keep every member of values 45..49 and a tenth of the rest:
			// 4 or 5 members each, below MinCompressSize.
			for i := range xs {
				if i%vals < 45 && (i/vals)%10 != 0 {
					m.Delete(xs[i].ID)
				}
			}
			check(t, m, rootPool, "after the deletes", 5, 5*n/vals)
		})
	}
}
