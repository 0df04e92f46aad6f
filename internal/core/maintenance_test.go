package core

import (
	"math/rand"
	"testing"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/betree"
)

// maintenanceValues draws event and equality values for the maintenance
// differential: the compiled equality values are the even numbers in
// [10, 30], so the draw mixes repeats, odd values between them (inside
// the flat table's span), values before and after them, and far values
// on either side.
func maintenanceValue(rng *rand.Rand) expr.Value {
	switch rng.Intn(6) {
	case 0, 1:
		return expr.Value(10 + 2*rng.Intn(11)) // compiled value
	case 2:
		return expr.Value(11 + 2*rng.Intn(10)) // between, in span
	case 3:
		return expr.Value(rng.Intn(10)) // before
	case 4:
		return expr.Value(31 + rng.Intn(30)) // after
	default:
		return expr.Value(5000 - 10000*rng.Intn(2)) // far outside
	}
}

// maintenanceExpr builds a member over one to three of attributes 1..4
// (attribute 5, outside the compiled universe, now and then). Each
// attribute gets an equality or a range as its first predicate, and
// sometimes a strict second one; ranges and strict bounds come from a
// small shared set (repeats) or, when fresh is set, anywhere.
func maintenanceExpr(rng *rand.Rand, id expr.ID, compiled bool) *expr.Expression {
	var preds []expr.Predicate
	attrs := rng.Perm(4)[:1+rng.Intn(3)]
	if !compiled && rng.Intn(20) == 0 {
		attrs = append(attrs, 4) // attribute 5
	}
	for _, a := range attrs {
		attr := expr.AttrID(a + 1)
		fresh := !compiled && rng.Intn(2) == 0
		bound := func() expr.Value {
			if fresh {
				return maintenanceValue(rng)
			}
			return expr.Value(10 + 5*rng.Intn(4))
		}
		switch {
		case compiled && rng.Intn(3) > 0:
			preds = append(preds, expr.Eq(attr, expr.Value(10+2*rng.Intn(11))))
		case !compiled && rng.Intn(2) == 0:
			preds = append(preds, expr.Eq(attr, maintenanceValue(rng)))
		default:
			lo := bound()
			preds = append(preds, expr.Rng(attr, lo, lo+expr.Value(5+rng.Intn(20))))
		}
		if rng.Intn(3) == 0 {
			preds = append(preds, expr.Le(attr, bound()+10))
		}
	}
	return expr.MustNew(id, preds...)
}

func maintenanceEvent(rng *rand.Rand) *expr.Event {
	var pairs []expr.Pair
	for a := 1; a <= 5; a++ {
		if rng.Intn(5) > 0 {
			pairs = append(pairs, expr.P(expr.AttrID(a), maintenanceValue(rng)))
		}
	}
	return expr.MustEvent(pairs...)
}

// checkEqLayout asserts every group's equality union is strictly
// sorted and that a surviving flat table agrees with it slot for slot.
func checkEqLayout(t *testing.T, c *compiled) {
	t.Helper()
	for gi := range c.groups {
		g := &c.groups[gi]
		for i := 1; i < len(g.eq); i++ {
			if g.eq[i-1].val >= g.eq[i].val {
				t.Fatalf("group %d: eq not strictly sorted at %d: %d, %d", gi, i, g.eq[i-1].val, g.eq[i].val)
			}
		}
		if g.eqFlat == nil {
			continue
		}
		set := 0
		for _, u := range g.eqFlat {
			if u != nil {
				set++
			}
		}
		if set != len(g.eq) {
			t.Fatalf("group %d: flat table holds %d values, eq %d", gi, set, len(g.eq))
		}
		for _, e := range g.eq {
			if d := int64(e.val) - int64(g.eqLo); d < 0 || d >= int64(len(g.eqFlat)) || g.eqFlat[d] != e.bits {
				t.Fatalf("group %d: value %d missing from the flat table", gi, e.val)
			}
		}
	}
}

// TestIncrementalMaintenanceDifferential drives compiled clusters through
// seeded runs of incremental appends and tombstones — repeated and new
// first and strict predicates, equality values inside and outside the
// flat table's span and before, between and after the compiled ones,
// deletes of members appended after compile, repeated deletes — and
// after every step checks the compressed kernel against the scan kernel
// on random events, and the running held total against a walk, under the
// default layout and with dense postings.
func TestIncrementalMaintenanceDifferential(t *testing.T) {
	var appended, rebuilt, flatDrops, lateDeletes int
	for _, lo := range []layoutOpts{{}, {forceDense: true}} {
		for seed := int64(1); seed <= 25; seed++ {
			rng := rand.New(rand.NewSource(seed))
			pool := &betree.Pool{}
			next := expr.ID(1)
			for i := 0; i < 30+rng.Intn(30); i++ {
				pool.Exprs = append(pool.Exprs, maintenanceExpr(rng, next, true))
				next++
			}
			c := compileOpts(pool, lo)
			lateIDs := map[expr.ID]bool{}
			var ks kernelScratch
			check := func(step int, what string) {
				t.Helper()
				checkEqLayout(t, c)
				if h := c.heldBytes(); c.held != h {
					t.Fatalf("layout %+v seed %d step %d (%s): running held %d, walk %d",
						lo, seed, step, what, c.held, h)
				}
				for k := 0; k < 6; k++ {
					ev := maintenanceEvent(rng)
					got := c.matchCompressed(&ks, ev, nil)
					want := scanPool(&ks, pool.Exprs, ev, nil)
					if !sameIDs(got, want) {
						t.Fatalf("layout %+v seed %d step %d (%s): compressed %v, scan %v on %s",
							lo, seed, step, what, got, want, ev)
					}
				}
			}
			check(0, "compile")
			for step := 1; step <= 80; step++ {
				if rng.Intn(3) > 0 || len(pool.Exprs) < 2 {
					x := maintenanceExpr(rng, next, false)
					next++
					pool.Exprs = append(pool.Exprs, x)
					pool.Gen++
					flats := 0
					for gi := range c.groups {
						if c.groups[gi].eqFlat != nil {
							flats++
						}
					}
					if c.tryAppend(pool, x) {
						appended++
						lateIDs[x.ID] = true
						for gi := range c.groups {
							if c.groups[gi].eqFlat != nil {
								flats--
							}
						}
						flatDrops += flats
					} else {
						rebuilt++
						c = compileOpts(pool, lo)
					}
					check(step, "append")
					continue
				}
				i := rng.Intn(len(pool.Exprs))
				id := pool.Exprs[i].ID
				pool.Exprs = append(pool.Exprs[:i], pool.Exprs[i+1:]...)
				pool.Gen++
				if !c.tryTombstone(pool, id) {
					t.Fatalf("seed %d step %d: tombstone of member %d refused", seed, step, id)
				}
				if lateIDs[id] {
					lateDeletes++
				}
				// Deleting the same id again must find no live slot,
				// even with the generation lined up.
				pool.Gen++
				if c.tryTombstone(pool, id) {
					t.Fatalf("seed %d step %d: second tombstone of %d succeeded", seed, step, id)
				}
				pool.Gen--
				if c.needsRebuild() {
					rebuilt++
					c = compileOpts(pool, lo)
					lateIDs = map[expr.ID]bool{}
				}
				check(step, "delete")
			}
		}
	}
	t.Logf("%d appends in place, %d flat tables dropped, %d deletes of late members, %d rebuilds",
		appended, flatDrops, lateDeletes, rebuilt)
	if appended == 0 || flatDrops == 0 || lateDeletes == 0 || rebuilt == 0 {
		t.Fatal("the runs missed a maintenance path")
	}
}
