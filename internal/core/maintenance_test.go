package core

import (
	"math/rand"
	"testing"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/betree"
)

// maintRegime shapes the maintenance differential's input so that one
// run reaches one layout choice a cluster makes from its input.
type maintRegime struct {
	name string
	// eqVals is the number of compiled equality values (10, 12, ...): few
	// values make redundant unions whose postings go dense.
	eqVals int
	// stride spreads the attribute ids (k*stride for k in 1..5): a wide
	// stride puts the universe past attrDirectMaxSpan, so no attrDirect
	// table is built and localOf and step 1 take the binary-search and
	// merge-join paths.
	stride expr.AttrID
}

var maintRegimes = []maintRegime{
	{"default", 11, 1},
	{"dense", 2, 1},
	{"wide span", 11, 2000},
}

// value draws event and equality values for the maintenance
// differential: the compiled equality values are the even numbers from
// 10, so the draw mixes repeats, odd values between them, values before
// and after them, and far values on either side.
func (rg maintRegime) value(rng *rand.Rand) expr.Value {
	switch rng.Intn(6) {
	case 0, 1:
		return rg.compiledValue(rng)
	case 2:
		return expr.Value(11 + 2*rng.Intn(10)) // between
	case 3:
		return expr.Value(rng.Intn(10)) // before
	case 4:
		return expr.Value(31 + rng.Intn(30)) // after
	default:
		return expr.Value(5000 - 10000*rng.Intn(2)) // far outside
	}
}

func (rg maintRegime) compiledValue(rng *rand.Rand) expr.Value {
	return expr.Value(10 + 2*rng.Intn(rg.eqVals))
}

func (rg maintRegime) attr(k int) expr.AttrID { return expr.AttrID(k) * rg.stride }

// expr builds a member over one to three of attributes 1..4 (now and
// then one outside the compiled universe: attribute 5, or with a wide
// stride an id just below attribute 2, 3 or 4, between universe ids).
// Each attribute gets an equality or a range as its first predicate,
// and sometimes a strict second one; ranges and strict bounds come from
// a small shared set (repeats) or, when fresh is set, anywhere.
func (rg maintRegime) expr(rng *rand.Rand, id expr.ID, compiled bool) *expr.Expression {
	var preds []expr.Predicate
	var attrs []expr.AttrID
	for _, k := range rng.Perm(4)[:1+rng.Intn(3)] {
		attrs = append(attrs, rg.attr(k+1))
	}
	if !compiled && rng.Intn(20) == 0 {
		if rg.stride > 1 && rng.Intn(2) == 0 {
			attrs = append(attrs, rg.attr(2+rng.Intn(3))-1)
		} else {
			attrs = append(attrs, rg.attr(5))
		}
	}
	for _, attr := range attrs {
		fresh := !compiled && rng.Intn(2) == 0
		bound := func() expr.Value {
			if fresh {
				return rg.value(rng)
			}
			return expr.Value(10 + 5*rng.Intn(4))
		}
		switch {
		case compiled && rng.Intn(3) > 0:
			preds = append(preds, expr.Eq(attr, rg.compiledValue(rng)))
		case !compiled && rng.Intn(2) == 0:
			preds = append(preds, expr.Eq(attr, rg.value(rng)))
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

// event draws an event over attributes 1..5. With a wide stride it also
// carries, now and then, ids just below them — outside the universe but
// between its ids, so the merge-join has to step over them.
func (rg maintRegime) event(rng *rand.Rand) *expr.Event {
	var pairs []expr.Pair
	for a := 1; a <= 5; a++ {
		if rng.Intn(5) > 0 {
			pairs = append(pairs, expr.P(rg.attr(a), rg.value(rng)))
		}
		if rg.stride > 1 && rng.Intn(3) == 0 {
			pairs = append(pairs, expr.P(rg.attr(a)-1, rg.value(rng)))
		}
	}
	return expr.MustEvent(pairs...)
}

// checkEqSorted asserts every group's equality union is strictly sorted.
func checkEqSorted(t *testing.T, c *compiled) {
	t.Helper()
	for gi := range c.groups {
		g := &c.groups[gi]
		for i := 1; i < len(g.eq); i++ {
			if g.eq[i-1].val >= g.eq[i].val {
				t.Fatalf("group %d: eq not strictly sorted at %d: %d, %d", gi, i, g.eq[i-1].val, g.eq[i].val)
			}
		}
	}
}

// denseEqPostings counts the equality-union postings held dense.
func denseEqPostings(c *compiled) int {
	n := 0
	for gi := range c.groups {
		for _, e := range c.groups[gi].eq {
			if !e.bits.IsSparse() {
				n++
			}
		}
	}
	return n
}

// TestIncrementalMaintenanceDifferential drives compiled clusters through
// seeded runs of incremental appends and tombstones — repeated and new
// first and strict predicates, equality values before, between and
// after the compiled ones, deletes of members appended after compile,
// repeated deletes — and after every step checks the compressed kernel
// against the scan kernel on random events, the running held total
// against a walk, and the lead-list invariant (checkLeads). Each regime of maintRegimes reaches one layout: mostly
// sparse postings with an attrDirect table, dense equality unions, and a
// universe too wide for attrDirect.
func TestIncrementalMaintenanceDifferential(t *testing.T) {
	for _, rg := range maintRegimes {
		var appended, rebuilt, dictAdds, lateDeletes, denseEq, wide int
		for seed := int64(1); seed <= 25; seed++ {
			rng := rand.New(rand.NewSource(seed))
			pool := &betree.Pool{}
			next := expr.ID(1)
			for i := 0; i < 30+rng.Intn(30); i++ {
				pool.Exprs = append(pool.Exprs, rg.expr(rng, next, true))
				next++
			}
			c := compile(pool)
			lateIDs := map[expr.ID]bool{}
			var ks kernelScratch
			check := func(step int, what string) {
				t.Helper()
				checkEqSorted(t, c)
				checkLeads(t, c)
				if h := c.heldBytes(); c.held != h {
					t.Fatalf("regime %s seed %d step %d (%s): running held %d, walk %d",
						rg.name, seed, step, what, c.held, h)
				}
				if c.attrDirect == nil {
					wide++
				}
				denseEq += denseEqPostings(c)
				for k := 0; k < 6; k++ {
					ev := rg.event(rng)
					got := c.matchCompressed(&ks, ev, nil)
					want := scanPool(&ks, pool.Exprs, ev, nil)
					if !sameIDs(got, want) {
						t.Fatalf("regime %s seed %d step %d (%s): compressed %v, scan %v on %s",
							rg.name, seed, step, what, got, want, ev)
					}
				}
			}
			check(0, "compile")
			for step := 1; step <= 80; step++ {
				if rng.Intn(3) > 0 || len(pool.Exprs) < 2 {
					x := rg.expr(rng, next, false)
					next++
					pool.Exprs = append(pool.Exprs, x)
					pool.Gen++
					dictBefore := c.distinctPreds
					if c.tryAppend(pool, x) {
						appended++
						lateIDs[x.ID] = true
						dictAdds += c.distinctPreds - dictBefore
					} else {
						rebuilt++
						c = compile(pool)
					}
					check(step, "append")
					continue
				}
				i := rng.Intn(len(pool.Exprs))
				id := pool.Exprs[i].ID
				pool.Exprs = append(pool.Exprs[:i], pool.Exprs[i+1:]...)
				pool.Gen++
				if !c.tryTombstone(pool, id) {
					t.Fatalf("regime %s seed %d step %d: tombstone of member %d refused", rg.name, seed, step, id)
				}
				if lateIDs[id] {
					lateDeletes++
				}
				// Deleting the same id again must find no live slot,
				// even with the generation lined up.
				pool.Gen++
				if c.tryTombstone(pool, id) {
					t.Fatalf("regime %s seed %d step %d: second tombstone of %d succeeded", rg.name, seed, step, id)
				}
				pool.Gen--
				if c.needsRebuild() {
					rebuilt++
					c = compile(pool)
					lateIDs = map[expr.ID]bool{}
				}
				check(step, "delete")
			}
		}
		t.Logf("%s: %d appends in place, %d dictionary entries added by them, %d deletes of late members, %d rebuilds, %d dense eq postings seen, %d checks without attrDirect",
			rg.name, appended, dictAdds, lateDeletes, rebuilt, denseEq, wide)
		if appended == 0 || dictAdds == 0 || lateDeletes == 0 || rebuilt == 0 {
			t.Fatalf("regime %s: the runs missed a maintenance path", rg.name)
		}
		switch rg.name {
		case "dense":
			if denseEq == 0 {
				t.Fatal("dense regime compiled no dense equality union")
			}
		case "wide span":
			if wide == 0 {
				t.Fatal("wide-span regime always built attrDirect")
			}
		default:
			if wide != 0 {
				t.Fatalf("default regime ran %d checks without attrDirect", wide)
			}
		}
	}
}
