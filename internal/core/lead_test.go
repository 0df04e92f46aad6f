package core

import (
	"testing"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/betree"
	"github.com/streammatch/apcm/workload"
)

// checkLeads asserts the lead-list invariant: leadOff indexes leadIds
// CSR-style with nAttrs+1 offsets, every slot below n0 sits in exactly
// one list, and that list's attribute is one the member constrains with
// the fewest members below n0 among its attributes. Appends take slots
// from n0 up and tombstones clear no attrBits, so neither changes those
// counts: the invariant holds across maintenance.
func checkLeads(t *testing.T, c *compiled) {
	t.Helper()
	if c.n0 > c.n || len(c.leadOff) != c.nAttrs+1 || len(c.leadIds) != c.n0 ||
		c.leadOff[0] != 0 || int(c.leadOff[c.nAttrs]) != c.n0 {
		t.Fatalf("lead index malformed: n0 %d, n %d, %d offsets for %d attributes, %d ids, last offset %d",
			c.n0, c.n, len(c.leadOff), c.nAttrs, len(c.leadIds), c.leadOff[len(c.leadOff)-1])
	}
	below := make([]int, c.nAttrs) // attrBits members below n0
	for li := range below {
		for m := 0; m < c.n0; m++ {
			if c.groups[li].attrBits.Test(m) {
				below[li]++
			}
		}
	}
	seen := make([]int, c.n0)
	for li := 0; li < c.nAttrs; li++ {
		lo, hi := c.leadOff[li], c.leadOff[li+1]
		if lo > hi {
			t.Fatalf("lead offsets fall at attribute %d: %d > %d", li, lo, hi)
		}
		for _, m := range c.leadIds[lo:hi] {
			if m < 0 || int(m) >= c.n0 {
				t.Fatalf("lead list %d holds slot %d outside [0, %d)", li, m, c.n0)
			}
			seen[m]++
			if !c.groups[li].attrBits.Test(int(m)) {
				t.Fatalf("slot %d leads on attribute %d, which it does not constrain", m, li)
			}
			for lj := range below {
				if c.groups[lj].attrBits.Test(int(m)) && below[lj] < below[li] {
					t.Fatalf("slot %d leads on attribute %d (%d members), but constrains attribute %d (%d members)",
						m, li, below[li], lj, below[lj])
				}
			}
		}
	}
	for m, k := range seen {
		if k != 1 {
			t.Fatalf("slot %d appears in %d lead lists, want 1", m, k)
		}
	}
}

// TestLeadListInvariant compiles a 256-member pool of the benchmark's
// heterogeneous workload (a universe wider than one mask word), appends
// members, tombstones some — original and appended ones, and an id
// deleted, re-appended and deleted again — and checks the lead-list
// invariant and the compressed kernel against the scan kernel after
// each phase, on events planted for members and on random ones.
func TestLeadListInvariant(t *testing.T) {
	p := workload.Default()
	p.Seed = 5
	g := workload.MustNew(p)
	xs := g.Expressions(600)
	pool := &betree.Pool{Exprs: append([]*expr.Expression(nil), xs[:256]...)}
	c := compile(pool)
	if c.awords < 2 {
		t.Fatalf("universe of %d attributes fits one mask word; the test wants several", c.nAttrs)
	}
	var ks kernelScratch
	agree := func(phase string) {
		t.Helper()
		checkLeads(t, c)
		var evs []*expr.Event
		for i := 0; i < len(xs); i += 7 {
			if ev, ok := g.PlantedEventFor(xs[i]); ok {
				evs = append(evs, ev)
			}
		}
		evs = append(evs, g.Events(100)...)
		hits := 0
		for _, ev := range evs {
			got := c.matchCompressed(&ks, ev, nil)
			want := scanPool(&ks, pool.Exprs, ev, nil)
			if !sameIDs(got, want) {
				t.Fatalf("%s: compressed %v, scan %v on %s", phase, got, want, ev)
			}
			hits += len(want)
		}
		if hits == 0 {
			t.Fatalf("%s: no event matched; the comparison shows nothing", phase)
		}
	}
	agree("compile")

	appended := 0
	for _, x := range xs[256:] {
		if c.n == c.capN-1 { // keep a slot for the re-append below
			break
		}
		pool.Exprs = append(pool.Exprs, x)
		pool.Gen++
		if c.tryAppend(pool, x) {
			appended++
			continue
		}
		pool.Exprs = pool.Exprs[:len(pool.Exprs)-1]
		pool.Gen--
	}
	if appended == 0 || c.n == c.n0 {
		t.Fatal("no member appended in place")
	}
	agree("append")

	del := func(id expr.ID) {
		t.Helper()
		for i, x := range pool.Exprs {
			if x.ID == id {
				pool.Exprs = append(pool.Exprs[:i], pool.Exprs[i+1:]...)
				pool.Gen++
				if !c.tryTombstone(pool, id) {
					t.Fatalf("tombstone of %d refused", id)
				}
				return
			}
		}
		t.Fatalf("member %d not in the pool", id)
	}
	late := pool.Exprs[len(pool.Exprs)-1]
	for i := 0; i < 256; i += 5 {
		del(xs[i].ID)
	}
	del(late.ID)
	agree("tombstone")

	// Re-append the first deleted original: its old slot stays
	// tombstoned in its lead list and the new one lands past n0. The
	// next delete must find the live slot, not the dead one.
	again := xs[0]
	pool.Exprs = append(pool.Exprs, again)
	pool.Gen++
	if !c.tryAppend(pool, again) {
		t.Fatal("re-append refused")
	}
	agree("re-append")
	del(again.ID)
	agree("delete after re-append")
}
