package core

import (
	"math/bits"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/bitset"
)

// kernelScratch holds reusable per-goroutine kernel state. Survivor and
// satisfied bitsets must match the cluster's member count exactly, so
// they are kept per size; distinct cluster sizes are few in practice.
type kernelScratch struct {
	// Two-entry inline cache in front of bySize: a match sweep visits
	// runs of same-capacity clusters, and the map hash was measurable per
	// matchCompressed call on small clusters. Capacity 0 never occurs
	// (slackCapacity rounds up to 64), so the zero value misses cleanly.
	b1n, b2n int
	b1, b2   *buffers
	bySize   map[int]*buffers

	present []uint64   // attribute-present mask over the cluster-local universe
	hits    []groupHit // present groups for the current event

	// firstHits collects the matched non-equality first postings of the
	// group in flight, so the single-posting cases can skip building the
	// satisfied union entirely.
	firstHits []*bitset.Posting

	vt valueTable // dense attr → value table for the current event
}

type buffers struct {
	alive *bitset.Bitset
	sat   *bitset.Bitset
}

type groupHit struct {
	local int32
	val   expr.Value
}

func (s *kernelScratch) get(n int) *buffers {
	if n == s.b1n {
		return s.b1
	}
	if n == s.b2n {
		s.b1, s.b2 = s.b2, s.b1
		s.b1n, s.b2n = s.b2n, s.b1n
		return s.b1
	}
	if s.bySize == nil {
		s.bySize = make(map[int]*buffers)
	}
	b := s.bySize[n]
	if b == nil {
		b = &buffers{
			alive: bitset.New(n),
			sat:   bitset.New(n),
		}
		s.bySize[n] = b
	}
	s.b2, s.b2n = s.b1, s.b1n
	s.b1, s.b1n = b, n
	return b
}

// matchCompressed runs the compressed kernel:
//
//  1. Resolve the event's attributes against the cluster's local
//     universe — through attrDirect when the cluster has one, else by a
//     merge-join of the two sorted attribute lists — and build the
//     present mask (no hashing).
//  2. Eligibility: a member is eligible iff the event carries every
//     attribute it constrains. Only the lead lists of the present
//     groups and the members appended since finalize can hold one, and
//     each of those gets one masked word-compare; absent groups and the
//     other members are never touched.
//  3. Per present group, in attribute order: one equality probe (binary
//     search of the sorted eq union) plus evaluation of the distinct
//     non-equality predicates yields the satisfied union;
//     alive &= satisfied | ^attrBits, where sparse groups touch only
//     their listed members. Failed strict predicates AND-NOT out
//     individually. Dense ops report emptiness exactly, so the loop
//     exits as soon as alive hits zero.
//
//apcm:hotpath
func (c *compiled) matchCompressed(s *kernelScratch, e *expr.Event, dst []expr.ID) []expr.ID {
	bufs := s.get(c.capN)
	alive, sat := bufs.alive, bufs.sat

	// Step 1: present mask and group hits.
	if cap(s.present) < c.awords {
		s.present = make([]uint64, c.awords)
	}
	present := s.present[:c.awords]
	for i := range present {
		present[i] = 0
	}
	s.hits = s.hits[:0]
	pairs := e.Pairs()
	if dir := c.attrDirect; dir != nil {
		// Direct attribute table: one bounds check and an array load per
		// event pair, independent of the universe width.
		lo0 := int64(c.attrLo)
		for i := range pairs {
			d := int64(pairs[i].Attr) - lo0
			if uint64(d) >= uint64(len(dir)) {
				continue
			}
			li := dir[d]
			if li < 0 {
				continue
			}
			present[li>>6] |= 1 << (uint(li) & 63)
			s.hits = append(s.hits, groupHit{local: li, val: pairs[i].Val})
		}
	} else {
		ca := c.attrs
		for i, j := 0, 0; i < len(pairs) && j < len(ca); {
			a, b := pairs[i].Attr, ca[j]
			switch {
			case a == b:
				li := int32(j)
				present[li>>6] |= 1 << (uint(li) & 63)
				s.hits = append(s.hits, groupHit{local: li, val: pairs[i].Val})
				i++
				j++
			case a < b:
				i++
			default:
				j++
			}
		}
	}
	if len(s.hits) == 0 {
		return dst
	}

	// Step 2: eligibility. A member survives iff its attribute mask is
	// covered by the present mask, and then in particular its lead
	// attribute is present: enumerating the lead lists of the hit groups
	// visits every member of slots [0, n0) that can survive, once each.
	// Members appended since finalize, slots [n0, n), are in no lead
	// list and are checked in one sweep bounded by the slack. A
	// tombstoned member's mask carries the tombstone bit, which no
	// present mask covers. An empty eligible set exits at once, and a
	// sparse one makes the group loop's early exit bite sooner.
	alive.ClearAll()
	aw := alive.Words()
	anyAlive := false
	for i := range s.hits {
		li := s.hits[i].local
		for _, m := range c.leadIds[c.leadOff[li]:c.leadOff[li+1]] {
			if c.covered(int(m), present) {
				aw[m>>6] |= 1 << (uint(m) & 63)
				anyAlive = true
			}
		}
	}
	for m := c.n0; m < c.n; m++ {
		if c.covered(m, present) {
			aw[m>>6] |= 1 << (uint(m) & 63)
			anyAlive = true
		}
	}
	if !anyAlive {
		return dst
	}

	// Step 3: present groups, in attribute order. Group effects commute
	// (each is alive &= f(group)), so any order yields the same
	// survivors.
	for _, h := range s.hits {
		g := &c.groups[h.local]

		// Satisfied union inputs: the equality probe (binary search of
		// the sorted eq union) and the matched non-equality first
		// predicates.
		var u *bitset.Posting
		if i, ok := g.eqSearch(h.val); ok {
			u = g.eq[i].bits
		}
		fh := s.firstHits[:0]
		for ei := range g.first {
			if g.first[ei].pred.Matches(h.val) {
				fh = append(fh, g.first[ei].bits)
			}
		}
		s.firstHits = fh

		emptied := false
		if ab := g.attrBits; ab.IsSparse() {
			// Sparse group: only the listed members are constrained, so
			// test and clear exactly those instead of sweeping words. Any
			// eq union or first posting here is sparse too (subsets of
			// attrBits cannot be denser than it), so the Test probes walk
			// tiny id lists.
			for _, id := range ab.Ids() {
				i := int(id)
				if !alive.Test(i) || (u != nil && u.Test(i)) {
					continue
				}
				dead := true
				for _, fb := range fh {
					if fb.Test(i) {
						dead = false
						break
					}
				}
				if dead {
					alive.Clear(i)
				}
			}
		} else if len(fh) == 0 {
			if u == nil {
				emptied = ab.AndNotInto(alive)
			} else if ud := u.Dense(); ud != nil {
				// Dense eq union: fold it in directly, skipping the sat
				// copy the general path pays.
				emptied = alive.AndUnion(ud, ab.Dense())
			} else {
				u.CopyInto(sat)
				emptied = alive.AndUnion(sat, ab.Dense())
			}
		} else {
			if u != nil {
				u.CopyInto(sat)
			} else {
				sat.ClearAll()
			}
			for _, fb := range fh {
				fb.OrInto(sat)
			}
			emptied = alive.AndUnion(sat, ab.Dense())
		}
		if emptied {
			return dst
		}
		for ei := range g.strict {
			if !g.strict[ei].pred.Matches(h.val) {
				if g.strict[ei].bits.AndNotInto(alive) {
					return dst
				}
			}
		}
	}

	// Collect survivors word-by-word (a ForEach closure would force dst
	// to escape and allocate on every call).
	for wi, w := range aw {
		base := wi << 6
		for w != 0 {
			dst = append(dst, c.ids[base+bits.TrailingZeros64(w)])
			w &= w - 1
		}
	}
	return dst
}

// covered reports whether member m's attribute mask is covered by
// present, i.e. whether the event carries every attribute m constrains.
//
//apcm:hotpath
func (c *compiled) covered(m int, present []uint64) bool {
	mask := c.masks[m*c.awords : (m+1)*c.awords]
	for w := range mask {
		if mask[w]&^present[w] != 0 {
			return false
		}
	}
	return true
}

// valueTable is a dense attr → value index over the current event:
// epoch-stamped arrays indexed by attribute id, replacing the per-lookup
// linear scan of the event's pair list in the scan kernel. The first
// scan-kernel pool of an event loads it and the event's other pools
// reuse it. It is valid for one MatchWith call only, which begins with
// forget: a caller may refill the same *expr.Event with new pairs
// between calls, so the event pointer alone does not prove the loaded
// values current.
type valueTable struct {
	ev     *expr.Event // the event loaded, nil after forget
	usable bool
	vals   []expr.Value
	stamp  []uint32
	epoch  uint32
}

// maxDenseAttr bounds the table; events carrying larger attribute ids
// fall back to Event.Lookup.
const maxDenseAttr = 1 << 16

// forget invalidates the loaded event.
func (t *valueTable) forget() { t.ev = nil }

// ensure loads e into the table unless it is already loaded, reporting
// whether the table is usable for it.
func (t *valueTable) ensure(e *expr.Event) bool {
	if t.ev == e {
		return t.usable
	}
	t.ev = e
	t.usable = true
	t.epoch++
	if t.epoch == 0 {
		for i := range t.stamp {
			t.stamp[i] = 0
		}
		t.epoch = 1
	}
	for _, p := range e.Pairs() {
		a := int(p.Attr)
		if a >= len(t.vals) {
			if a >= maxDenseAttr {
				t.usable = false
				return false
			}
			n := 1 << bits.Len(uint(a))
			vals := make([]expr.Value, n)
			stamp := make([]uint32, n)
			copy(vals, t.vals)
			copy(stamp, t.stamp)
			t.vals, t.stamp = vals, stamp
		}
		t.vals[a] = p.Val
		t.stamp[a] = t.epoch
	}
	return true
}

//apcm:hotpath
func (t *valueTable) lookup(a expr.AttrID) (expr.Value, bool) {
	i := int(a)
	if i < len(t.stamp) && t.stamp[i] == t.epoch {
		return t.vals[i], true
	}
	return 0, false
}

// scanPool runs the uncompressed kernel: short-circuiting interpretation
// of every pooled expression. Attribute lookups go through the scratch's
// dense value table (stamped array indexing) instead of scanning the
// event's pair list per predicate. Returns the appended dst.
//
//apcm:hotpath
func scanPool(s *kernelScratch, exprs []*expr.Expression, e *expr.Event, dst []expr.ID) []expr.ID {
	vt := &s.vt
	if !vt.ensure(e) {
		return scanPoolSlow(exprs, e, dst)
	}
	for _, x := range exprs {
		matched := true
		for j := range x.Preds {
			p := &x.Preds[j]
			v, ok := vt.lookup(p.Attr)
			if !ok || !p.Matches(v) {
				matched = false
				break
			}
		}
		if matched {
			dst = append(dst, x.ID)
		}
	}
	return dst
}

// scanPoolSlow is the fallback for events whose attribute ids exceed the
// dense-table bound; it resolves attributes against the event directly.
//
//apcm:hotpath
func scanPoolSlow(exprs []*expr.Expression, e *expr.Event, dst []expr.ID) []expr.ID {
	for _, x := range exprs {
		matched := true
		for j := range x.Preds {
			p := &x.Preds[j]
			v, ok := e.Lookup(p.Attr)
			if !ok || !p.Matches(v) {
				matched = false
				break
			}
		}
		if matched {
			dst = append(dst, x.ID)
		}
	}
	return dst
}
