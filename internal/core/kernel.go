package core

import (
	"math/bits"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/bitset"
)

// eligCacheMinWork gates the eligibility cache: for clusters whose
// eligibility sweep is under this many words the map probe costs as much
// as the sweep it would save.
const eligCacheMinWork = 64

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

	// eligIds collects the members found eligible by the candidate pass;
	// alive is materialised from it only when it is non-empty (the common
	// selective case skips the bitset entirely).
	eligIds []int32

	vt   valueTable // dense attr → value table for the current event
	memo predMemo   // cross-event predicate memo, armed per batch
	elig eligCache  // per-cluster eligibility cache keyed (rev, present)

	memoOn bool
	eligOn bool // set for locality-sorted batches (see MatchBatchAppend)

	// batchEvents is the size of the batch in flight; EndBatch uses it to
	// turn the reuse counters below into the sort-arming ratio.
	batchEvents int64

	// Cache effectiveness counters, accumulated locally (the hot path
	// must stay atomic-free) and flushed to the Matcher by EndBatch on
	// the batch path or FlushOrderCounters on scratch release.
	memoHits, memoLookups int64
	eligHits, eligLookups int64
	dedups                int64
	// Selectivity-order counters: kill-sorted group evaluations and
	// early exits taken before the group loop finished.
	orderSorts, earlyExits int64
}

type buffers struct {
	alive *bitset.Bitset
	sat   *bitset.Bitset
	// mark holds the candidate-eligibility occurrence counters, packed
	// epoch<<16 | count so one random access carries both the stamp and
	// the count (epoch-stamping replaces a clear per event). The 16-bit
	// epoch wraps every 64k events, at which point mark is cleared.
	mark  []uint32
	epoch uint32
}

type groupHit struct {
	local int32
	val   expr.Value
	kill  uint32 // groupKill estimate loaded for the kill-order sort
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
			mark:  make([]uint32, n),
		}
		s.bySize[n] = b
	}
	s.b2, s.b2n = s.b1, s.b1n
	s.b1, s.b1n = b, n
	return b
}

// predMatches evaluates one distinct dictionary predicate against the
// event value, going through the per-batch memo when armed. The memo key
// is (cluster revision, entry sequence, value): revisions change on every
// cluster mutation, so a hit can never be stale.
//
//apcm:hotpath
func (s *kernelScratch) predMatches(rev uint64, e *dictEntry, val expr.Value) bool {
	if !s.memoOn {
		return e.pred.Matches(val)
	}
	s.memoLookups++
	key := uint64(e.seq)<<32 | uint64(uint32(val))
	if res, ok, slot := s.memo.find(rev, key); ok {
		s.memoHits++
		return res
	} else {
		res = e.pred.Matches(val)
		s.memo.put(slot, rev, key, res)
		return res
	}
}

// matchCompressed runs the compressed kernel:
//
//  1. Resolve the event's attributes against the cluster's local
//     universe with a merge-join of the two sorted attribute lists and
//     build the present mask (no hashing; both sides are sorted).
//  2. Eligibility: one masked word-compare per member kills everyone
//     constraining an attribute the event lacks, without touching the
//     absent groups themselves. Consecutive events with the same
//     attribute set — the common case after OSR — hit the per-cluster
//     eligibility cache and skip the sweep entirely.
//  3. Per present group, in descending estimated-kill order (groupKill):
//     one equality probe (flat table, else binary search of eq) plus
//     evaluation of the distinct non-equality predicates (memoized
//     across the batch) yields the satisfied union; alive &= satisfied
//     | ^attrBits, where sparse groups touch only their listed members.
//     Failed strict predicates AND-NOT out individually. Dense ops
//     report emptiness exactly, so the loop exits as soon as alive hits
//     zero — the kill order exists to make that happen in as few groups
//     as possible.
//
//apcm:hotpath
func (c *compiled) matchCompressed(s *kernelScratch, e *expr.Event, dst []expr.ID) []expr.ID {
	return c.matchHybrid(s, e, dst, false)
}

// matchHybrid is matchCompressed with an optional measurement mode:
// adaptive probes pass measure=true, which counts the members each
// present group actually killed and folds them into the groupKill EWMAs.
// The popcounts are paid only on probe events.
//
//apcm:hotpath
func (c *compiled) matchHybrid(s *kernelScratch, e *expr.Event, dst []expr.ID, measure bool) []expr.ID {
	bufs := s.get(c.capN)
	alive, sat := bufs.alive, bufs.sat

	// Step 1: present mask and group hits, by merge-join.
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
		// Flat attribute dictionary: one bounds check and an array load
		// per event pair, independent of the universe width.
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
	// covered by the present mask. An empty eligible set exits at once,
	// and a sparse one makes the group loop's early exit bite sooner.
	// The cache is only consulted for locality-sorted batches (eligOn):
	// without sorted adjacency the entry almost never matches, and the
	// probe-plus-store would be pure overhead on every visit.
	var ce *eligEntry
	cached := false
	if s.eligOn && c.n*c.awords >= eligCacheMinWork {
		s.eligLookups++
		ce = s.elig.entry(c.rev)
		if ce.matches(present) {
			s.eligHits++
			if !ce.any {
				return dst
			}
			copy(alive.Words(), ce.words)
			cached = true
			ce = nil // nothing to store
		}
	}
	if !cached {
		// Candidate-driven eligibility: an eligible member has every one
		// of its attributes present, so it appears in the attrBits posting
		// of each present group. When those postings are all sparse and
		// their combined membership is smaller than the full mask sweep,
		// enumerating them visits only members that can possibly survive —
		// on heterogeneous clusters (many rare attributes) that is a
		// handful of counter bumps instead of n mask checks.
		cand := 0
		for i := range s.hits {
			ab := c.groups[s.hits[i].local].attrBits
			if !ab.IsSparse() {
				cand = -1
				break
			}
			cand += ab.Count()
		}
		anyAlive := false
		if cand >= 0 && cand*(c.awords+2) < c.n*c.awords {
			// Count occurrences instead of re-checking masks: a member is
			// eligible exactly when every one of its groups was visited,
			// i.e. when its occurrence count reaches its distinct
			// constrained-attribute count. Tombstoned members carry an
			// unreachable count and can never trip the equality.
			bufs.epoch++
			if bufs.epoch&0xFFFF == 0 { // 16-bit stamp wrapped: clear stale marks
				for i := range bufs.mark {
					bufs.mark[i] = 0
				}
				bufs.epoch++
			}
			stamp := bufs.epoch << 16
			mark, ac := bufs.mark, c.attrCnt
			elig := s.eligIds[:0]
			for i := range s.hits {
				for _, id := range c.groups[s.hits[i].local].attrBits.Ids() {
					v := mark[id]
					if v&0xFFFF0000 == stamp {
						v++
					} else {
						v = stamp | 1
					}
					mark[id] = v
					if uint16(v) == ac[id] {
						elig = append(elig, id)
					}
				}
			}
			s.eligIds = elig
			anyAlive = len(elig) > 0
			if !anyAlive && ce == nil {
				return dst
			}
			alive.ClearAll()
			aw := alive.Words()
			for _, id := range elig {
				aw[id>>6] |= 1 << (uint(id) & 63)
			}
		} else {
			alive.ClearAll()
			aw := alive.Words()
			for m := 0; m < c.n; m++ {
				mask := c.masks[m*c.awords : (m+1)*c.awords]
				ok := true
				for w := range mask {
					if mask[w]&^present[w] != 0 {
						ok = false
						break
					}
				}
				if ok {
					aw[m>>6] |= 1 << (uint(m) & 63)
					anyAlive = true
				}
			}
		}
		if ce != nil {
			ce.store(present, alive.Words(), anyAlive)
		}
		if !anyAlive {
			return dst
		}
	}

	// Step 3: present groups, highest estimated kill first. Group effects
	// commute (each is alive &= f(group)), so any order yields the same
	// survivors; the sort only decides how soon alive can hit zero.
	// Insertion sort in place: hits are few and nearly sorted is common.
	if hits := s.hits; !c.lo.noOrder && len(hits) > 1 {
		for i := range hits {
			hits[i].kill = c.groupKill[hits[i].local].Load()
		}
		for i := 1; i < len(hits); i++ {
			h := hits[i]
			j := i
			for j > 0 && hits[j-1].kill < h.kill {
				hits[j] = hits[j-1]
				j--
			}
			hits[j] = h
		}
		s.orderSorts++
	}

	for _, h := range s.hits {
		g := &c.groups[h.local]
		before := 0
		if measure {
			before = alive.Count()
		}

		// Satisfied union inputs: the equality probe (flat table when
		// compiled, binary search of the sorted eq union otherwise) and
		// the matched non-equality first predicates.
		var u *bitset.Posting
		if g.eqFlat != nil {
			if d := int64(h.val) - int64(g.eqLo); uint64(d) < uint64(len(g.eqFlat)) {
				u = g.eqFlat[d]
			}
		} else if i, ok := g.eqSearch(h.val); ok {
			u = g.eq[i].bits
		}
		fh := s.firstHits[:0]
		for ei := range g.first {
			if s.predMatches(c.rev, &g.first[ei], h.val) {
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
			s.earlyExits++
			if measure {
				c.noteKills(h.local, before)
			}
			return dst
		}
		for ei := range g.strict {
			if !s.predMatches(c.rev, &g.strict[ei], h.val) {
				if g.strict[ei].bits.AndNotInto(alive) {
					s.earlyExits++
					if measure {
						c.noteKills(h.local, before)
					}
					return dst
				}
			}
		}
		if measure {
			c.noteKills(h.local, before-alive.Count())
		}
	}

	// Collect survivors word-by-word (a ForEach closure would force dst
	// to escape and allocate on every call).
	aw := alive.Words()
	for wi, w := range aw {
		base := wi << 6
		for w != 0 {
			dst = append(dst, c.ids[base+bits.TrailingZeros64(w)])
			w &= w - 1
		}
	}
	return dst
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
