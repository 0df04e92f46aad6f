package core

import (
	"math/bits"
	"slices"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/betree"
	"github.com/streammatch/apcm/internal/bitset"
)

// compiled is the compressed form of one BE-Tree pool. Three structures
// carry the match:
//
//   - per-member attribute masks over a cluster-local attribute universe,
//     giving a one-pass eligibility test ("does the event cover every
//     attribute this member constrains?") that never touches attributes
//     the event lacks;
//   - per-attribute groups with an equality union (the distinct values v
//     of members whose first predicate on the attribute is "== v", sorted,
//     each with the posting of those members — one probe replaces
//     evaluating every distinct equality predicate) plus dictionaries of
//     distinct non-equality "first" predicates and of "strict" additional
//     predicates (second and later predicates on the same attribute of
//     one member);
//   - membership postings per dictionary entry. A posting is hybrid
//     (bitset.Posting): dense entries combine word-wide, sparse ones —
//     the common case on selective workloads — touch only their listed
//     members. Set chooses the representation per entry by popcount, and
//     finalize re-homes all posting storage into the cluster's arena.
//
// Each cluster has one layout, chosen only from its input: a posting is
// sparse or dense by the density rule (bitset.SparseMaxFor), the
// attribute universe gets a direct table (attrDirect) by the span rule
// (attrDirectMaxSpan and friends), and an equality probe is a binary
// search of the sorted eq slice.
//
// A compiled cluster holds no Go map: attributes resolve by localOf, and
// building and maintenance scan the small per-group dictionaries and the
// member ids.
//
// Compiled clusters support bounded incremental maintenance so that a
// subscription update does not force a full recompilation: bitsets are
// allocated with slack capacity and new members append into it
// (tryAppend), while deletions set a reserved "tombstone" bit in the
// member's attribute mask, which the eligibility pass can never cover
// (tryTombstone). A cluster that falls more than one pool generation
// behind, runs out of slack, grows a new attribute, or accumulates too
// many tombstones is recompiled lazily on its next match instead.
//
// Mutation (tryAppend/tryTombstone) follows the matcher's write
// contract: it must never run concurrently with matching.
type compiled struct {
	gen   uint64
	n     int // member slots in use (live + tombstoned)
	tombs int // tombstoned members
	capN  int // member capacity of every bitset and of masks

	// ids maps member slot → subscription id. Tombstoned slots keep
	// their id; tryTombstone skips them when it scans for a member.
	ids []expr.ID

	// Cluster-local attribute universe: attrs lists the constrained
	// attributes sorted ascending, and an attribute's local index is its
	// position in attrs (see localOf). Local index nAttrs is reserved as
	// the tombstone slot: no event attribute ever maps to it, so a mask
	// with that bit set is never covered.
	attrs  []expr.AttrID
	nAttrs int
	awords int      // words per member attribute mask ((nAttrs+1+63)/64)
	masks  []uint64 // capN × awords, flat
	// Lead lists, CSR-style: the slots below n0 (the members finalize
	// saw) whose lead attribute (see lead) is local index li are
	// leadIds[leadOff[li]:leadOff[li+1]]. Step 2 of the kernel checks
	// only these lists for present attributes, plus slots [n0, n).
	n0      int
	leadOff []int32 // nAttrs+1 offsets into leadIds
	leadIds []int32 // n0 member slots
	// attrDirect, when non-nil, maps attr - attrLo directly to the local
	// attribute index (-1 = not in the universe): step 1 indexes it per
	// event pair instead of joining against the sorted universe. finalize
	// builds it when the universe's id span is small (see
	// attrDirectMaxSpan); wider universes take the merge-join.
	attrDirect []int32
	attrLo     expr.AttrID

	groups []attrGroup // indexed by local attribute index

	predSlots     int // Σ per-member predicates (live members)
	distinctPreds int // Σ dictionary entries (incl. equality-union values)

	// held is heldBytes kept current by every posting, equality-union and
	// dictionary change; finalHeld is its value when finalize returned.
	// memoryBytes counts growth beyond finalHeld as maintenance storage
	// outside the arena without walking the postings.
	held, finalHeld int64

	// arena owns the cluster's backing storage after finalize: masks,
	// posting structs and their words/ids, equality unions, dictionary
	// entries, the attribute table and the lead lists all live in its
	// slabs (see arena.go). Nil only before finalize runs.
	arena *clusterArena
}

// attrGroup holds one attribute's compiled predicates.
type attrGroup struct {
	// attrBits marks members with at least one predicate on the
	// attribute; members outside it are unaffected by this group.
	attrBits *bitset.Posting
	// eq is the equality union, sorted by value: entry v holds the
	// members whose first predicate on this attribute is "== v". The
	// kernel finds an event value in it by binary search (eqSearch).
	eq []eqEntry
	// first holds the distinct non-equality first predicates.
	first []dictEntry
	// strict holds the distinct additional predicates; a member already
	// counted in eq/first dies if any of its strict predicates fails.
	strict []dictEntry
}

// eqEntry is one equality-union value and the members it selects.
type eqEntry struct {
	val  expr.Value
	bits *bitset.Posting
}

// dictEntry is one distinct predicate and the members it belongs to.
type dictEntry struct {
	pred *expr.Predicate
	bits *bitset.Posting
}

// eqSearch returns the position of v in g.eq — or where v would be
// inserted — and whether it is there.
//
//apcm:hotpath
func (g *attrGroup) eqSearch(v expr.Value) (int, bool) {
	eq := g.eq
	lo, hi := 0, len(eq)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if eq[mid].val < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(eq) && eq[lo].val == v
}

// localOf returns attr's cluster-local index, reporting false when attr
// is outside the universe.
func (c *compiled) localOf(a expr.AttrID) (int32, bool) {
	if dir := c.attrDirect; dir != nil {
		d := int64(a) - int64(c.attrLo)
		if uint64(d) >= uint64(len(dir)) || dir[d] < 0 {
			return -1, false
		}
		return dir[d], true
	}
	i, ok := slices.BinarySearch(c.attrs, a)
	return int32(i), ok
}

// slackCapacity sizes bitsets with headroom for incremental appends.
func slackCapacity(n int) int {
	c := n + n/4 + 16
	return (c + 63) &^ 63
}

// attrDirect sizing: the table spends one int32 per attribute id in the
// universe's span, so it is built only when the span is bounded in
// absolute terms and not grossly larger than the universe it indexes.
const (
	attrDirectMaxSpan    = 4096 // never spend more than 16 KiB per cluster
	attrDirectSpanFactor = 32   // allow up to this many empty slots per attribute
	attrDirectMinSpan    = 64   // spans this small are always acceptable
)

// sparseSlabSlack is the per-posting append headroom finalize leaves in
// the shared id slab. A posting that outgrows its slack re-allocates
// privately (the slab slice is capacity-clamped), so neighbours are
// never clobbered.
const sparseSlabSlack = 2

// compile builds the compressed form of p at its current generation.
func compile(p *betree.Pool) *compiled {
	n := len(p.Exprs)
	c := &compiled{
		gen:  p.Gen,
		capN: slackCapacity(n),
		ids:  make([]expr.ID, 0, n),
	}

	// Pass 1: the cluster-local attribute universe (+1 tombstone slot),
	// sorted and de-duplicated; a local index is a rank in it.
	var all []expr.AttrID
	for _, x := range p.Exprs {
		for i := range x.Preds {
			all = append(all, x.Preds[i].Attr)
		}
	}
	slices.Sort(all)
	c.attrs = slices.Clip(slices.Clone(slices.Compact(all)))
	c.nAttrs = len(c.attrs)
	c.awords = (c.nAttrs + 1 + 63) / 64
	c.masks = make([]uint64, c.capN*c.awords)
	c.groups = make([]attrGroup, c.nAttrs)

	// Pass 2: members.
	for _, x := range p.Exprs {
		c.append(x)
	}

	// Pass 3: the arena and the attribute table.
	c.finalize()
	return c
}

// newPosting allocates an empty posting. Postings start sparse; Set
// promotes them past the density boundary (member indexes only grow
// during a build, so the sorted-list appends are O(1)).
func (c *compiled) newPosting() *bitset.Posting {
	p := bitset.NewPosting(c.capN)
	c.held += postingHeld(p)
	return p
}

// set adds member idx to p, keeping held current when p grows or
// promotes.
func (c *compiled) set(p *bitset.Posting, idx int) {
	before := postingHeld(p)
	p.Set(idx)
	c.held += postingHeld(p) - before
}

// append adds x as the next member. Every attribute of x must already be
// in the cluster universe and a free slot must exist; compile guarantees
// both, tryAppend checks them.
func (c *compiled) append(x *expr.Expression) {
	idx := c.n
	c.n++
	c.ids = append(c.ids, x.ID)
	mask := c.masks[idx*c.awords : (idx+1)*c.awords]
	var g *attrGroup

	for j := range x.Preds {
		pr := &x.Preds[j]
		c.predSlots++
		// Predicates are attribute-sorted within an expression, so
		// "first on this attribute" is "previous predicate differs".
		isFirst := j == 0 || x.Preds[j-1].Attr != pr.Attr
		if isFirst {
			li, _ := c.localOf(pr.Attr)
			g = &c.groups[li]
			if g.attrBits == nil {
				g.attrBits = c.newPosting()
			}
			c.set(g.attrBits, idx)
			mask[li>>6] |= 1 << (uint(li) & 63)
		}
		switch {
		case isFirst && pr.Op == expr.EQ:
			c.set(c.eqAdd(g, pr.Lo), idx)
		case isFirst:
			c.set(g.first[c.entry(&g.first, pr)].bits, idx)
		default:
			c.set(g.strict[c.entry(&g.strict, pr)].bits, idx)
		}
	}
}

// eqAdd returns g's equality-union posting for v, inserting a new
// entry at its sorted position when v is new.
func (c *compiled) eqAdd(g *attrGroup, v expr.Value) *bitset.Posting {
	i, ok := g.eqSearch(v)
	if ok {
		return g.eq[i].bits
	}
	u := c.newPosting()
	oldCap := cap(g.eq)
	g.eq = slices.Insert(g.eq, i, eqEntry{val: v, bits: u})
	c.held += int64(cap(g.eq)-oldCap) * eqEntrySize
	c.distinctPreds++
	return u
}

// entry returns the position of pr's entry in *dict, appending a new
// entry when pr is not there yet. Dictionaries are per group and small,
// so a scan with Predicate.Equal finds the entry, at compile and on
// append alike.
func (c *compiled) entry(dict *[]dictEntry, pr *expr.Predicate) int {
	for i := range *dict {
		if (*dict)[i].pred.Equal(pr) {
			return i
		}
	}
	c.distinctPreds++
	oldCap := cap(*dict)
	*dict = append(*dict, dictEntry{pred: pr, bits: c.newPosting()})
	c.held += int64(cap(*dict)-oldCap) * dictSize
	return len(*dict) - 1
}

// forEachPosting visits every posting of the cluster, in a fixed order.
func (c *compiled) forEachPosting(fn func(p *bitset.Posting)) {
	for gi := range c.groups {
		g := &c.groups[gi]
		if g.attrBits != nil {
			fn(g.attrBits)
		}
		for i := range g.eq {
			fn(g.eq[i].bits)
		}
		for i := range g.first {
			fn(g.first[i].bits)
		}
		for i := range g.strict {
			fn(g.strict[i].bits)
		}
	}
}

// finalize runs after all members are in. A pre-pass sizes every slab
// class — posting structs, dense words, sparse ids, equality-union
// entries, dictionary entries, the attribute table, masks, lead lists —
// and the whole cluster is re-homed into one clusterArena (see
// arena.go), so the group loop walks a handful of contiguous arrays
// instead of chasing per-entry heap objects, and recompile-and-swap
// frees the old cluster as a few slabs.
func (c *compiled) finalize() {
	// Pre-pass A: posting and dictionary volumes. Representations are
	// already settled (Set promotes at the density boundary).
	words := c.capN / 64 // per dense posting
	nPost, nDense, denseWords, sparseIds, nDict, nEq := 0, 0, 0, 0, 0, 0
	c.forEachPosting(func(p *bitset.Posting) {
		nPost++
		if p.IsSparse() {
			sparseIds += len(p.Ids()) + sparseSlabSlack
		} else {
			nDense++
			denseWords += words
		}
	})
	for gi := range c.groups {
		g := &c.groups[gi]
		nDict += len(g.first) + len(g.strict)
		nEq += len(g.eq)
	}

	// Pre-pass B: attribute-table span (the table is carved from the id
	// slab). A direct attr → local index table replaces the step-1
	// merge-join against c.attrs when the universe's id span is bounded.
	// tryAppend never grows the universe, so the table stays coherent
	// across incremental maintenance.
	attrSpan := 0
	if c.nAttrs > 0 {
		lo, hi := c.attrs[0], c.attrs[len(c.attrs)-1]
		span := int64(hi) - int64(lo) + 1
		if span <= attrDirectMaxSpan && span <= int64(attrDirectSpanFactor*c.nAttrs+attrDirectMinSpan) {
			attrSpan = int(span)
		}
	}

	maskWords := len(c.masks)
	ar := newClusterArena(arenaSizes{
		words: maskWords + denseWords,
		ids:   sparseIds + attrSpan + c.nAttrs + 1 + c.n,
		posts: nPost,
		bsets: nDense,
		dict:  nDict,
		eq:    nEq,
	})
	c.arena = ar

	// Re-home the flat member state. The masks were built in a private
	// slice during the append pass (slab sizes depend on the finished
	// postings); one copy moves them into the arena for good.
	copy(carve(ar.words, &ar.wo, maskWords, 0), c.masks)
	c.masks = ar.words[:maskWords:maskWords]

	// rehome moves one posting — struct and backing — into the arena.
	rehome := func(p *bitset.Posting) *bitset.Posting {
		np := &carve(ar.posts, &ar.po, 1, 0)[0]
		if p.IsSparse() {
			ids := p.Ids()
			slab := carve(ar.ids, &ar.io, len(ids), sparseSlabSlack)
			copy(slab, ids)
			np.InitSparse(slab, c.capN)
		} else {
			bs := &carve(ar.bsets, &ar.bo, 1, 0)[0]
			bs.InitView(carve(ar.words, &ar.wo, words, 0), c.capN)
			p.CopyInto(bs)
			np.InitDense(bs)
		}
		return np
	}

	// Re-home every posting, equality union and dictionary entry, group
	// by group, in forEachPosting order so consumption matches pre-pass
	// A exactly.
	for gi := range c.groups {
		g := &c.groups[gi]
		if g.attrBits != nil {
			g.attrBits = rehome(g.attrBits)
		}
		g.eq = carveCopy(ar.eq, &ar.eo, g.eq)
		for i := range g.eq {
			g.eq[i].bits = rehome(g.eq[i].bits)
		}
		g.first = carveCopy(ar.dict, &ar.do, g.first)
		for i := range g.first {
			g.first[i].bits = rehome(g.first[i].bits)
		}
		g.strict = carveCopy(ar.dict, &ar.do, g.strict)
		for i := range g.strict {
			g.strict[i].bits = rehome(g.strict[i].bits)
		}
	}

	if attrSpan > 0 {
		lo := c.attrs[0]
		dir := carve(ar.ids, &ar.io, attrSpan, 0)
		for i := range dir {
			dir[i] = -1
		}
		for i, a := range c.attrs {
			dir[int64(a)-int64(lo)] = int32(i)
		}
		c.attrDirect, c.attrLo = dir, lo
	}
	c.buildLeads(carve(ar.ids, &ar.io, c.nAttrs+1, 0), carve(ar.ids, &ar.io, c.n, 0))
	c.held = c.heldBytes()
	c.finalHeld = c.held
}

// buildLeads fills the lead lists of slots [0, n) into off (nAttrs+1
// zeroed offsets) and ids (n slots) by a counting sort on each member's
// lead, and sets n0 = n. Placing members in reverse slot order leaves
// off[li] at the start of li's list and each list in slot order.
func (c *compiled) buildLeads(off, ids []int32) {
	for m := 0; m < c.n; m++ {
		off[c.lead(m)]++
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	for m := c.n - 1; m >= 0; m-- {
		li := c.lead(m)
		off[li]--
		ids[off[li]] = int32(m)
	}
	c.n0, c.leadOff, c.leadIds = c.n, off, ids
}

// lead returns the local index of member m's lead attribute: of the
// attributes in its mask, the one whose attrBits holds the fewest
// members (the lowest index on ties). finalize calls it before any
// tombstone bit is set.
func (c *compiled) lead(m int) int32 {
	best, fewest := int32(-1), 0
	for w, word := range c.masks[m*c.awords : (m+1)*c.awords] {
		for ; word != 0; word &= word - 1 {
			li := int32(w<<6 + bits.TrailingZeros64(word))
			if k := c.groups[li].attrBits.Count(); best < 0 || k < fewest {
				best, fewest = li, k
			}
		}
	}
	return best
}

// tryAppend incorporates a freshly inserted pool member without
// recompiling. It succeeds only when this cluster is exactly one
// generation behind (i.e. the insert is the only unseen change), slot
// capacity remains, tombstones have not piled up, and the expression
// introduces no new attribute. On success the cluster advances to the
// pool's generation. Sparse postings absorb the append through their
// slab slack (overflowing ones re-allocate privately) and may promote
// to dense when the new member crosses the density boundary.
func (c *compiled) tryAppend(p *betree.Pool, x *expr.Expression) bool {
	if c.gen+1 != p.Gen || c.n >= c.capN || c.needsRebuild() {
		return false
	}
	for i := range x.Preds {
		if _, ok := c.localOf(x.Preds[i].Attr); !ok {
			return false
		}
	}
	c.append(x)
	c.gen = p.Gen
	return true
}

// tryAppendBatch incorporates a run of freshly inserted pool members in
// one step: one generation check and one pass, instead of one of each
// per subscription (the bulk-restore path). It succeeds
// only when the batch accounts for every unseen pool change — the
// cluster's generation plus the batch length must land exactly on the
// pool's generation. That check is sound because cluster generations
// are only ever assigned from pool generations: any change beyond these
// appends (a split, a member moved in from a neighbouring pool's split,
// an interleaved delete) advances p.Gen past c.gen+len(xs) and the
// cluster is left stale for the usual lazy recompile.
func (c *compiled) tryAppendBatch(p *betree.Pool, xs []*expr.Expression) bool {
	if len(xs) == 0 || c.gen+uint64(len(xs)) != p.Gen || c.n+len(xs) > c.capN || c.needsRebuild() {
		return false
	}
	for _, x := range xs {
		for i := range x.Preds {
			if _, ok := c.localOf(x.Preds[i].Attr); !ok {
				return false
			}
		}
	}
	for _, x := range xs {
		c.append(x)
	}
	c.gen = p.Gen
	return true
}

// tryTombstone marks a deleted member dead without recompiling, by
// setting the reserved tombstone bit in its attribute mask (which no
// event can cover). The member stays in its lead list. Its slot is
// found by scanning ids (at most capN slots), skipping slots whose
// tombstone bit is already set, so deleting an id twice fails the
// second time and a re-inserted id is found at its new slot. Same
// generation discipline as tryAppend.
func (c *compiled) tryTombstone(p *betree.Pool, id expr.ID) bool {
	if c.gen+1 != p.Gen {
		return false
	}
	tw, tbit := c.nAttrs>>6, uint64(1)<<(uint(c.nAttrs)&63) // reserved local slot
	idx := -1
	for i, v := range c.ids {
		if v == id && c.masks[i*c.awords+tw]&tbit == 0 {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	c.masks[idx*c.awords+tw] |= tbit
	c.tombs++
	c.gen = p.Gen
	return true
}

// needsRebuild reports whether tombstones dominate the cluster; the
// matcher recompiles such clusters on their next visit.
func (c *compiled) needsRebuild() bool { return c.tombs*2 > c.n }

// fresh reports whether c is current for p and needs no rebuild.
func (c *compiled) fresh(p *betree.Pool) bool { return c.gen == p.Gen && !c.needsRebuild() }

// live returns the number of live members.
func (c *compiled) live() int { return c.n - c.tombs }

// postingTally summarises the cluster's posting representations for
// diagnostics: chosen representations, sparse volume and a log2-bucketed
// posting-density histogram (bucket i counts postings with member count
// in [2^(i-1), 2^i)).
type postingTally struct {
	Dense         int
	Sparse        int
	SparseMembers int
	Hist          [12]int
}

func (c *compiled) tally() postingTally {
	var t postingTally
	c.forEachPosting(func(p *bitset.Posting) {
		n := p.Count()
		if p.IsSparse() {
			t.Sparse++
			t.SparseMembers += n
		} else {
			t.Dense++
		}
		b := 0
		for 1<<b <= n {
			b++
		}
		if b >= len(t.Hist) {
			b = len(t.Hist) - 1
		}
		t.Hist[b]++
	})
	return t
}

// Struct sizes on 64-bit platforms, for byte accounting without unsafe
// (TestAccountedStructSizes pins them to unsafe.Sizeof).
const (
	compiledSize = 272
	groupSize    = 80
	eqEntrySize  = 16
	dictSize     = 16
	postingSize  = 40
	bitsetSize   = 32
	arenaSize    = 192
)

// postingHeld is what one posting holds: its struct, its bitset struct
// when dense, and its backing words or ids by capacity.
func postingHeld(p *bitset.Posting) int64 {
	b := postingSize + int64(p.MemBytes())
	if !p.IsSparse() {
		b += bitsetSize
	}
	return b
}

// heldBytes sums what the postings, equality unions and dictionaries
// hold — structs, backing words and ids, slice capacities — wherever
// that storage lives. finalize seeds held with it; tests check that the
// running total agrees.
func (c *compiled) heldBytes() int64 {
	var b int64
	c.forEachPosting(func(p *bitset.Posting) { b += postingHeld(p) })
	for gi := range c.groups {
		g := &c.groups[gi]
		b += int64(cap(g.eq))*eqEntrySize + int64(cap(g.first)+cap(g.strict))*dictSize
	}
	return b
}

// memoryBytes reports the cluster's heap footprint: the structs, the
// group table, the id and attribute lists, every arena slab, and what
// incremental maintenance allocated outside the arena since finalize,
// measured as the growth of held. Size-class rounding is not counted.
func (c *compiled) memoryBytes() int64 {
	b := int64(compiledSize+arenaSize) + int64(cap(c.groups))*groupSize +
		int64(cap(c.ids))*8 + int64(cap(c.attrs))*4 + c.arena.bytes()
	if grown := c.held - c.finalHeld; grown > 0 {
		b += grown
	}
	return b
}
