// Package betree implements a BE-Tree-style index for Boolean
// expressions over a high-dimensional discrete space (Sadoghi &
// Jacobsen, ICDE 2011): the sequential state-of-the-art matcher that the
// compressed matchers in internal/core build on and are compared
// against.
//
// Structure. Every tree node holds a pool of resting expressions and a
// set of attribute partitions. When a pool overflows, the node picks the
// attribute covering the most pooled expressions (two-phase space
// partitioning) and moves those expressions into that attribute's
// partition. Inside a partition, space clustering places each expression
// by the span of its most selective predicate on the partition
// attribute: zero-width spans land in per-value equality buckets, wider
// spans descend a binary halving tree as deep as they fit. Matching an
// event descends, for each event attribute, into that attribute's
// partition (the equality bucket of the event value plus the halving
// path containing it) and verifies the pooled expressions it meets.
//
// The tree exposes its pools (CollectPoolsAppend / Pools) so that the
// compressed matcher can compile them into bitset clusters while reusing
// the tree's pruning.
package betree

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"github.com/streammatch/apcm/expr"
)

// Config tunes the tree.
type Config struct {
	// MaxPool is the pool size that triggers partitioning. Larger pools
	// mean fewer, bigger clusters — cheaper for the compressed matcher,
	// more verification work for the sequential one.
	MaxPool int
	// MaxClusterDepth bounds the binary halving descent inside a
	// partition's range-cluster tree.
	MaxClusterDepth int
}

// DefaultConfig is tuned for sequential matching.
func DefaultConfig() Config {
	return Config{MaxPool: 32, MaxClusterDepth: 32}
}

func (c *Config) sanitize() {
	if c.MaxPool <= 0 {
		c.MaxPool = 32
	}
	if c.MaxClusterDepth <= 0 || c.MaxClusterDepth > 40 {
		c.MaxClusterDepth = 32
	}
}

// Pool is a leaf-resident set of expressions. Gen increments on every
// mutation so that derived structures (compressed clusters) can detect
// staleness.
type Pool struct {
	Gen   uint64
	Exprs []*expr.Expression
	// Derived holds the state a derived structure keeps for this pool
	// (the compressed matcher's cluster), published atomically so that
	// matchers read it without a lock or a map lookup. The tree never
	// reads or writes it; its owner stores one concrete type only.
	Derived atomic.Value
}

// remove takes the expression with the given id out of the pool and
// returns it, or nil when the pool does not hold it.
func (p *Pool) remove(id expr.ID) *expr.Expression {
	for i, x := range p.Exprs {
		if x.ID == id {
			last := len(p.Exprs) - 1
			p.Exprs[i] = p.Exprs[last]
			p.Exprs[last] = nil
			p.Exprs = p.Exprs[:last]
			p.Gen++
			return x
		}
	}
	return nil
}

type node struct {
	pool Pool
	// parts is sorted by partition attribute. The descent visits it with
	// a merge-join against the event's sorted pair list, and inserts
	// binary-search it — a map here cost a hash probe per event pair per
	// visited node, which the E1 profile put among the hottest
	// instructions in the whole match path.
	parts []*partition
	// splitFailAt remembers the pool size at the last failed split
	// attempt, so degenerate pools do not rescore on every insert.
	splitFailAt int
}

// part returns the partition on attr, or nil.
func (n *node) part(a expr.AttrID) *partition {
	lo, hi := 0, len(n.parts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.parts[mid].attr < a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.parts) && n.parts[lo].attr == a {
		return n.parts[lo]
	}
	return nil
}

// addPart inserts part keeping n.parts sorted by attribute.
func (n *node) addPart(part *partition) {
	i := len(n.parts)
	n.parts = append(n.parts, part)
	for i > 0 && n.parts[i-1].attr > part.attr {
		n.parts[i] = n.parts[i-1]
		i--
	}
	n.parts[i] = part
}

type partition struct {
	attr expr.AttrID
	eq   eqTable // value → equality-bucket node
	root *cnode  // range-cluster tree over the full domain
}

// eqTable is an open-addressed value→node table. The descent performs
// exactly one lookup per (event pair, partition) visit, and the Go map
// it replaces spent more time in hash plumbing than the rest of the
// node visit combined; a flat power-of-two table with Fibonacci
// hashing and linear probing makes the common case one multiply and a
// couple of probes over contiguous memory. Key and pointer live in one
// entry so a probe touches a single cache line, and occupancy is kept
// at or below half so the expected probe count of a *miss* — the
// common outcome, most event values have no equality bucket — stays
// around two. Buckets are never deleted (empty equality buckets
// persist until their node is garbage), which keeps probing
// tombstone-free.
type eqTable struct {
	entries []eqEntry
	n       int
	shift   uint32 // 32 - log2(len), for the multiplicative hash
}

type eqEntry struct {
	val expr.Value
	n   *node // nil marks an empty slot
}

func (t *eqTable) get(v expr.Value) *node {
	if t.n == 0 {
		return nil
	}
	mask := uint32(len(t.entries) - 1)
	i := (uint32(v) * 2654435769) >> t.shift
	for {
		e := &t.entries[i]
		if e.n == nil || e.val == v {
			return e.n
		}
		i = (i + 1) & mask
	}
}

// put inserts a new key. The caller has already checked get(v) == nil.
func (t *eqTable) put(v expr.Value, nd *node) {
	if 2*(t.n+1) > len(t.entries) {
		t.grow()
	}
	mask := uint32(len(t.entries) - 1)
	i := (uint32(v) * 2654435769) >> t.shift
	for t.entries[i].n != nil {
		i = (i + 1) & mask
	}
	t.entries[i] = eqEntry{val: v, n: nd}
	t.n++
}

func (t *eqTable) grow() {
	size := 8
	if len(t.entries) > 0 {
		size = 2 * len(t.entries)
	}
	old := t.entries
	t.entries = make([]eqEntry, size)
	t.shift = 32 - uint32(bits.TrailingZeros(uint(size)))
	t.n = 0
	for _, e := range old {
		if e.n != nil {
			t.put(e.val, e.n)
		}
	}
}

// each visits every bucket node.
func (t *eqTable) each(fn func(*node)) {
	for _, e := range t.entries {
		if e.n != nil {
			fn(e.n)
		}
	}
}

// cnode is a node of a partition's range-cluster tree. The tree is
// *path-compressed*: the halving descent only ever produces canonical
// dyadic ranges (each depth-d range is one of the 2^d aligned
// 2^(32-d)-wide slices of the biased value domain), so a chain of
// empty intermediate halvings carries no information and is never
// materialised. A cnode exists only if it rests expressions (n != nil)
// or branches two materialised subtrees; left/right point at the
// nearest materialised descendant inside the lower/upper half, at any
// depth. Before compression the event walk chased up to
// MaxClusterDepth pointers per (pair, partition) — almost all of them
// cache-missing empty intermediates; the E1 profile showed that chain
// walk as the single hottest loop in the match path.
type cnode struct {
	lo, hi      expr.Value
	n           *node
	left, right *cnode
}

// biased maps a value to its order-preserving unsigned image, in which
// canonical halving ranges are aligned power-of-two slices.
func biased(v expr.Value) uint32 { return uint32(v) ^ 0x80000000 }

func unbiased(u uint32) expr.Value { return expr.Value(u ^ 0x80000000) }

// dyadicTarget returns the range a span [lo,hi] (lo < hi) rests at:
// the deepest canonical range containing it, at most maxDepth halvings
// below the full domain. This is exactly where the uncompressed
// descent stopped — it halved while the span fit in a half, i.e. while
// the biased endpoints shared another leading bit.
func dyadicTarget(lo, hi expr.Value, maxDepth int) (expr.Value, expr.Value) {
	a, b := biased(lo), biased(hi)
	d := bits.LeadingZeros32(a ^ b)
	if d > maxDepth {
		d = maxDepth
	}
	if d == 0 {
		return expr.MinValue, expr.MaxValue
	}
	shift := uint(32 - d)
	tlo := a >> shift << shift
	mask := uint32(1)<<shift - 1
	return unbiased(tlo), unbiased(tlo | mask)
}

// dyadicLCA returns the deepest canonical range containing two
// disjoint canonical ranges, given their lower bounds.
func dyadicLCA(l1, l2 expr.Value) (expr.Value, expr.Value) {
	a, b := biased(l1), biased(l2)
	shift := uint(32 - bits.LeadingZeros32(a^b))
	if shift >= 32 {
		return expr.MinValue, expr.MaxValue
	}
	tlo := a >> shift << shift
	mask := uint32(1)<<shift - 1
	return unbiased(tlo), unbiased(tlo | mask)
}

// Tree is a BE-Tree. Not safe for concurrent mutation; concurrent
// matching is safe only in the absence of writers.
type Tree struct {
	cfg  Config
	root *node
	loc  map[expr.ID]*node // owning node for deletion

	numNodes  int
	numParts  int
	numCnodes int
	// exprBytes is Σ MemBytes of the indexed expressions, kept current
	// by InsertPool and DeletePool so MemBytes does not walk them.
	exprBytes int64
}

// New returns an empty tree with the given configuration.
func New(cfg Config) *Tree {
	cfg.sanitize()
	return &Tree{
		cfg:      cfg,
		root:     &node{},
		loc:      make(map[expr.ID]*node),
		numNodes: 1,
	}
}

// Size returns the number of indexed expressions.
func (t *Tree) Size() int { return len(t.loc) }

// Insert adds x to the tree.
func (t *Tree) Insert(x *expr.Expression) error {
	_, _, err := t.InsertPool(x)
	return err
}

// InsertPool is Insert but additionally returns the pool the expression
// came to rest in, which derived structures (compressed clusters) use
// for incremental maintenance. An insertion can overflow a pool and
// split it, moving members into a new partition below; split is that
// pool, or nil when none split. Pools the split creates are new, so
// split is the only existing pool an insertion can shrink. Every pool's
// generation reflects every change, so a derived structure that is
// more than one generation behind must recompile.
func (t *Tree) InsertPool(x *expr.Expression) (pool, split *Pool, err error) {
	if _, dup := t.loc[x.ID]; dup {
		return nil, nil, fmt.Errorf("betree: duplicate expression id %d", x.ID)
	}
	split = t.insert(t.root, x, nil)
	t.exprBytes += x.MemBytes()
	return &t.loc[x.ID].pool, split, nil
}

// used tracks partition attributes on the path as a small linked list;
// paths are short so lookup is a scan.
type used struct {
	attr expr.AttrID
	prev *used
}

func (u *used) has(a expr.AttrID) bool {
	for ; u != nil; u = u.prev {
		if u.attr == a {
			return true
		}
	}
	return false
}

// insert places x at or below n and returns the pool it split, if any.
func (t *Tree) insert(n *node, x *expr.Expression, u *used) *Pool {
	// Route into an existing partition when one of the expression's
	// indexable attributes already has one here.
	if len(n.parts) > 0 {
		for i := range x.Preds {
			p := &x.Preds[i]
			if !p.Indexable() || u.has(p.Attr) {
				continue
			}
			if part := n.part(p.Attr); part != nil {
				return t.insertIntoPartition(part, x, u)
			}
		}
	}
	n.pool.Exprs = append(n.pool.Exprs, x)
	n.pool.Gen++
	t.loc[x.ID] = n
	if len(n.pool.Exprs) > t.cfg.MaxPool && len(n.pool.Exprs) > n.splitFailAt+n.splitFailAt/2 && t.split(n, u) {
		return &n.pool
	}
	return nil
}

// bestPredOn returns x's most selective indexable predicate on attr.
func bestPredOn(x *expr.Expression, attr expr.AttrID) *expr.Predicate {
	var best *expr.Predicate
	var bestWidth uint64
	for i := range x.Preds {
		p := &x.Preds[i]
		if p.Attr != attr || !p.Indexable() {
			continue
		}
		lo, hi := p.Span()
		w := uint64(int64(hi) - int64(lo))
		if best == nil || w < bestWidth {
			best, bestWidth = p, w
		}
	}
	return best
}

func (t *Tree) insertIntoPartition(part *partition, x *expr.Expression, u *used) *Pool {
	p := bestPredOn(x, part.attr)
	u2 := &used{attr: part.attr, prev: u}
	lo, hi := p.Span()
	if lo == hi {
		bn := part.eq.get(lo)
		if bn == nil {
			bn = &node{}
			t.numNodes++
			part.eq.put(lo, bn)
		}
		return t.insert(bn, x, u2)
	}
	// Descend the compressed tree toward the span's resting range,
	// materialising at most two cnodes (a branch point and the target).
	tlo, thi := dyadicTarget(lo, hi, t.cfg.MaxClusterDepth)
	c := part.root
	for c.lo != tlo || c.hi != thi {
		// The target is strictly inside c: pick the half it lies in.
		link := &c.left
		if thi > midpoint(c.lo, c.hi) {
			link = &c.right
		}
		d := *link
		switch {
		case d == nil:
			// Empty half: the target becomes its materialised root.
			c = &cnode{lo: tlo, hi: thi}
			t.numCnodes++
			*link = c
		case d.lo <= tlo && thi <= d.hi:
			// Target at or below d: keep walking.
			c = d
		case tlo <= d.lo && d.hi <= thi:
			// d below the target: splice the target in above it.
			c = &cnode{lo: tlo, hi: thi}
			t.numCnodes++
			if d.hi <= midpoint(tlo, thi) {
				c.left = d
			} else {
				c.right = d
			}
			*link = c
		default:
			// Disjoint: branch at their lowest common canonical range,
			// which holds them on opposite sides.
			blo, bhi := dyadicLCA(d.lo, tlo)
			br := &cnode{lo: blo, hi: bhi}
			c = &cnode{lo: tlo, hi: thi}
			t.numCnodes += 2
			if thi <= midpoint(blo, bhi) {
				br.left, br.right = c, d
			} else {
				br.left, br.right = d, c
			}
			*link = br
		}
	}
	if c.n == nil {
		c.n = &node{}
		t.numNodes++
	}
	return t.insert(c.n, x, u2)
}

// midpoint halves [lo,hi] without int32 overflow.
func midpoint(lo, hi expr.Value) expr.Value {
	return expr.Value((int64(lo) + int64(hi)) >> 1)
}

// split moves pooled expressions into a new partition on the attribute
// that covers the most of them. It repeats until the pool fits or no
// attribute helps, and reports whether it moved any.
func (t *Tree) split(n *node, u *used) bool {
	shrunk := false
	for len(n.pool.Exprs) > t.cfg.MaxPool {
		attr, count := t.choosePartitionAttr(n, u)
		if count < 2 {
			n.splitFailAt = len(n.pool.Exprs)
			return shrunk
		}
		shrunk = true
		part := &partition{
			attr: attr,
			root: &cnode{lo: expr.MinValue, hi: expr.MaxValue},
		}
		t.numCnodes++
		n.addPart(part)
		t.numParts++

		// Move covered expressions out of the pool.
		kept := n.pool.Exprs[:0]
		var moved []*expr.Expression
		for _, x := range n.pool.Exprs {
			if bestPredOn(x, attr) != nil {
				moved = append(moved, x)
			} else {
				kept = append(kept, x)
			}
		}
		for i := len(kept); i < len(n.pool.Exprs); i++ {
			n.pool.Exprs[i] = nil
		}
		n.pool.Exprs = kept
		n.pool.Gen++
		for _, x := range moved {
			delete(t.loc, x.ID)
			t.insertIntoPartition(part, x, u)
		}
	}
	return shrunk
}

// choosePartitionAttr scores pool expressions by indexable attribute and
// returns the attribute covering the most expressions that is not
// already used on the path and not already partitioned at this node.
func (t *Tree) choosePartitionAttr(n *node, u *used) (expr.AttrID, int) {
	counts := make(map[expr.AttrID]int)
	for _, x := range n.pool.Exprs {
		seen := expr.AttrID(0)
		first := true
		for i := range x.Preds {
			p := &x.Preds[i]
			if !p.Indexable() {
				continue
			}
			if !first && p.Attr == seen {
				continue // count each attribute once per expression
			}
			seen, first = p.Attr, false
			if u.has(p.Attr) {
				continue
			}
			if n.part(p.Attr) != nil {
				// A partition already exists here; expressions with this
				// attribute were routed at insert time, so re-counting it
				// would recreate it uselessly.
				continue
			}
			counts[p.Attr]++
		}
	}
	var bestAttr expr.AttrID
	bestCount := 0
	for a, c := range counts {
		if c > bestCount || (c == bestCount && a < bestAttr) {
			bestAttr, bestCount = a, c
		}
	}
	return bestAttr, bestCount
}

// Delete removes the expression with the given id.
func (t *Tree) Delete(id expr.ID) bool {
	_, ok := t.DeletePool(id)
	return ok
}

// DeletePool is Delete but additionally returns the pool the expression
// was removed from.
func (t *Tree) DeletePool(id expr.ID) (*Pool, bool) {
	n, ok := t.loc[id]
	if !ok {
		return nil, false
	}
	x := n.pool.remove(id)
	if x == nil {
		// loc and pools are maintained together; disagreement is a bug.
		panic(fmt.Sprintf("betree: location map points to a pool without id %d", id))
	}
	delete(t.loc, id)
	t.exprBytes -= x.MemBytes()
	return &n.pool, true
}

// MatchAppend appends the ids of all expressions matching e to dst.
func (t *Tree) MatchAppend(dst []expr.ID, e *expr.Event) []expr.ID {
	t.visit(t.root, e, func(p *Pool) {
		for _, x := range p.Exprs {
			if x.MatchesEvent(e) {
				dst = append(dst, x.ID)
			}
		}
	})
	return dst
}

func (t *Tree) visit(n *node, e *expr.Event, fn func(*Pool)) {
	if len(n.pool.Exprs) > 0 {
		fn(&n.pool)
	}
	if len(n.parts) == 0 {
		return
	}
	// Both the event's pairs and the node's partitions are sorted by
	// attribute: merge-join instead of a map probe per pair.
	pairs, parts := e.Pairs(), n.parts
	for i, j := 0, 0; i < len(pairs) && j < len(parts); {
		switch a, b := pairs[i].Attr, parts[j].attr; {
		case a < b:
			i++
		case a > b:
			j++
		default:
			part, val := parts[j], pairs[i].Val
			i++
			j++
			if bn := part.eq.get(val); bn != nil {
				t.visit(bn, e, fn)
			}
			for c := part.root; c != nil && val >= c.lo && val <= c.hi; {
				if c.n != nil {
					t.visit(c.n, e, fn)
				}
				if val <= midpoint(c.lo, c.hi) {
					c = c.left
				} else {
					c = c.right
				}
			}
		}
	}
}

// CollectPoolsAppend appends every non-empty pool that could contain a
// match for e (the compressed matcher's candidate clusters) to dst and
// returns the extended slice. It performs no allocation beyond growing
// dst.
func (t *Tree) CollectPoolsAppend(dst []*Pool, e *expr.Event) []*Pool {
	return t.collect(t.root, e, dst)
}

//apcm:hotpath
func (t *Tree) collect(n *node, e *expr.Event, dst []*Pool) []*Pool {
	if len(n.pool.Exprs) > 0 {
		dst = append(dst, &n.pool)
	}
	if len(n.parts) == 0 {
		return dst
	}
	// Merge-join of the sorted pair and partition lists; see visit.
	pairs, parts := e.Pairs(), n.parts
	for i, j := 0, 0; i < len(pairs) && j < len(parts); {
		switch a, b := pairs[i].Attr, parts[j].attr; {
		case a < b:
			i++
		case a > b:
			j++
		default:
			part, val := parts[j], pairs[i].Val
			i++
			j++
			if bn := part.eq.get(val); bn != nil {
				dst = t.collect(bn, e, dst)
			}
			for c := part.root; c != nil && val >= c.lo && val <= c.hi; {
				if c.n != nil {
					dst = t.collect(c.n, e, dst)
				}
				if val <= midpoint(c.lo, c.hi) {
					c = c.left
				} else {
					c = c.right
				}
			}
		}
	}
	return dst
}

// ForEach visits every indexed expression. fn returning false stops the
// walk. Must not run concurrently with Insert or Delete.
func (t *Tree) ForEach(fn func(*expr.Expression) bool) {
	stopped := false
	t.Pools(func(p *Pool) {
		if stopped {
			return
		}
		for _, x := range p.Exprs {
			if !fn(x) {
				stopped = true
				return
			}
		}
	})
}

// Pools invokes fn on every non-empty pool in the tree (compilation
// sweep for the compressed matcher).
func (t *Tree) Pools(fn func(*Pool)) {
	t.pools(t.root, fn)
}

func (t *Tree) pools(n *node, fn func(*Pool)) {
	if len(n.pool.Exprs) > 0 {
		fn(&n.pool)
	}
	for _, part := range n.parts {
		part.eq.each(func(bn *node) { t.pools(bn, fn) })
		var walk func(*cnode)
		walk = func(c *cnode) {
			if c == nil {
				return
			}
			if c.n != nil {
				t.pools(c.n, fn)
			}
			walk(c.left)
			walk(c.right)
		}
		walk(part.root)
	}
}

// Stats describes the tree's shape.
type Stats struct {
	Exprs   int
	Nodes   int
	Parts   int
	Cnodes  int
	MaxPool int // largest pool observed
	Pools   int // non-empty pools
}

// Stats computes shape statistics by full traversal.
func (t *Tree) Stats() Stats {
	s := Stats{Exprs: len(t.loc), Nodes: t.numNodes, Parts: t.numParts, Cnodes: t.numCnodes}
	t.Pools(func(p *Pool) {
		s.Pools++
		if len(p.Exprs) > s.MaxPool {
			s.MaxPool = len(p.Exprs)
		}
	})
	return s
}

// MemBytes estimates the heap footprint of the tree structure (nodes,
// partitions, cluster nodes, pool slices and the location map) and of
// the expressions it keeps alive.
func (t *Tree) MemBytes() int64 {
	var b int64
	b += int64(t.numNodes) * 80
	b += int64(t.numParts) * 64
	b += int64(t.numCnodes) * 48
	b += int64(len(t.loc)) * 24
	t.Pools(func(p *Pool) { b += int64(cap(p.Exprs)) * 8 })
	return b + t.exprBytes
}
