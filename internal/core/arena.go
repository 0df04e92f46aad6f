package core

import "github.com/streammatch/apcm/internal/bitset"

// clusterArena is the single backing store of one compiled cluster.
// Before the arena, a compiled cluster scattered its state across
// thousands of heap objects — one *Posting and one backing array per
// dictionary entry, per-group dictEntry slices, masks, counters — which
// cost compile-time allocations, GC scan work proportional to the
// subscription count, and cache misses in the group loop as the kernel
// chased pointers across the heap.
//
// finalize now sizes everything in a pre-pass and carves the whole
// cluster out of six typed slabs, one allocation each (Go's type
// system rules out a single untyped block without unsafe; typed
// contiguous slabs capture almost all of the locality win at none of
// the risk):
//
//	words  []uint64          member attribute masks ++ every dense
//	                         posting's backing words
//	ids    []int32           every sparse posting's member ids (with
//	                         per-posting append slack) ++ the
//	                         attrDirect table ++ the lead lists
//	                         (leadOff, leadIds)
//	posts  []bitset.Posting  every posting struct, group-ordered
//	bsets  []bitset.Bitset   backing structs for the dense postings
//	eq     []eqEntry         equality-union entries, group-ordered and
//	                         sorted by value within a group
//	dict   []dictEntry       first/strict dictionary entries, group-ordered
//
// Sub-slices handed out of a slab are capacity-clamped, so incremental
// maintenance (tryAppend growing a sparse posting past its slack, or a
// group gaining an equality value or a dictionary entry) reallocates
// that one slice privately instead of clobbering its slab neighbour —
// the same policy the sparse slab used before the arena.
//
// Recompile-and-swap is a pointer flip: a fresh compile builds its own
// arena off the hot path and clusterFor swaps the *compiled in; the old
// cluster's entire graph dies as a dozen objects, not thousands.
type clusterArena struct {
	words []uint64
	ids   []int32
	posts []bitset.Posting
	bsets []bitset.Bitset
	eq    []eqEntry
	dict  []dictEntry

	// carve cursors; only used during finalize.
	wo, io, po, bo, eo, do int
}

// arenaSizes is the pre-pass result that sizes a clusterArena.
type arenaSizes struct {
	words, ids, posts, bsets, eq, dict int
}

func newClusterArena(s arenaSizes) *clusterArena {
	return &clusterArena{
		words: make([]uint64, s.words),
		ids:   make([]int32, s.ids),
		posts: make([]bitset.Posting, s.posts),
		bsets: make([]bitset.Bitset, s.bsets),
		eq:    make([]eqEntry, s.eq),
		dict:  make([]dictEntry, s.dict),
	}
}

// carve hands out the next n elements of slab, advancing the cursor
// *at, with append slack past them: the result has len n and cap
// n+slack, so an append beyond the slack reallocates privately instead
// of overwriting the slab neighbour.
func carve[T any](slab []T, at *int, n, slack int) []T {
	s := slab[*at : *at+n : *at+n+slack]
	*at += n + slack
	return s
}

// carveCopy moves src into the next len(src) elements of slab.
func carveCopy[T any](slab []T, at *int, src []T) []T {
	s := carve(slab, at, len(src), 0)
	copy(s, src)
	return s
}

// bytes reports the arena's total backing size — the figure behind the
// apcm_arena_bytes gauge.
func (a *clusterArena) bytes() int64 {
	return int64(len(a.words))*8 +
		int64(len(a.ids))*4 +
		int64(len(a.posts))*postingSize +
		int64(len(a.bsets))*bitsetSize +
		int64(len(a.eq))*eqEntrySize +
		int64(len(a.dict))*dictSize
}
