//go:build !apcm_avx2 || !amd64

package bitset

// Default build mode: every kernel is its pure-Go twin, with no
// dispatch branch at all. The wrappers are single calls, so they inline
// into the Bitset/Posting methods and cost nothing.
//
// Build with -tags apcm_avx2 on amd64 to swap in the runtime-dispatched
// assembly kernels (see dispatch_avx2.go).

// HaveAVX2 reports whether the assembly kernels are compiled in and the
// CPU supports them. Always false in this build mode.
const HaveAVX2 = false

func orWords(dst, src []uint64)   { orWordsGeneric(dst, src) }
func copyWords(dst, src []uint64) { copyWordsGeneric(dst, src) }

func andNotWords(dst, src []uint64) uint64 { return andNotWordsGeneric(dst, src) }

func andUnionWords(dst, sat, mask []uint64) uint64 {
	return andUnionWordsGeneric(dst, sat, mask)
}

func popcntWords(w []uint64) int { return popcntWordsGeneric(w) }

func sparseSetWords(dst []uint64, ids []int32)   { sparseSetWordsGeneric(dst, ids) }
func sparseClearWords(dst []uint64, ids []int32) { sparseClearWordsGeneric(dst, ids) }
