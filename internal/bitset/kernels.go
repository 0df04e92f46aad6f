// Word-level kernels. Every hot Bitset/Posting operation bottoms out in
// one of the functions in this file (or its dispatched twin): flat
// []uint64 sweeps for the dense representation, scatter loops over
// sorted []int32 ids for the sparse one. Splitting the kernels out of
// the methods buys two things:
//
//   - a single seam for the optional AVX2 assembly implementations
//     (kernels_avx2_amd64.s, behind the apcm_avx2 build tag): the
//     methods call andNotWords etc., and the build mode decides whether
//     that is the pure-Go loop below or a runtime-dispatched asm body;
//   - a permanent differential oracle: the ...Generic functions here are
//     compiled in *every* build mode, so the equivalence suites
//     (kernels_diff_test.go) can always compare the dispatched kernel
//     against the pure-Go twin, bit for bit.
//
// The pure-Go dense kernels are manually unrolled 8× (4× where the loop
// body is wide) in the advance-the-slices style, which the prove pass
// fully bounds-check-eliminates: verify with
// `go build -gcflags='-d=ssa/check_bce' ./internal/bitset/` — the only
// checks in any dense kernel are the constant-count reslices *outside*
// the loops. The sparse scatter kernels inherently keep one check per
// id (the index is data, not an induction variable).
//
// Contract shared by all dense kernels: len(src) (and len(sat),
// len(mask)) must be >= len(dst); only the first len(dst) words are
// read or written. Aliasing dst==src is permitted (every kernel is a
// pure load-compute-store over the same index). Contract for sparse
// kernels: every id must satisfy 0 <= id < 64*len(dst).
package bitset

import "math/bits"

// andWordsGeneric sets dst[i] &= src[i].
func andWordsGeneric(dst, src []uint64) {
	src = src[:len(dst)]
	for len(dst) >= 8 && len(src) >= 8 {
		d := dst[:8:8]
		s := src[:8:8]
		d[0] &= s[0]
		d[1] &= s[1]
		d[2] &= s[2]
		d[3] &= s[3]
		d[4] &= s[4]
		d[5] &= s[5]
		d[6] &= s[6]
		d[7] &= s[7]
		dst = dst[8:]
		src = src[8:]
	}
	src = src[:len(dst)]
	for i := range dst {
		dst[i] &= src[i]
	}
}

// orWordsGeneric sets dst[i] |= src[i].
func orWordsGeneric(dst, src []uint64) {
	src = src[:len(dst)]
	for len(dst) >= 8 && len(src) >= 8 {
		d := dst[:8:8]
		s := src[:8:8]
		d[0] |= s[0]
		d[1] |= s[1]
		d[2] |= s[2]
		d[3] |= s[3]
		d[4] |= s[4]
		d[5] |= s[5]
		d[6] |= s[6]
		d[7] |= s[7]
		dst = dst[8:]
		src = src[8:]
	}
	src = src[:len(dst)]
	for i := range dst {
		dst[i] |= src[i]
	}
}

// copyWordsGeneric sets dst[i] = src[i]. The stdlib copy lowers to
// memmove, which is already vector-width; the function exists so the
// dispatch seam covers CopyFrom like every other kernel.
func copyWordsGeneric(dst, src []uint64) {
	copy(dst, src)
}

// andNotWordsGeneric sets dst[i] &^= src[i] and returns the OR of every
// resulting dst word — zero iff dst became empty. The emptiness
// accumulator is split four ways: a single OR chain would serialize the
// whole sweep.
func andNotWordsGeneric(dst, src []uint64) uint64 {
	var a0, a1, a2, a3 uint64
	src = src[:len(dst)]
	for len(dst) >= 8 && len(src) >= 8 {
		d := dst[:8:8]
		s := src[:8:8]
		w0 := d[0] &^ s[0]
		w1 := d[1] &^ s[1]
		w2 := d[2] &^ s[2]
		w3 := d[3] &^ s[3]
		w4 := d[4] &^ s[4]
		w5 := d[5] &^ s[5]
		w6 := d[6] &^ s[6]
		w7 := d[7] &^ s[7]
		d[0], d[1], d[2], d[3] = w0, w1, w2, w3
		d[4], d[5], d[6], d[7] = w4, w5, w6, w7
		a0 |= w0 | w4
		a1 |= w1 | w5
		a2 |= w2 | w6
		a3 |= w3 | w7
		dst = dst[8:]
		src = src[8:]
	}
	src = src[:len(dst)]
	for i := range dst {
		dst[i] &^= src[i]
		a0 |= dst[i]
	}
	return a0 | a1 | a2 | a3
}

// andUnionWordsGeneric sets dst[i] &= sat[i] | ^mask[i] and returns the
// OR of every resulting dst word — zero iff dst became empty. 4-wide:
// the body runs three memory streams, so a deeper unroll spills.
func andUnionWordsGeneric(dst, sat, mask []uint64) uint64 {
	var a0, a1, a2, a3 uint64
	sat = sat[:len(dst)]
	mask = mask[:len(dst)]
	for len(dst) >= 4 && len(sat) >= 4 && len(mask) >= 4 {
		d := dst[:4:4]
		s := sat[:4:4]
		m := mask[:4:4]
		w0 := d[0] & (s[0] | ^m[0])
		w1 := d[1] & (s[1] | ^m[1])
		w2 := d[2] & (s[2] | ^m[2])
		w3 := d[3] & (s[3] | ^m[3])
		d[0], d[1], d[2], d[3] = w0, w1, w2, w3
		a0 |= w0
		a1 |= w1
		a2 |= w2
		a3 |= w3
		dst = dst[4:]
		sat = sat[4:]
		mask = mask[4:]
	}
	sat = sat[:len(dst)]
	mask = mask[:len(dst)]
	for i := range dst {
		dst[i] &= sat[i] | ^mask[i]
		a0 |= dst[i]
	}
	return a0 | a1 | a2 | a3
}

// popcntWordsGeneric returns the number of set bits across w. Popcounts
// have no cross-iteration dependency, so the accumulator is split to
// let the CPU retire several per cycle.
func popcntWordsGeneric(w []uint64) int {
	var c0, c1, c2, c3 int
	for len(w) >= 8 {
		s := w[:8:8]
		c0 += bits.OnesCount64(s[0]) + bits.OnesCount64(s[4])
		c1 += bits.OnesCount64(s[1]) + bits.OnesCount64(s[5])
		c2 += bits.OnesCount64(s[2]) + bits.OnesCount64(s[6])
		c3 += bits.OnesCount64(s[3]) + bits.OnesCount64(s[7])
		w = w[8:]
	}
	c := c0 + c1 + c2 + c3
	for _, x := range w {
		c += bits.OnesCount64(x)
	}
	return c
}

// sparseSetWordsGeneric sets bit id for every id: the sparse OrInto
// scatter loop.
func sparseSetWordsGeneric(dst []uint64, ids []int32) {
	for _, id := range ids {
		dst[uint(id)>>wordShift] |= 1 << (uint(id) & wordMask)
	}
}

// sparseClearWordsGeneric clears bit id for every id: the sparse
// AndNotInto scatter loop.
func sparseClearWordsGeneric(dst []uint64, ids []int32) {
	for _, id := range ids {
		dst[uint(id)>>wordShift] &^= 1 << (uint(id) & wordMask)
	}
}

// sparseAndUnionWordsGeneric clears bit id of dst for every id whose
// sat bit is unset: the sparse AndUnionInto scatter loop. The body is
// branch-free — bit &^ satWord is the bit itself when unsatisfied and
// zero when satisfied — because the satisfied/unsatisfied mix is
// workload-dependent and mispredicts dominate the branchy version.
func sparseAndUnionWordsGeneric(dst, sat []uint64, ids []int32) {
	for _, id := range ids {
		wi := uint(id) >> wordShift
		bit := uint64(1) << (uint(id) & wordMask)
		dst[wi] &^= bit &^ sat[wi]
	}
}

// --- shared set-bit scan helpers -------------------------------------
//
// NextSet, AppendSet and ForEach all walk set bits the same way:
// find the next nonzero word, then strip bits off it low-to-high with
// the branch-free trailing-zeros idiom (w &= w-1 removes the bit just
// visited; no per-bit test-and-shift). The helpers below are that loop,
// written once.

// nextNonzeroWord returns the index of the first nonzero word at or
// after wi, or -1 when the rest of the slice is zero.
func nextNonzeroWord(words []uint64, wi int) int {
	for ; wi < len(words) && wi >= 0; wi++ {
		if words[wi] != 0 {
			return wi
		}
	}
	return -1
}

// appendSetBits appends base+TrailingZeros64 for every set bit of w, in
// ascending order, and returns dst.
func appendSetBits(dst []int, base int, w uint64) []int {
	for ; w != 0; w &= w - 1 {
		dst = append(dst, base+bits.TrailingZeros64(w))
	}
	return dst
}
