package bitset

// Kernel micro-benchmarks. The impl=dispatch / impl=generic pairs are
// read as a ratio: in an apcm_avx2 build it is the assembly's win over
// the unrolled pure-Go twin on this machine; in a default build the two
// sides are the same code and the ratio pins the harness overhead at
// ~1.0.

import (
	"math/rand"
	"testing"
)

const benchWords = 64 // 4096-bit clusters: the compiled-width sweet spot

func benchPair(b *testing.B, run func(b *testing.B, dst, src []uint64, generic bool)) {
	rng := rand.New(rand.NewSource(7))
	dst := randWords(rng, benchWords, 0)
	src := randWords(rng, benchWords, 0)
	b.Run("impl=dispatch", func(b *testing.B) {
		b.ReportAllocs()
		run(b, dst, src, false)
	})
	b.Run("impl=generic", func(b *testing.B) {
		b.ReportAllocs()
		run(b, dst, src, true)
	})
}

func BenchmarkKernelAndNot(b *testing.B) {
	benchPair(b, func(b *testing.B, dst, src []uint64, generic bool) {
		var acc uint64
		for i := 0; i < b.N; i++ {
			if generic {
				acc |= andNotWordsGeneric(dst, src)
			} else {
				acc |= andNotWords(dst, src)
			}
		}
		sinkU64 = acc
	})
}

func BenchmarkKernelAndUnion(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	mask := randWords(rng, benchWords, 0)
	benchPair(b, func(b *testing.B, dst, sat []uint64, generic bool) {
		var acc uint64
		for i := 0; i < b.N; i++ {
			if generic {
				acc |= andUnionWordsGeneric(dst, sat, mask)
			} else {
				acc |= andUnionWords(dst, sat, mask)
			}
		}
		sinkU64 = acc
	})
}

func BenchmarkKernelOr(b *testing.B) {
	benchPair(b, func(b *testing.B, dst, src []uint64, generic bool) {
		for i := 0; i < b.N; i++ {
			if generic {
				orWordsGeneric(dst, src)
			} else {
				orWords(dst, src)
			}
		}
	})
}

func BenchmarkKernelPopcnt(b *testing.B) {
	benchPair(b, func(b *testing.B, dst, _ []uint64, generic bool) {
		acc := 0
		for i := 0; i < b.N; i++ {
			if generic {
				acc += popcntWordsGeneric(dst)
			} else {
				acc += popcntWords(dst)
			}
		}
		sinkInt = acc
	})
}

var sinkU64 uint64
