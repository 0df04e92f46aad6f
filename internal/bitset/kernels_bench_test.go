package bitset

// Kernel micro-benchmarks. The impl=dispatch / impl=generic pairs are
// read as a ratio: in an apcm_avx2 build it is the assembly's win over
// the unrolled pure-Go twin on this machine; in a default build the two
// sides are the same code and the ratio pins the harness overhead at
// ~1.0.
//
// BenchmarkAppendSet / BenchmarkNextSet cover satellite task 1: the
// shared trailing-zeros scan must not regress at either density
// extreme (sparse sets are dominated by the nonzero-word scan, dense
// sets by the per-bit strip loop).

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

func BenchmarkKernelSparseAndUnion(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	dst := randWords(rng, benchWords, 0)
	sat := randWords(rng, benchWords, 0)
	ids := randIDs(rng, benchWords, 2*benchWords) // at the sparse density cap
	b.Run("impl=dispatch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sparseAndUnionWords(dst, sat, ids)
		}
	})
	b.Run("impl=generic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sparseAndUnionWordsGeneric(dst, sat, ids)
		}
	})
}

var sinkU64 uint64

// densitySet returns a benchWords-wide bitset with roughly the given
// fraction of bits set (deterministic).
func densitySet(density float64) *Bitset {
	rng := rand.New(rand.NewSource(11))
	b := New(benchWords * 64)
	for i := 0; i < b.Len(); i++ {
		if rng.Float64() < density {
			b.Set(i)
		}
	}
	return b
}

func BenchmarkAppendSet(b *testing.B) {
	for _, d := range []struct {
		name    string
		density float64
	}{
		{"density=low", 0.01},
		{"density=high", 0.60},
	} {
		b.Run(d.name, func(b *testing.B) {
			set := densitySet(d.density)
			dst := make([]int, 0, set.Count())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = set.AppendSet(dst[:0])
			}
			sinkInt = len(dst)
		})
	}
}

func BenchmarkNextSet(b *testing.B) {
	for _, d := range []struct {
		name    string
		density float64
	}{
		{"density=low", 0.01},
		{"density=high", 0.60},
	} {
		b.Run(d.name, func(b *testing.B) {
			set := densitySet(d.density)
			b.ReportAllocs()
			b.ResetTimer()
			acc := 0
			for i := 0; i < b.N; i++ {
				for j := set.NextSet(0); j >= 0; j = set.NextSet(j + 1) {
					acc += j
				}
			}
			sinkInt = acc
		})
	}
}

func BenchmarkIter(b *testing.B) {
	for _, d := range []struct {
		name    string
		density float64
	}{
		{"density=low", 0.01},
		{"density=high", 0.60},
	} {
		b.Run(d.name, func(b *testing.B) {
			set := densitySet(d.density)
			b.ReportAllocs()
			b.ResetTimer()
			acc := 0
			for i := 0; i < b.N; i++ {
				for it := set.IterStart(); it.Valid(); it.Next() {
					acc += it.Index()
				}
			}
			sinkInt = acc
		})
	}
}
