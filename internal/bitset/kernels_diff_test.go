package bitset

// Differential equivalence suites for the kernel layer. Three
// implementations of every kernel are held to bit-identical behaviour:
//
//	reference (the obvious one-line-per-word loop, defined here)
//	  == ...Generic (the unrolled pure-Go twin, kernels.go)
//	  == dispatched (whatever the build mode wired up: the generic twin
//	     again, or the AVX2 assembly when built with -tags apcm_avx2 on
//	     a capable CPU)
//
// The same file runs unmodified in both build modes — CI runs it twice
// (see the build-matrix job) — so the assembly can never drift from the
// oracle unnoticed. Coverage deliberately includes every word count
// 0–9 (all-tail), lengths straddling the 8-word vector block, slices
// offset by one word (8-byte-aligned but not 32-byte-aligned bases, the
// unaligned-load path), and aliased receivers (dst == src).

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Reference kernels: one obvious word loop each, no unrolling, no
// accumulator tricks.

func refOr(dst, src []uint64) {
	for i := range dst {
		dst[i] |= src[i]
	}
}

func refCopy(dst, src []uint64) {
	for i := range dst {
		dst[i] = src[i]
	}
}

func refAndNot(dst, src []uint64) uint64 {
	var acc uint64
	for i := range dst {
		dst[i] &^= src[i]
		acc |= dst[i]
	}
	return acc
}

func refAndUnion(dst, sat, mask []uint64) uint64 {
	var acc uint64
	for i := range dst {
		dst[i] &= sat[i] | ^mask[i]
		acc |= dst[i]
	}
	return acc
}

func refPopcnt(w []uint64) int {
	c := 0
	for _, x := range w {
		for ; x != 0; x &= x - 1 {
			c++
		}
	}
	return c
}

func refSparseSet(dst []uint64, ids []int32) {
	for _, id := range ids {
		dst[id>>wordShift] |= 1 << (uint(id) & wordMask)
	}
}

func refSparseClear(dst []uint64, ids []int32) {
	for _, id := range ids {
		dst[id>>wordShift] &^= 1 << (uint(id) & wordMask)
	}
}

// kernelLens is the length schedule every differential test sweeps:
// all-tail lengths 0–9, block boundaries, and a few longer runs that
// exercise multiple vector blocks plus a ragged tail.
var kernelLens = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 23, 24, 31, 32, 33, 64, 100}

// randWords returns n random words inside a larger array at the given
// word offset, so asm sees bases that are 8-byte- but not necessarily
// 32-byte-aligned.
func randWords(rng *rand.Rand, n, offset int) []uint64 {
	backing := make([]uint64, n+offset)
	for i := range backing {
		backing[i] = rng.Uint64()
	}
	return backing[offset : offset+n]
}

func cloneWords(w []uint64) []uint64 {
	c := make([]uint64, len(w))
	copy(c, w)
	return c
}

// diffBinary drives one (dst, src) kernel against its reference across
// the length/offset/aliasing schedule.
func diffBinary(t *testing.T, name string,
	kernel func(dst, src []uint64) uint64,
	ref func(dst, src []uint64) uint64,
) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	for _, n := range kernelLens {
		for _, off := range []int{0, 1, 3} {
			for rep := 0; rep < 8; rep++ {
				dst := randWords(rng, n, off)
				src := randWords(rng, n, off)
				wantDst := cloneWords(dst)
				wantAcc := ref(wantDst, src)
				gotAcc := kernel(dst, src)
				for i := range dst {
					if dst[i] != wantDst[i] {
						t.Fatalf("%s: n=%d off=%d word %d = %#x, want %#x", name, n, off, i, dst[i], wantDst[i])
					}
				}
				if (gotAcc == 0) != (wantAcc == 0) {
					t.Fatalf("%s: n=%d off=%d emptiness acc = %#x, want %#x", name, n, off, gotAcc, wantAcc)
				}

				// Aliased receiver: dst and src are the same slice.
				ali := randWords(rng, n, off)
				wantAli := cloneWords(ali)
				wantAcc = ref(wantAli, cloneWords(ali))
				gotAcc = kernel(ali, ali)
				for i := range ali {
					if ali[i] != wantAli[i] {
						t.Fatalf("%s aliased: n=%d off=%d word %d = %#x, want %#x", name, n, off, i, ali[i], wantAli[i])
					}
				}
				if (gotAcc == 0) != (wantAcc == 0) {
					t.Fatalf("%s aliased: n=%d off=%d emptiness acc = %#x, want %#x", name, n, off, gotAcc, wantAcc)
				}
			}
		}
	}
}

// The no-accumulator kernels get a zero-returning adapter so one driver
// serves all binary kernels.
func adapt(f func(dst, src []uint64)) func(dst, src []uint64) uint64 {
	return func(dst, src []uint64) uint64 { f(dst, src); return 0 }
}

func TestKernelDiffOr(t *testing.T) {
	diffBinary(t, "orWords", adapt(orWords), adapt(refOr))
	diffBinary(t, "orWordsGeneric", adapt(orWordsGeneric), adapt(refOr))
}

func TestKernelDiffCopy(t *testing.T) {
	diffBinary(t, "copyWords", adapt(copyWords), adapt(refCopy))
	diffBinary(t, "copyWordsGeneric", adapt(copyWordsGeneric), adapt(refCopy))
}

func TestKernelDiffAndNot(t *testing.T) {
	diffBinary(t, "andNotWords", andNotWords, refAndNot)
	diffBinary(t, "andNotWordsGeneric", andNotWordsGeneric, refAndNot)
}

func TestKernelDiffAndUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range kernelLens {
		for _, off := range []int{0, 1, 3} {
			for rep := 0; rep < 8; rep++ {
				dst := randWords(rng, n, off)
				sat := randWords(rng, n, off)
				mask := randWords(rng, n, off)
				want := cloneWords(dst)
				wantAcc := refAndUnion(want, sat, mask)
				gotAcc := andUnionWords(dst, sat, mask)
				for i := range dst {
					if dst[i] != want[i] {
						t.Fatalf("andUnionWords: n=%d off=%d word %d = %#x, want %#x", n, off, i, dst[i], want[i])
					}
				}
				if (gotAcc == 0) != (wantAcc == 0) {
					t.Fatalf("andUnionWords: n=%d off=%d acc = %#x, want %#x", n, off, gotAcc, wantAcc)
				}

			}
		}
	}

	// Full three-way sweep for the generic twin too.
	rng = rand.New(rand.NewSource(3))
	for _, n := range kernelLens {
		dst := randWords(rng, n, 1)
		sat := randWords(rng, n, 1)
		mask := randWords(rng, n, 1)
		want := cloneWords(dst)
		wantAcc := refAndUnion(want, sat, mask)
		gotAcc := andUnionWordsGeneric(dst, sat, mask)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("andUnionWordsGeneric: n=%d word %d = %#x, want %#x", n, i, dst[i], want[i])
			}
		}
		if (gotAcc == 0) != (wantAcc == 0) {
			t.Fatalf("andUnionWordsGeneric: n=%d acc mismatch", n)
		}
	}
}

func TestKernelDiffPopcnt(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range kernelLens {
		for _, off := range []int{0, 1, 3} {
			w := randWords(rng, n, off)
			want := refPopcnt(w)
			if got := popcntWords(w); got != want {
				t.Fatalf("popcntWords: n=%d off=%d = %d, want %d", n, off, got, want)
			}
			if got := popcntWordsGeneric(w); got != want {
				t.Fatalf("popcntWordsGeneric: n=%d off=%d = %d, want %d", n, off, got, want)
			}
		}
	}
	// Degenerate contents: all-zero and all-ones.
	for _, n := range kernelLens {
		w := make([]uint64, n)
		if got := popcntWords(w); got != 0 {
			t.Fatalf("popcntWords all-zero n=%d = %d", n, got)
		}
		for i := range w {
			w[i] = ^uint64(0)
		}
		if got := popcntWords(w); got != 64*n {
			t.Fatalf("popcntWords all-ones n=%d = %d, want %d", n, got, 64*n)
		}
	}
}

// randIDs returns sorted-ish random ids in [0, 64n), with duplicates —
// the sparse kernels must tolerate both.
func randIDs(rng *rand.Rand, n, k int) []int32 {
	if n == 0 {
		return nil
	}
	ids := make([]int32, k)
	for i := range ids {
		ids[i] = int32(rng.Intn(64 * n))
	}
	return ids
}

func TestKernelDiffSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range kernelLens {
		if n == 0 {
			continue
		}
		for _, k := range []int{0, 1, 2, 7, 16, 64} {
			for _, off := range []int{0, 1} {
				ids := randIDs(rng, n, k)

				dst := randWords(rng, n, off)
				want := cloneWords(dst)
				refSparseSet(want, ids)
				sparseSetWords(dst, ids)
				for i := range dst {
					if dst[i] != want[i] {
						t.Fatalf("sparseSetWords: n=%d k=%d word %d = %#x, want %#x", n, k, i, dst[i], want[i])
					}
				}

				dst = randWords(rng, n, off)
				want = cloneWords(dst)
				refSparseClear(want, ids)
				sparseClearWords(dst, ids)
				for i := range dst {
					if dst[i] != want[i] {
						t.Fatalf("sparseClearWords: n=%d k=%d word %d = %#x, want %#x", n, k, i, dst[i], want[i])
					}
				}

				// Generic twins.
				dst = randWords(rng, n, off)
				want = cloneWords(dst)
				refSparseSet(want, ids)
				sparseSetWordsGeneric(dst, ids)
				for i := range dst {
					if dst[i] != want[i] {
						t.Fatalf("sparseSetWordsGeneric: n=%d k=%d word %d mismatch", n, k, i)
					}
				}
			}
		}
	}
}

// quick.Check property: for arbitrary word vectors, the dispatched
// kernels agree with the references on both contents and the emptiness
// signal. Lengths are clamped into the interesting 0–40 range so the
// generator spends its budget on block/tail boundaries.
func TestKernelQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 400}

	check := func(name string, f any) {
		t.Helper()
		if err := quick.Check(f, cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	clamp := func(a []uint64) []uint64 {
		if len(a) > 40 {
			a = a[:40]
		}
		return a
	}
	pair := func(a, b []uint64) ([]uint64, []uint64) {
		a, b = clamp(a), clamp(b)
		n := min(len(a), len(b))
		return a[:n], b[:n]
	}

	check("andNot", func(a, b []uint64) bool {
		a, b = pair(a, b)
		w := cloneWords(a)
		acc := refAndNot(w, b)
		got := andNotWords(a, b)
		if (got == 0) != (acc == 0) {
			return false
		}
		for i := range a {
			if a[i] != w[i] {
				return false
			}
		}
		return true
	})

	check("andUnion", func(a, b, c []uint64) bool {
		a, b = pair(a, b)
		c = clamp(c)
		n := min(len(a), len(c))
		a, b, c = a[:n], b[:n], c[:n]
		w := cloneWords(a)
		acc := refAndUnion(w, b, c)
		got := andUnionWords(a, b, c)
		if (got == 0) != (acc == 0) {
			return false
		}
		for i := range a {
			if a[i] != w[i] {
				return false
			}
		}
		return true
	})

	check("or", func(a, b []uint64) bool {
		a, b = pair(a, b)
		w := cloneWords(a)
		refOr(w, b)
		orWords(a, b)
		for i := range a {
			if a[i] != w[i] {
				return false
			}
		}
		return true
	})

	check("popcnt", func(a []uint64) bool {
		a = clamp(a)
		return popcntWords(a) == refPopcnt(a)
	})

	check("sparse", func(a []uint64, rawIDs []int32) bool {
		a = clamp(a)
		if len(a) == 0 {
			return true
		}
		ids := make([]int32, 0, len(rawIDs))
		for _, id := range rawIDs {
			if id < 0 {
				id = -id
			}
			ids = append(ids, id%int32(64*len(a)))
		}
		w := cloneWords(a)
		refSparseClear(w, ids)
		sparseClearWords(a, ids)
		for i := range a {
			if a[i] != w[i] {
				return false
			}
		}
		return true
	})
}

// Fuzz targets: corpus-driven versions of the same differentials. go
// test runs the seed corpus on every test run; `make fuzz` (and the CI
// fuzz job) does short coverage-guided runs.

func wordsFromBytes(data []byte) []uint64 {
	w := make([]uint64, len(data)/8)
	for i := range w {
		for j := 0; j < 8; j++ {
			w[i] |= uint64(data[i*8+j]) << (8 * j)
		}
	}
	return w
}

func FuzzKernelDense(f *testing.F) {
	f.Add([]byte{}, []byte{1, 2, 3})
	f.Add(make([]byte, 64), make([]byte, 80))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, make([]byte, 8))
	f.Fuzz(func(t *testing.T, da, db []byte) {
		a := wordsFromBytes(da)
		b := wordsFromBytes(db)
		n := min(len(a), len(b))
		a, b = a[:n], b[:n]

		w := cloneWords(a)
		acc := refAndNot(w, b)
		mut := cloneWords(a)
		got := andNotWords(mut, b)
		if (got == 0) != (acc == 0) {
			t.Fatalf("andNot emptiness mismatch")
		}
		for i := range w {
			if mut[i] != w[i] {
				t.Fatalf("andNot word %d: %#x != %#x", i, mut[i], w[i])
			}
		}

		x := cloneWords(a)
		refOr(x, b)
		y := cloneWords(a)
		orWords(y, b)
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("or word %d: %#x != %#x", i, y[i], x[i])
			}
		}

		if popcntWords(a) != refPopcnt(a) {
			t.Fatalf("popcnt mismatch")
		}
	})
}

func FuzzKernelAndUnion(f *testing.F) {
	f.Add(make([]byte, 24), make([]byte, 24), make([]byte, 24))
	f.Add([]byte{0xaa}, []byte{0x55}, []byte{0xff})
	f.Fuzz(func(t *testing.T, da, db, dc []byte) {
		a := wordsFromBytes(da)
		b := wordsFromBytes(db)
		c := wordsFromBytes(dc)
		n := min(len(a), min(len(b), len(c)))
		a, b, c = a[:n], b[:n], c[:n]
		w := cloneWords(a)
		acc := refAndUnion(w, b, c)
		got := andUnionWords(a, b, c)
		if (got == 0) != (acc == 0) {
			t.Fatalf("andUnion emptiness mismatch")
		}
		for i := range a {
			if a[i] != w[i] {
				t.Fatalf("andUnion word %d: %#x != %#x", i, a[i], w[i])
			}
		}
	})
}

func FuzzKernelSparse(f *testing.F) {
	f.Add(make([]byte, 32), []byte{0, 1, 63, 64})
	f.Add(make([]byte, 8), []byte{7, 7, 7})
	f.Fuzz(func(t *testing.T, dw, rawIDs []byte) {
		w := wordsFromBytes(dw)
		if len(w) == 0 {
			return
		}
		ids := make([]int32, len(rawIDs))
		for i, b := range rawIDs {
			ids[i] = int32(b) % int32(64*len(w))
		}
		a := cloneWords(w)
		b := cloneWords(w)
		refSparseClear(a, ids)
		sparseClearWords(b, ids)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("sparseClear word %d: %#x != %#x", i, b[i], a[i])
			}
		}

		a = cloneWords(w)
		b = cloneWords(w)
		refSparseSet(a, ids)
		sparseSetWords(b, ids)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("sparseSet word %d: %#x != %#x", i, b[i], a[i])
			}
		}
	})
}
