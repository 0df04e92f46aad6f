//go:build apcm_avx2 && amd64

package bitset

// AVX2 build mode (-tags apcm_avx2, amd64 only): each kernel wrapper
// branches once on a package-level feature bool and calls either the
// assembly body (kernels_avx2_amd64.s) or the pure-Go twin. Detection
// happens once at init; the asm kernels need AVX2 plus BMI1/BMI2
// (ANDN/SHLX in the sparse scatter loops) and POPCNT, i.e. a
// Haswell-or-later feature set, and the OS must have enabled YMM state
// saving (OSXSAVE + XCR0 bits 1:2). On any miss the whole package falls
// back to the generic kernels — the binary stays runnable everywhere.
//
// The pure-Go twins remain compiled in this mode and serve as the
// differential oracle for the equivalence suites.

// HaveAVX2 reports whether the assembly kernels are compiled in and the
// CPU supports them.
var HaveAVX2 = detectAVX2()

// useAVX2 is the dispatch bool read by every kernel wrapper. Split from
// HaveAVX2 so tests can force the generic path in an avx2 build
// (SetAVX2ForTest) without lying about what the CPU supports.
var useAVX2 = HaveAVX2

// SetAVX2ForTest overrides kernel dispatch and returns the previous
// setting. Enabling it on a CPU without AVX2 support is the caller's
// own fault. Test hook only — not safe concurrently with kernel use.
func SetAVX2ForTest(on bool) bool {
	prev := useAVX2
	useAVX2 = on
	return prev
}

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		popcntBit  = 1 << 23
		xsaveBit   = 1 << 26 // XSAVE/XGETBV supported
		osxsaveBit = 1 << 27 // ... and enabled by the OS
		avxBit     = 1 << 28
	)
	if ecx1&(popcntBit|xsaveBit|osxsaveBit|avxBit) != popcntBit|xsaveBit|osxsaveBit|avxBit {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX): the OS saves/restores YMM state.
	if eax, _ := xgetbv(); eax&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const (
		bmi1Bit = 1 << 3
		avx2Bit = 1 << 5
		bmi2Bit = 1 << 8
	)
	return ebx7&(bmi1Bit|avx2Bit|bmi2Bit) == bmi1Bit|avx2Bit|bmi2Bit
}

// cpuid and xgetbv are implemented in cpu_avx2_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// Assembly kernels. Same contracts as the ...Generic twins (see
// kernels.go); each handles every length including zero, with scalar
// tails for the words past the last full vector block.

//go:noescape
func orWordsAVX2(dst, src []uint64)

//go:noescape
func copyWordsAVX2(dst, src []uint64)

//go:noescape
func andNotWordsAVX2(dst, src []uint64) uint64

//go:noescape
func andUnionWordsAVX2(dst, sat, mask []uint64) uint64

//go:noescape
func popcntWordsAVX2(w []uint64) int

//go:noescape
func sparseSetWordsAVX2(dst []uint64, ids []int32)

//go:noescape
func sparseClearWordsAVX2(dst []uint64, ids []int32)

func orWords(dst, src []uint64) {
	if useAVX2 {
		orWordsAVX2(dst, src)
		return
	}
	orWordsGeneric(dst, src)
}

func copyWords(dst, src []uint64) {
	if useAVX2 {
		copyWordsAVX2(dst, src)
		return
	}
	copyWordsGeneric(dst, src)
}

func andNotWords(dst, src []uint64) uint64 {
	if useAVX2 {
		return andNotWordsAVX2(dst, src)
	}
	return andNotWordsGeneric(dst, src)
}

func andUnionWords(dst, sat, mask []uint64) uint64 {
	if useAVX2 {
		return andUnionWordsAVX2(dst, sat, mask)
	}
	return andUnionWordsGeneric(dst, sat, mask)
}

func popcntWords(w []uint64) int {
	if useAVX2 {
		return popcntWordsAVX2(w)
	}
	return popcntWordsGeneric(w)
}

func sparseSetWords(dst []uint64, ids []int32) {
	if useAVX2 {
		sparseSetWordsAVX2(dst, ids)
		return
	}
	sparseSetWordsGeneric(dst, ids)
}

func sparseClearWords(dst []uint64, ids []int32) {
	if useAVX2 {
		sparseClearWordsAVX2(dst, ids)
		return
	}
	sparseClearWordsGeneric(dst, ids)
}
