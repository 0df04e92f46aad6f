// Package bitset provides a dense, fixed-capacity bitset tuned for the
// compressed match kernel: word-wide AND-NOT sweeps, early-zero detection,
// and allocation-free iteration over set bits.
//
// The zero value of Bitset is an empty set of capacity zero. All binary
// operations require operands of identical capacity; this is a deliberate
// invariant (clusters compile all of their bitsets to one width) and is
// checked only in debug builds of the callers, not here, to keep the hot
// path branch-free.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const (
	wordBits  = 64
	wordShift = 6
	wordMask  = wordBits - 1
)

// Bitset is a dense bitset backed by 64-bit words.
type Bitset struct {
	words []uint64
	n     int // capacity in bits
}

// New returns a Bitset with capacity for n bits, all zero.
func New(n int) *Bitset {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Bitset{words: make([]uint64, wordsFor(n)), n: n}
}

// NewFull returns a Bitset with capacity n and all n bits set.
func NewFull(n int) *Bitset {
	b := New(n)
	b.SetAll()
	return b
}

// InitView points an existing Bitset value at words without allocating
// or copying: len(words) must equal wordsFor(n), and the caller keeps
// ownership of the backing array. The cluster arena uses it to lay a
// slab of Bitset structs over sub-slices of one word slab.
func (b *Bitset) InitView(words []uint64, n int) {
	if len(words) != wordsFor(n) {
		panic("bitset: InitView length does not match capacity")
	}
	b.words, b.n = words, n
}

func wordsFor(n int) int { return (n + wordBits - 1) >> wordShift }

// Len returns the capacity in bits.
func (b *Bitset) Len() int { return b.n }

// Words exposes the backing words. The final word's bits past Len are
// always zero. Callers must not resize the slice.
func (b *Bitset) Words() []uint64 { return b.words }

// Set sets bit i.
//
//apcm:hotpath
func (b *Bitset) Set(i int) {
	b.words[i>>wordShift] |= 1 << (uint(i) & wordMask)
}

// Clear clears bit i.
//
//apcm:hotpath
func (b *Bitset) Clear(i int) {
	b.words[i>>wordShift] &^= 1 << (uint(i) & wordMask)
}

// Test reports whether bit i is set.
//
//apcm:hotpath
func (b *Bitset) Test(i int) bool {
	return b.words[i>>wordShift]&(1<<(uint(i)&wordMask)) != 0
}

// SetAll sets every bit in [0, Len).
func (b *Bitset) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
}

// ClearAll clears every bit.
func (b *Bitset) ClearAll() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// trim zeroes the unused high bits of the last word so that popcounts and
// equality stay exact.
func (b *Bitset) trim() {
	if rem := uint(b.n) & wordMask; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << rem) - 1
	}
}

// Count returns the number of set bits.
//
//apcm:hotpath
func (b *Bitset) Count() int {
	return popcntWords(b.words)
}

// None reports whether no bits are set.
//
//apcm:hotpath
func (b *Bitset) None() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Any reports whether at least one bit is set.
func (b *Bitset) Any() bool { return !b.None() }

// And sets b = b AND other in place.
//
//apcm:hotpath
func (b *Bitset) And(other *Bitset) {
	andWords(b.words, other.words)
}

// AndNot sets b = b AND NOT other in place. This is the kernel of
// compressed matching: killing every subscription that contains a failed
// predicate. It returns true when b became empty, enabling early exit.
//
//apcm:hotpath
func (b *Bitset) AndNot(other *Bitset) bool {
	return andNotWords(b.words, other.words) == 0
}

// AndUnion sets b = b AND (sat OR NOT mask) in place: a member survives
// if it is satisfied, or if the mask says the constraint does not apply
// to it. This is the compressed kernel's per-attribute step. It returns
// true when b became empty, enabling early exit.
//
//apcm:hotpath
func (b *Bitset) AndUnion(sat, mask *Bitset) bool {
	return andUnionWords(b.words, sat.words, mask.words) == 0
}

// Or sets b = b OR other in place.
//
//apcm:hotpath
func (b *Bitset) Or(other *Bitset) {
	orWords(b.words, other.words)
}

// Xor sets b = b XOR other in place.
func (b *Bitset) Xor(other *Bitset) {
	bw := b.words
	ow := other.words[:len(bw)]
	for i := range bw {
		bw[i] ^= ow[i]
	}
	b.trim()
}

// CopyFrom overwrites b with other. Capacities must match.
//
//apcm:hotpath
func (b *Bitset) CopyFrom(other *Bitset) {
	copyWords(b.words, other.words)
}

// Clone returns an independent copy of b.
func (b *Bitset) Clone() *Bitset {
	nb := &Bitset{words: make([]uint64, len(b.words)), n: b.n}
	copy(nb.words, b.words)
	return nb
}

// Equal reports whether b and other hold the same bits and capacity.
func (b *Bitset) Equal(other *Bitset) bool {
	if b.n != other.n {
		return false
	}
	bw := b.words
	ow := other.words[:len(bw)]
	for i := range bw {
		if bw[i] != ow[i] {
			return false
		}
	}
	return true
}

// NextSet returns the index of the first set bit at or after i, or -1 if
// none exists. Use it for allocation-free iteration:
//
//	for i := b.NextSet(0); i >= 0; i = b.NextSet(i + 1) { ... }
//
//apcm:hotpath
func (b *Bitset) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= b.n {
		return -1
	}
	wi := i >> wordShift
	if w := b.words[wi] >> (uint(i) & wordMask); w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	wi = nextNonzeroWord(b.words, wi+1)
	if wi < 0 {
		return -1
	}
	return wi<<wordShift + bits.TrailingZeros64(b.words[wi])
}

// AppendSet appends the indexes of all set bits to dst and returns it.
// Zero words are skipped by nextNonzeroWord and set words drained with
// the branch-free trailing-zeros strip loop, so sparse and dense sets
// both pay only for what is actually set.
//
//apcm:hotpath
func (b *Bitset) AppendSet(dst []int) []int {
	for wi := nextNonzeroWord(b.words, 0); wi >= 0; wi = nextNonzeroWord(b.words, wi+1) {
		dst = appendSetBits(dst, wi<<wordShift, b.words[wi])
	}
	return dst
}

// ForEach calls fn for every set bit in ascending order. If fn returns
// false the iteration stops.
func (b *Bitset) ForEach(fn func(i int) bool) {
	for wi, w := range b.words {
		base := wi << wordShift
		for w != 0 {
			if !fn(base + bits.TrailingZeros64(w)) {
				return
			}
			w &= w - 1
		}
	}
}

// String renders the set in compact {1, 5, 9} form (debug aid).
func (b *Bitset) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	b.ForEach(func(i int) bool {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "%d", i)
		return true
	})
	sb.WriteByte('}')
	return sb.String()
}

// MemBytes returns the heap footprint of the backing array in bytes.
func (b *Bitset) MemBytes() int { return len(b.words) * 8 }
