// Hybrid postings: the compiled match kernel stores one membership set
// per dictionary entry. On selective workloads most entries hold a
// handful of members out of hundreds of slots, so a full-width word
// array wastes both memory and — worse — kernel time: every Or/AndNot
// sweep walks mostly-zero cache lines. A Posting therefore carries one
// of two representations, chosen by popcount density:
//
//   - dense: a *Bitset, exactly the pre-hybrid layout, used when the
//     member count exceeds SparseMaxFor(capacity);
//   - sparse: a sorted []int32 of member ids, whose kernel ops touch
//     only the listed members (O(k) instead of O(words)).
//
// The dense word kernels themselves are untouched; a Posting that is
// dense behaves byte-for-byte like the *Bitset it wraps.
package bitset

// SparseMaxFor returns the largest member count at which a posting of
// capacity n bits is kept sparse. The break-even: one sparse member op
// is a random-access read-modify-write (a few cycles, one cache line),
// one dense word op is a streaming triple-access (load-load-store), so
// sparse pays until the list is a small multiple of the word count.
func SparseMaxFor(n int) int {
	m := 2 * wordsFor(n)
	if m < 4 {
		m = 4
	}
	return m
}

// Posting is a hybrid membership set over a fixed capacity of member
// slots. The zero value is unusable; create with NewPosting, or
// initialize in place with InitSparse or InitDense.
type Posting struct {
	b   *Bitset // non-nil iff dense
	ids []int32 // sorted member ids when sparse
	n   int     // capacity in bits
}

// NewPosting returns an empty sparse posting with capacity n.
func NewPosting(n int) *Posting { return &Posting{n: n} }

// Len returns the capacity in bits (member slots).
func (p *Posting) Len() int { return p.n }

// IsSparse reports whether p uses the sorted-list representation.
func (p *Posting) IsSparse() bool { return p.b == nil }

// Dense returns the backing bitset, or nil when sparse.
func (p *Posting) Dense() *Bitset { return p.b }

// Ids returns the sorted member ids of a sparse posting (nil when
// dense). Callers must not mutate the slice.
func (p *Posting) Ids() []int32 { return p.ids }

// Count returns the number of members.
func (p *Posting) Count() int {
	if p.b != nil {
		return p.b.Count()
	}
	return len(p.ids)
}

// Test reports whether member i is present. Sparse postings binary
// search their (tiny) id list.
func (p *Posting) Test(i int) bool {
	if p.b != nil {
		return p.b.Test(i)
	}
	ids := p.ids
	lo, hi := 0, len(ids)
	v := int32(i)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ids) && ids[lo] == v
}

// Set adds member i. Sparse postings keep their list sorted (appends of
// increasing ids — the compiler's only pattern — are O(1)) and promote
// to the dense representation when they cross SparseMaxFor; this is the
// promotion boundary the property tests pin down. Setting an already
// present member is a no-op.
func (p *Posting) Set(i int) {
	if p.b != nil {
		p.b.Set(i)
		return
	}
	v := int32(i)
	if k := len(p.ids); k == 0 || p.ids[k-1] < v {
		p.ids = append(p.ids, v)
	} else {
		ids := p.ids
		lo, hi := 0, len(ids)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if ids[mid] < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if ids[lo] == v {
			return
		}
		p.ids = append(p.ids, 0)
		copy(p.ids[lo+1:], p.ids[lo:])
		p.ids[lo] = v
	}
	if len(p.ids) > SparseMaxFor(p.n) {
		p.Promote()
	}
}

// Promote converts p to the dense representation in place.
func (p *Posting) Promote() {
	if p.b != nil {
		return
	}
	b := New(p.n)
	for _, id := range p.ids {
		b.Set(int(id))
	}
	p.b, p.ids = b, nil
}

// InitDense initializes p — typically a zero struct inside an arena's
// posting slab — in place as a dense posting backed by b, without
// allocating.
func (p *Posting) InitDense(b *Bitset) { p.b, p.ids, p.n = b, nil, b.Len() }

// InitSparse initializes p in place as a sparse posting of capacity n
// over ids (sorted, caller-owned), without allocating.
func (p *Posting) InitSparse(ids []int32, n int) { p.b, p.ids, p.n = nil, ids, n }

// OrInto sets dst |= p. Sparse postings set only the listed bits.
//
//apcm:hotpath
func (p *Posting) OrInto(dst *Bitset) {
	if p.b != nil {
		dst.Or(p.b)
		return
	}
	sparseSetWords(dst.words, p.ids)
}

// CopyInto sets dst = p.
//
//apcm:hotpath
func (p *Posting) CopyInto(dst *Bitset) {
	if p.b != nil {
		dst.CopyFrom(p.b)
		return
	}
	dst.ClearAll()
	p.OrInto(dst)
}

// AndNotInto sets dst &^= p. It returns true when dst is known to have
// become empty: the dense path reports exactly (the kernel's early-exit
// signal), the sparse path clears only the listed members and
// conservatively reports false — emptiness there would cost the full
// sweep the sparse representation exists to avoid.
//
//apcm:hotpath
func (p *Posting) AndNotInto(dst *Bitset) bool {
	if p.b != nil {
		return dst.AndNot(p.b)
	}
	sparseClearWords(dst.words, p.ids)
	return false
}

// ForEach calls fn for every member in ascending order until fn returns
// false.
func (p *Posting) ForEach(fn func(i int) bool) {
	if p.b != nil {
		p.b.ForEach(fn)
		return
	}
	for _, id := range p.ids {
		if !fn(int(id)) {
			return
		}
	}
}

// MemBytes returns the heap footprint of the backing storage.
func (p *Posting) MemBytes() int {
	if p.b != nil {
		return p.b.MemBytes()
	}
	return cap(p.ids) * 4
}
