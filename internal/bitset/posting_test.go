package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// postingPair builds a Posting and a dense reference Bitset from the
// same mutation sequence: n capacity, k Set calls at rng-chosen ids.
// Depending on k relative to SparseMaxFor(n) the posting lands sparse
// or dense, so the quick properties exercise both representations and
// the promotion boundary between them.
func postingPair(n int, seed int64, k int) (*Posting, *Bitset) {
	rng := rand.New(rand.NewSource(seed))
	p := NewPosting(n)
	ref := New(n)
	for i := 0; i < k; i++ {
		id := rng.Intn(n)
		p.Set(id)
		ref.Set(id)
	}
	return p, ref
}

// members returns the members of a Posting or Bitset in ascending order.
func members(x interface{ ForEach(func(i int) bool) }) []int {
	var out []int
	x.ForEach(func(i int) bool { out = append(out, i); return true })
	return out
}

func postingEqualsRef(p *Posting, ref *Bitset) bool {
	if p.Count() != ref.Count() {
		return false
	}
	got := members(p)
	want := members(ref)
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestPropPostingSetCountIter(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint16) bool {
		n := int(nRaw%700) + 1
		k := int(kRaw) % (2 * n)
		p, ref := postingPair(n, seed, k)
		if !postingEqualsRef(p, ref) {
			return false
		}
		// Test must agree member-by-member for both representations.
		for i := 0; i < n; i++ {
			if p.Test(i) != ref.Test(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropPostingOrInto(t *testing.T) {
	f := func(seedP, seedD int64, nRaw, kRaw uint16) bool {
		n := int(nRaw%700) + 1
		k := int(kRaw) % (2 * n)
		p, ref := postingPair(n, seedP, k)
		dst := randomSet(n, seedD)
		want := dst.Clone()
		want.Or(ref)
		p.OrInto(dst)
		return dst.Equal(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropPostingCopyInto(t *testing.T) {
	f := func(seedP, seedD int64, nRaw, kRaw uint16) bool {
		n := int(nRaw%700) + 1
		k := int(kRaw) % (2 * n)
		p, ref := postingPair(n, seedP, k)
		dst := randomSet(n, seedD)
		p.CopyInto(dst)
		return dst.Equal(ref)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropPostingAndNotInto(t *testing.T) {
	f := func(seedP, seedD int64, nRaw, kRaw uint16) bool {
		n := int(nRaw%700) + 1
		k := int(kRaw) % (2 * n)
		p, ref := postingPair(n, seedP, k)
		dst := randomSet(n, seedD)
		want := dst.Clone()
		wantEmpty := want.AndNot(ref)
		gotEmpty := p.AndNotInto(dst)
		if !dst.Equal(want) {
			return false
		}
		// Emptiness: dense must be exact; sparse may under-report (it is
		// a conservative hint) but must never claim empty when not.
		if p.IsSparse() {
			return !gotEmpty || dst.None()
		}
		return gotEmpty == wantEmpty
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropPostingPromotePreservesMembers checks that Promote moves a
// posting to the dense representation with its members intact, and that
// promoting a dense posting again changes nothing.
func TestPropPostingPromotePreservesMembers(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint16) bool {
		n := int(nRaw%700) + 1
		k := int(kRaw) % (2 * n)
		p, ref := postingPair(n, seed, k)
		p.Promote()
		if p.IsSparse() || !postingEqualsRef(p, ref) {
			return false
		}
		p.Promote()
		return !p.IsSparse() && postingEqualsRef(p, ref)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPostingPromotionBoundary pins the exact member count at which Set
// flips the representation: SparseMaxFor members stay sparse, one more
// promotes.
func TestPostingPromotionBoundary(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 256, 384, 1000} {
		limit := SparseMaxFor(n)
		p := NewPosting(n)
		for i := 0; i < n && p.Count() < limit; i++ {
			p.Set(i)
		}
		if p.Count() == limit && !p.IsSparse() {
			t.Fatalf("n=%d: posting promoted at %d members, limit is %d", n, p.Count(), limit)
		}
		if p.Count() == limit && limit < n {
			p.Set(limit) // one past the boundary
			if p.IsSparse() {
				t.Fatalf("n=%d: posting still sparse at %d members, limit is %d", n, p.Count(), limit)
			}
		}
	}
}

func TestPostingSetOutOfOrderAndDuplicates(t *testing.T) {
	p := NewPosting(128)
	seq := []int{100, 3, 50, 3, 100, 0, 127}
	for _, i := range seq {
		p.Set(i)
	}
	want := []int{0, 3, 50, 100, 127}
	got := members(p)
	if len(got) != len(want) {
		t.Fatalf("members = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("members = %v, want %v", got, want)
		}
	}
	for _, i := range want {
		if !p.Test(i) {
			t.Errorf("Test(%d) = false after Set", i)
		}
	}
	if p.Test(1) || p.Test(126) {
		t.Error("Test reports members that were never set")
	}
}

func TestPostingSlabRehoming(t *testing.T) {
	// Simulate finalize: move a sparse posting's ids into a shared slab
	// with slack, then keep appending — growth must not corrupt a
	// neighbouring posting sharing the slab.
	slab := make([]int32, 8)
	a := NewPosting(512)
	a.Set(5)
	a.Set(9)
	b := NewPosting(512)
	b.Set(7)
	copy(slab[0:], a.Ids())
	copy(slab[4:], b.Ids())
	a.InitSparse(slab[0:2:4], 512)
	b.InitSparse(slab[4:5:8], 512)
	a.Set(300)
	a.Set(400) // fills a's slack exactly
	a.Set(450) // overflows: must reallocate privately, not clobber b
	if got := members(b); len(got) != 1 || got[0] != 7 {
		t.Fatalf("neighbour posting corrupted by slack overflow: %v", got)
	}
	want := []int{5, 9, 300, 400, 450}
	got := members(a)
	if len(got) != len(want) {
		t.Fatalf("a = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("a = %v, want %v", got, want)
		}
	}
}

func TestPostingViewBackedDense(t *testing.T) {
	words := make([]uint64, wordsFor(200))
	var v Bitset
	v.InitView(words, 200)
	p := NewPosting(200)
	p.Set(3)
	p.Set(150)
	p.CopyInto(&v)
	p.InitDense(&v)
	if p.IsSparse() || p.Count() != 2 || !p.Test(3) || !p.Test(150) {
		t.Fatal("view-backed dense posting lost members")
	}
	if words[3>>wordShift]&(1<<3) == 0 {
		t.Fatal("view-backed posting did not write through to the slab")
	}
}

func TestViewPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("InitView with wrong length should panic")
		}
	}()
	var v Bitset
	v.InitView(make([]uint64, 2), 200)
}

// Satellite: micro-benchmarks for the bounds-check-elimination re-slice
// in Or/Equal/CopyFrom (AndNot/AndUnion already had it).
func BenchmarkOr4096(b *testing.B) {
	x := randomSet(4096, 1)
	y := randomSet(4096, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Or(y)
	}
}

func BenchmarkEqual4096(b *testing.B) {
	x := randomSet(4096, 1)
	y := x.Clone()
	b.ReportAllocs()
	eq := true
	for i := 0; i < b.N; i++ {
		eq = eq && x.Equal(y)
	}
	if !eq {
		b.Fatal("clone not equal")
	}
}

func BenchmarkCopyFrom4096(b *testing.B) {
	x := New(4096)
	y := randomSet(4096, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.CopyFrom(y)
	}
}

// Hybrid-vs-dense kernel cost at cluster-typical shape: 384 member
// slots (6 words), a posting with 4 members — the canonical-workload
// median — applied to a full alive set.
func BenchmarkPostingOrInto(b *testing.B) {
	const n = 384
	sparse := NewPosting(n)
	for _, id := range []int{3, 97, 200, 301} {
		sparse.Set(id)
	}
	dense := NewPosting(n)
	for _, id := range []int{3, 97, 200, 301} {
		dense.Set(id)
	}
	dense.Promote()
	dst := New(n)
	b.Run("sparse4of384", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sparse.OrInto(dst)
		}
	})
	b.Run("dense4of384", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dense.OrInto(dst)
		}
	})
}
