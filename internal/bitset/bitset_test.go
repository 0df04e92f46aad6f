package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	b := New(0)
	if b.Len() != 0 || b.Count() != 0 || !b.None() {
		t.Fatalf("zero-capacity bitset not empty: len=%d count=%d", b.Len(), b.Count())
	}
	b.ForEach(func(i int) bool {
		t.Fatalf("ForEach on empty visited %d", i)
		return false
	})
}

func TestSetTestClear(t *testing.T) {
	b := New(200)
	idx := []int{0, 1, 63, 64, 65, 127, 128, 199}
	for _, i := range idx {
		b.Set(i)
	}
	for _, i := range idx {
		if !b.Test(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	if b.Count() != len(idx) {
		t.Fatalf("Count = %d, want %d", b.Count(), len(idx))
	}
	for _, i := range idx {
		b.Clear(i)
		if b.Test(i) {
			t.Errorf("bit %d should be clear", i)
		}
	}
	if !b.None() {
		t.Fatal("expected empty after clearing all")
	}
}

// full returns a Bitset with capacity n and all n bits set.
func full(n int) *Bitset {
	b := New(n)
	for i := 0; i < n; i++ {
		b.Set(i)
	}
	return b
}

func TestAndNotEarlyZero(t *testing.T) {
	a := full(130)
	k := full(130)
	if !a.AndNot(k) {
		t.Fatal("AndNot against full mask should report empty")
	}
	if !a.None() {
		t.Fatal("expected empty result")
	}

	a = full(130)
	k = New(130)
	k.Set(5)
	if a.AndNot(k) {
		t.Fatal("AndNot should not report empty when survivors remain")
	}
	if a.Test(5) {
		t.Fatal("bit 5 should be killed")
	}
	if a.Count() != 129 {
		t.Fatalf("Count = %d, want 129", a.Count())
	}
}

func TestForEachEarlyStop(t *testing.T) {
	b := full(100)
	n := 0
	b.ForEach(func(i int) bool { n++; return n < 7 })
	if n != 7 {
		t.Fatalf("ForEach visited %d bits after stop at 7", n)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(100)
	a.Set(10)
	c := a.Clone()
	c.Set(20)
	if a.Test(20) {
		t.Fatal("mutating clone affected original")
	}
	if !c.Test(10) {
		t.Fatal("clone lost original bit")
	}
}

func TestEqual(t *testing.T) {
	a, b := New(100), New(100)
	a.Set(3)
	b.Set(3)
	if !a.Equal(b) {
		t.Fatal("equal sets reported unequal")
	}
	b.Set(4)
	if a.Equal(b) {
		t.Fatal("unequal sets reported equal")
	}
	c := New(101)
	c.Set(3)
	if a.Equal(c) {
		t.Fatal("different capacities should not be Equal")
	}
}

func TestString(t *testing.T) {
	b := New(10)
	b.Set(1)
	b.Set(5)
	if got := b.String(); got != "{1, 5}" {
		t.Fatalf("String = %q", got)
	}
	if got := New(4).String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
}

// randomSet builds a bitset of capacity n from a seed, used by property tests.
func randomSet(n int, seed int64) *Bitset {
	rng := rand.New(rand.NewSource(seed))
	b := New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			b.Set(i)
		}
	}
	return b
}

func TestPropDeMorgan(t *testing.T) {
	// NOT (b AND NOT a) == a OR NOT b, with NOT x computed as
	// full AND NOT x and a OR NOT b as full AND (a OR NOT b).
	f := func(seedA, seedB int64, nRaw uint16) bool {
		n := int(nRaw%512) + 1
		a := randomSet(n, seedA)
		b := randomSet(n, seedB)

		bNotA := b.Clone()
		bNotA.AndNot(a)
		lhs := full(n)
		lhs.AndNot(bNotA)

		rhs := full(n)
		rhs.AndUnion(a, b)

		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropUnionCount(t *testing.T) {
	// |a OR b| == |a| + |b AND NOT a|
	f := func(seedA, seedB int64, nRaw uint16) bool {
		n := int(nRaw%512) + 1
		a := randomSet(n, seedA)
		b := randomSet(n, seedB)
		or := a.Clone()
		or.Or(b)
		bNotA := b.Clone()
		bNotA.AndNot(a)
		return or.Count() == a.Count()+bNotA.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropAndNotDisjoint(t *testing.T) {
	// no bit of a AND NOT b is in b
	f := func(seedA, seedB int64, nRaw uint16) bool {
		n := int(nRaw%512) + 1
		a := randomSet(n, seedA)
		b := randomSet(n, seedB)
		d := a.Clone()
		d.AndNot(b)
		disjoint := true
		d.ForEach(func(i int) bool {
			disjoint = !b.Test(i)
			return disjoint
		})
		return disjoint
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropCopyEqual(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%512) + 1
		a := randomSet(n, seed)
		b := New(n)
		b.CopyFrom(a)
		return a.Equal(b) && b.Count() == a.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropIterationSorted(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%512) + 1
		a := randomSet(n, seed)
		prev := -1
		ok := true
		a.ForEach(func(i int) bool {
			if i <= prev || i >= n || !a.Test(i) {
				ok = false
				return false
			}
			prev = i
			return true
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemBytes(t *testing.T) {
	if got := New(64).MemBytes(); got != 8 {
		t.Fatalf("MemBytes(64 bits) = %d, want 8", got)
	}
	if got := New(65).MemBytes(); got != 16 {
		t.Fatalf("MemBytes(65 bits) = %d, want 16", got)
	}
}

func TestNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) should panic")
		}
	}()
	New(-1)
}

func BenchmarkAndNot4096(b *testing.B) {
	x := full(4096)
	y := randomSet(4096, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.AndNot(y)
	}
}

var sinkInt int

func BenchmarkCount4096(b *testing.B) {
	x := randomSet(4096, 11)
	b.ReportAllocs()
	n := 0
	for i := 0; i < b.N; i++ {
		n += x.Count()
	}
	sinkInt = n
}

func BenchmarkAndUnion4096(b *testing.B) {
	x := full(4096)
	s := randomSet(4096, 3)
	m := randomSet(4096, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.AndUnion(s, m)
	}
}
