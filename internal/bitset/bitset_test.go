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
	if got := b.NextSet(0); got != -1 {
		t.Fatalf("NextSet on empty = %d, want -1", got)
	}
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

func TestSetAllTrims(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 100, 128, 129} {
		b := New(n)
		b.SetAll()
		if b.Count() != n {
			t.Errorf("n=%d: SetAll count = %d", n, b.Count())
		}
	}
}

func TestNewFull(t *testing.T) {
	b := NewFull(70)
	if b.Count() != 70 {
		t.Fatalf("NewFull(70).Count() = %d", b.Count())
	}
	if !b.Test(69) || b.Test(69) != true {
		t.Fatal("high bit not set")
	}
}

func TestAndNotEarlyZero(t *testing.T) {
	a := NewFull(130)
	k := NewFull(130)
	if !a.AndNot(k) {
		t.Fatal("AndNot against full mask should report empty")
	}
	if !a.None() {
		t.Fatal("expected empty result")
	}

	a = NewFull(130)
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

func TestNextSet(t *testing.T) {
	b := New(300)
	want := []int{3, 64, 65, 150, 299}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	for i := b.NextSet(0); i >= 0; i = b.NextSet(i + 1) {
		got = append(got, i)
	}
	if len(got) != len(want) {
		t.Fatalf("iterated %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("iterated %v, want %v", got, want)
		}
	}
	if b.NextSet(300) != -1 || b.NextSet(1000) != -1 {
		t.Fatal("NextSet past capacity should be -1")
	}
	if b.NextSet(-5) != 3 {
		t.Fatal("NextSet with negative start should begin at 0")
	}
}

func TestAppendSetMatchesForEach(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	b := New(500)
	for i := 0; i < 120; i++ {
		b.Set(rng.Intn(500))
	}
	app := b.AppendSet(nil)
	var fe []int
	b.ForEach(func(i int) bool { fe = append(fe, i); return true })
	if len(app) != len(fe) {
		t.Fatalf("AppendSet %d items, ForEach %d", len(app), len(fe))
	}
	for i := range app {
		if app[i] != fe[i] {
			t.Fatalf("mismatch at %d: %d vs %d", i, app[i], fe[i])
		}
	}
	if len(app) != b.Count() {
		t.Fatalf("iteration found %d bits, Count says %d", len(app), b.Count())
	}
}

func TestForEachEarlyStop(t *testing.T) {
	b := NewFull(100)
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
	// a AND NOT b == a XOR (a AND b)
	f := func(seedA, seedB int64, nRaw uint16) bool {
		n := int(nRaw%512) + 1
		a := randomSet(n, seedA)
		b := randomSet(n, seedB)

		lhs := a.Clone()
		lhs.AndNot(b)

		rhs := a.Clone()
		ab := a.Clone()
		ab.And(b)
		rhs.Xor(ab)

		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropUnionCount(t *testing.T) {
	// |a OR b| == |a| + |b| - |a AND b|
	f := func(seedA, seedB int64, nRaw uint16) bool {
		n := int(nRaw%512) + 1
		a := randomSet(n, seedA)
		b := randomSet(n, seedB)
		or := a.Clone()
		or.Or(b)
		and := a.Clone()
		and.And(b)
		return or.Count() == a.Count()+b.Count()-and.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropAndNotDisjoint(t *testing.T) {
	// (a AND NOT b) AND b == empty
	f := func(seedA, seedB int64, nRaw uint16) bool {
		n := int(nRaw%512) + 1
		a := randomSet(n, seedA)
		b := randomSet(n, seedB)
		d := a.Clone()
		d.AndNot(b)
		d.And(b)
		return d.None()
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
	x := NewFull(4096)
	y := randomSet(4096, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.AndNot(y)
	}
}

func BenchmarkNextSetSparse(b *testing.B) {
	x := New(65536)
	for i := 0; i < 65536; i += 1024 {
		x.Set(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := x.NextSet(0); j >= 0; j = x.NextSet(j + 1) {
		}
	}
}

// denseSet fills every other bit: the worst case for NextSet-loop
// iteration (every call rescans its word from the start).
func denseSet(n int) *Bitset {
	b := New(n)
	for i := 0; i < n; i += 2 {
		b.Set(i)
	}
	return b
}

func BenchmarkIterationDense(b *testing.B) {
	x := denseSet(65536)
	b.Run("NextSetLoop", func(b *testing.B) {
		b.ReportAllocs()
		sum := 0
		for i := 0; i < b.N; i++ {
			for j := x.NextSet(0); j >= 0; j = x.NextSet(j + 1) {
				sum += j
			}
		}
		sinkInt = sum
	})
	b.Run("AppendSet", func(b *testing.B) {
		b.ReportAllocs()
		var buf []int
		for i := 0; i < b.N; i++ {
			buf = x.AppendSet(buf[:0])
		}
		sinkInt = len(buf)
	})
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
	x := NewFull(4096)
	s := randomSet(4096, 3)
	m := randomSet(4096, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.AndUnion(s, m)
	}
}
