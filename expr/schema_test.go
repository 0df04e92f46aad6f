package expr

import (
	"sync"
	"testing"
)

func TestSchemaInterning(t *testing.T) {
	s := NewSchema()
	a := s.Attr("price")
	b := s.Attr("brand")
	if a == b {
		t.Fatal("distinct names share an id")
	}
	if got := s.Attr("price"); got != a {
		t.Fatal("re-interning changed the id")
	}
	if n, ok := s.Name(a); !ok || n != "price" {
		t.Fatalf("Name(%d) = %q,%v", a, n, ok)
	}
	if _, ok := s.Name(99); ok {
		t.Fatal("unknown id resolved")
	}
	if n, ok := s.Name(b); !ok || n != "brand" {
		t.Fatalf("Name(%d) = %q,%v", b, n, ok)
	}
}

func TestSchemaConcurrent(t *testing.T) {
	s := NewSchema()
	var wg sync.WaitGroup
	names := []string{"a", "b", "c", "d", "e"}
	ids := make([][]AttrID, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]AttrID, len(names))
			for i, n := range names {
				ids[g][i] = s.Attr(n)
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < 8; g++ {
		for i := range names {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("goroutine %d got different id for %q", g, names[i])
			}
		}
	}
	if _, ok := s.Name(AttrID(len(names))); ok {
		t.Fatalf("concurrent interning of %d names made more than %d ids", len(names), len(names))
	}
}
