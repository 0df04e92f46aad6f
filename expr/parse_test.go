package expr

import (
	"strings"
	"testing"
)

func TestParseBasic(t *testing.T) {
	s := NewSchema()
	x, err := Parse(s, 42, "price <= 500 and brand in {3, 7} and rating >= 4")
	if err != nil {
		t.Fatal(err)
	}
	if x.ID != 42 || len(x.Preds) != 3 {
		t.Fatalf("parsed %s", x)
	}
	price := s.Attr("price")
	brand := s.Attr("brand")
	rating := s.Attr("rating")
	ev := MustEvent(Pair{price, 300}, Pair{brand, 7}, Pair{rating, 5})
	if !x.MatchesEvent(ev) {
		t.Error("event should match")
	}
	ev2 := MustEvent(Pair{price, 600}, Pair{brand, 7}, Pair{rating, 5})
	if x.MatchesEvent(ev2) {
		t.Error("price 600 should not match")
	}
}

func TestParseAllOperators(t *testing.T) {
	s := NewSchema()
	cases := []struct {
		text  string
		val   Value
		match bool
	}{
		{"x = 5", 5, true},
		{"x == 5", 5, true},
		{"x != 5", 5, false},
		{"x < 5", 4, true},
		{"x <= 5", 5, true},
		{"x > 5", 6, true},
		{"x >= 5", 5, true},
		{"x between 2 8", 8, true},
		{"x between 2 8", 9, false},
		{"x in {1, 3, 5}", 3, true},
		{"x in {1,3,5}", 2, false},
		{"x not in {1, 3}", 2, true},
		{"x not in {1, 3}", 3, false},
		{"x = -7", -7, true},
	}
	for _, c := range cases {
		x, err := Parse(s, 1, c.text)
		if err != nil {
			t.Fatalf("%q: %v", c.text, err)
		}
		a := s.Attr("x")
		ev := MustEvent(Pair{a, c.val})
		if got := x.MatchesEvent(ev); got != c.match {
			t.Errorf("%q vs x=%d: match=%v, want %v", c.text, c.val, got, c.match)
		}
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	s := NewSchema()
	if _, err := Parse(s, 1, "x = 1 AND y BETWEEN 1 2 AND z IN {1} AND w NOT IN {2}"); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	s := NewSchema()
	bad := []string{
		"",
		"x",
		"x =",
		"= 5",
		"x ! 5",
		"x = 5 and",
		"x = 5 or y = 2",
		"x in {}",
		"x in {1",
		"x in {1 2}",
		"x not 5",
		"x between 5",
		"x between 9 1", // empty interval fails validation
		"x = 99999999999999",
		"x # 5",
		"x = 5 y = 2",
	}
	for _, text := range bad {
		if _, err := Parse(s, 1, text); err == nil {
			t.Errorf("Parse(%q) should fail", text)
		}
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	s := NewSchema()
	texts := []string{
		"price <= 500 and brand in {3, 7}",
		"x = 1 and y != 2 and z between 3 9 and w not in {1, 2}",
	}
	for _, text := range texts {
		x := MustParse(s, 1, text)
		back := MustParse(s, 1, x.Format(s))
		if len(back.Preds) != len(x.Preds) {
			t.Fatalf("round trip changed arity for %q", text)
		}
		for i := range x.Preds {
			if !back.Preds[i].Equal(&x.Preds[i]) {
				t.Fatalf("round trip changed predicate %d of %q: %s vs %s",
					i, text, x.Preds[i].String(), back.Preds[i].String())
			}
		}
	}
}

func TestParseEvent(t *testing.T) {
	s := NewSchema()
	e, err := ParseEvent(s, "price=300, brand=7, rating = 5")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(e.Pairs()); n != 3 {
		t.Fatalf("len(Pairs) = %d", n)
	}
	brand := s.Attr("brand")
	if v, ok := e.Lookup(brand); !ok || v != 7 {
		t.Errorf("brand = %d,%v", v, ok)
	}
	if _, err := ParseEvent(s, ""); err == nil {
		t.Error("empty event text should fail")
	}
	if _, err := ParseEvent(s, "x=1, x=2"); err == nil {
		t.Error("duplicate attribute should fail")
	}
	if _, err := ParseEvent(s, "x=abc"); err == nil {
		t.Error("non-numeric value should fail")
	}
	if _, err := ParseEvent(s, "=5"); err == nil {
		t.Error("missing name should fail")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic on bad input")
		}
	}()
	MustParse(NewSchema(), 1, "not a valid expression %%")
}

func TestFormatWithSchema(t *testing.T) {
	s := NewSchema()
	x := MustParse(s, 1, "price < 10 and brand in {1}")
	out := x.Format(s)
	if !strings.Contains(out, "price") || !strings.Contains(out, "brand") {
		t.Errorf("Format lost names: %q", out)
	}
	e := MustParseEvent(s, "price=3")
	if e.Format(s) != "price=3" {
		t.Errorf("event Format = %q", e.Format(s))
	}
}
