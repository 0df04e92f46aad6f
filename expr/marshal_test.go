package expr

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPredicateRoundTrip(t *testing.T) {
	preds := []Predicate{
		Eq(0, 0),
		Eq(1, 5),
		Ne(100000, -7),
		Lt(3, MinValue+1),
		Le(3, MaxValue),
		Gt(3, MinValue),
		Ge(3, -1),
		Rng(9, -100, 100),
		Any(2, 1, 5, 1000, -3),
		None(4, 0),
	}
	for _, p := range preds {
		buf := AppendPredicate(nil, &p)
		got, n, err := DecodePredicate(buf)
		if err != nil {
			t.Fatalf("%s: decode error %v", p.String(), err)
		}
		if n != len(buf) {
			t.Fatalf("%s: consumed %d of %d bytes", p.String(), n, len(buf))
		}
		if !got.Equal(&p) {
			t.Fatalf("round trip %s -> %s", p.String(), got.String())
		}
	}
}

func TestExpressionRoundTrip(t *testing.T) {
	x := MustNew(1234567, Eq(1, 5), Rng(2, -9, 9), Any(70000, 3, 1, 4), Ne(5, 0))
	buf := AppendExpression(nil, x)
	got, n, err := DecodeExpression(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d bytes", n, len(buf))
	}
	if got.ID != x.ID || len(got.Preds) != len(x.Preds) {
		t.Fatalf("round trip mismatch: %s vs %s", x, got)
	}
	for i := range x.Preds {
		if !got.Preds[i].Equal(&x.Preds[i]) {
			t.Fatalf("predicate %d mismatch: %s vs %s", i, x.Preds[i].String(), got.Preds[i].String())
		}
	}
}

func TestEventRoundTrip(t *testing.T) {
	e := MustEvent(Pair{0, -5}, Pair{3, 0}, Pair{70000, 12345})
	buf := AppendEvent(nil, e)
	got, n, err := DecodeEvent(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d bytes", n, len(buf))
	}
	if len(got.Pairs()) != len(e.Pairs()) {
		t.Fatalf("round trip mismatch: %s vs %s", e, got)
	}
	for i, p := range e.Pairs() {
		if got.Pairs()[i] != p {
			t.Fatalf("pair %d mismatch", i)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	x := MustNew(1, Eq(1, 5), Any(2, 1, 2, 3))
	full := AppendExpression(nil, x)
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := DecodeExpression(full[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d not detected", cut, len(full))
		}
	}
	e := MustEvent(Pair{1, 5}, Pair{9, -2})
	fullE := AppendEvent(nil, e)
	for cut := 0; cut < len(fullE); cut++ {
		if _, _, err := DecodeEvent(fullE[:cut]); err == nil {
			t.Fatalf("event truncation at %d/%d not detected", cut, len(fullE))
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	inputs := [][]byte{
		nil,
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // huge varint
		{1, 0},        // expression id=1, zero predicates
		{1, 1, 1, 99}, // invalid op byte
	}
	for i, in := range inputs {
		if _, _, err := DecodeExpression(in); err == nil {
			t.Errorf("input %d: expected decode error", i)
		}
	}
	// Event with non-monotonic (duplicate) attribute.
	bad := []byte{2, 1, 2, 0, 2} // n=2, attr delta 1, val, attr delta 0 (dup), val
	if _, _, err := DecodeEvent(bad); err == nil {
		t.Error("duplicate attribute in encoded event not detected")
	}
}

// TestKeyIdentity: the binary encoding is a canonical identity key, as
// the workload tests use it: equal predicates encode to the same bytes,
// different ones to different bytes.
func TestKeyIdentity(t *testing.T) {
	key := func(p Predicate) string { return string(AppendPredicate(nil, &p)) }
	a := Any(1, 2, 3)
	b := Any(1, 2, 3)
	c := Any(1, 2, 4)
	if key(a) != key(b) {
		t.Error("equal predicates should share a key")
	}
	if key(a) == key(c) {
		t.Error("different predicates should not share a key")
	}
	// EQ vs Between covering the same point are physically distinct.
	if key(Eq(1, 5)) == key(Rng(1, 5, 5)) {
		t.Error("EQ and Between are different physical predicates")
	}
}

func TestPropExpressionRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		preds := make([]Predicate, rng.Intn(8)+1)
		for i := range preds {
			preds[i] = randomPredicate(rng, 50, 1000)
		}
		x, err := New(ID(rng.Uint64()), preds...)
		if err != nil {
			return false
		}
		buf := AppendExpression(nil, x)
		got, n, err := DecodeExpression(buf)
		if err != nil || n != len(buf) || got.ID != x.ID || len(got.Preds) != len(x.Preds) {
			return false
		}
		for i := range x.Preds {
			if !got.Preds[i].Equal(&x.Preds[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropEventRoundTripPreservesMatching(t *testing.T) {
	// Encoding must not change matching behaviour.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var pairs []Pair
		for a := 0; a < 8; a++ {
			if rng.Intn(2) == 0 {
				pairs = append(pairs, Pair{AttrID(a), Value(rng.Intn(41) - 20)})
			}
		}
		if len(pairs) == 0 {
			pairs = append(pairs, Pair{0, 0})
		}
		ev := MustEvent(pairs...)
		buf := AppendEvent(nil, ev)
		got, _, err := DecodeEvent(buf)
		if err != nil {
			return false
		}
		preds := make([]Predicate, rng.Intn(4)+1)
		for i := range preds {
			preds[i] = randomPredicate(rng, 8, 40)
		}
		x, err := New(1, preds...)
		if err != nil {
			return false
		}
		return x.MatchesEvent(ev) == x.MatchesEvent(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendGrowsDst(t *testing.T) {
	x := MustNew(1, Eq(1, 5))
	prefix := []byte{0xAA, 0xBB}
	buf := AppendExpression(prefix, x)
	if !bytes.HasPrefix(buf, prefix) {
		t.Fatal("Append should preserve existing dst contents")
	}
	got, _, err := DecodeExpression(buf[2:])
	if err != nil || got.ID != 1 {
		t.Fatalf("decode after prefix: %v", err)
	}
}
