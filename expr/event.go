package expr

import (
	"fmt"
	"sort"
	"strings"
)

// Pair is one attribute assignment inside an event.
type Pair struct {
	Attr AttrID
	Val  Value
}

// P is shorthand for Pair{Attr: a, Val: v}, convenient in literals.
func P(a AttrID, v Value) Pair { return Pair{Attr: a, Val: v} }

// Event assigns values to a set of attributes. Pairs are sorted by
// attribute and unique; use NewEvent to establish that invariant.
// Events are immutable after construction and safe for concurrent reads.
type Event struct {
	pairs []Pair
}

// NewEvent builds an event from attribute assignments. The slice is
// copied and sorted; a duplicate attribute is an error.
func NewEvent(pairs ...Pair) (*Event, error) {
	ps := make([]Pair, len(pairs))
	copy(ps, pairs)
	sort.Slice(ps, func(i, j int) bool { return ps[i].Attr < ps[j].Attr })
	for i := 1; i < len(ps); i++ {
		if ps[i].Attr == ps[i-1].Attr {
			return nil, fmt.Errorf("expr: duplicate attribute %d in event", ps[i].Attr)
		}
	}
	return &Event{pairs: ps}, nil
}

// MustEvent is NewEvent for tests and literals; it panics on invalid input.
func MustEvent(pairs ...Pair) *Event {
	e, err := NewEvent(pairs...)
	if err != nil {
		panic(err)
	}
	return e
}

// Lookup returns the value assigned to attribute a, if any.
func (e *Event) Lookup(a AttrID) (Value, bool) {
	ps := e.pairs
	// Events are short (tens of attributes); branchless-ish linear scan is
	// faster than sort.Search and the common miss exits early because the
	// slice is sorted.
	for i := range ps {
		if ps[i].Attr >= a {
			if ps[i].Attr == a {
				return ps[i].Val, true
			}
			return 0, false
		}
	}
	return 0, false
}

// Pairs returns the sorted attribute assignments. Callers must treat the
// slice as read-only.
func (e *Event) Pairs() []Pair { return e.pairs }

// Equal reports whether e and other assign exactly the same values to
// the same attributes.
func (e *Event) Equal(other *Event) bool {
	if len(e.pairs) != len(other.pairs) {
		return false
	}
	for i, p := range e.pairs {
		if other.pairs[i] != p {
			return false
		}
	}
	return true
}

// String renders the event as "a1=5, a7=2" with numeric attribute ids.
func (e *Event) String() string { return e.Format(nil) }

// Format renders the event, resolving attribute names through s when
// non-nil.
func (e *Event) Format(s *Schema) string {
	parts := make([]string, len(e.pairs))
	for i, p := range e.pairs {
		name := fmt.Sprintf("a%d", p.Attr)
		if s != nil {
			if n, ok := s.Name(p.Attr); ok {
				name = n
			}
		}
		parts[i] = fmt.Sprintf("%s=%d", name, p.Val)
	}
	return strings.Join(parts, ", ")
}
