// Package expr defines the Boolean-expression data model used throughout
// the matcher: predicates over a high-dimensional discrete attribute
// space, conjunctive expressions (subscriptions), and events.
//
// The model follows the BE-Tree line of work: attributes are dense
// integer ids, values are drawn from finite discrete domains, an
// expression is a conjunction of predicates, and an event assigns values
// to a subset of attributes. A predicate over an attribute that the event
// does not carry is unsatisfied, so an expression only matches events
// that cover all of its attributes.
package expr

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// AttrID identifies an attribute (a dimension of the discrete space).
type AttrID uint32

// Value is an attribute value. Domains are finite subranges of int32.
type Value int32

// MinValue and MaxValue bound the representable domain.
const (
	MinValue Value = math.MinInt32
	MaxValue Value = math.MaxInt32
)

// ID identifies an expression (a subscription disjunct).
type ID uint64

// Op enumerates predicate operators.
type Op uint8

// Predicate operators. EQ..Between are indexable interval operators;
// In is an indexable set operator; NE and NotIn are non-indexable (they
// accept almost the whole domain) and are handled as verify-only residue
// by the index-based matchers.
const (
	EQ      Op = iota // attribute == Lo
	NE                // attribute != Lo
	LT                // attribute <  Lo
	LE                // attribute <= Lo
	GT                // attribute >  Lo
	GE                // attribute >= Lo
	Between           // Lo <= attribute <= Hi
	In                // attribute ∈ Set
	NotIn             // attribute ∉ Set
	opEnd
)

var opNames = [...]string{
	EQ: "=", NE: "!=", LT: "<", LE: "<=", GT: ">", GE: ">=",
	Between: "between", In: "in", NotIn: "not in",
}

// String returns the operator's source-syntax spelling.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Valid reports whether o is a defined operator.
func (o Op) Valid() bool { return o < opEnd }

// Predicate constrains a single attribute. The operand layout depends on
// Op: interval operators use Lo (and Hi for Between); set operators use
// Set, which must be sorted ascending and duplicate-free.
//
// Construct predicates with the helper constructors (Eq, Lt, Any, ...)
// which establish those invariants, or call Validate after filling the
// fields directly.
type Predicate struct {
	Attr AttrID
	Op   Op
	Lo   Value
	Hi   Value
	Set  []Value
}

// Eq returns the predicate attr == v.
func Eq(attr AttrID, v Value) Predicate { return Predicate{Attr: attr, Op: EQ, Lo: v, Hi: v} }

// Ne returns the predicate attr != v.
func Ne(attr AttrID, v Value) Predicate { return Predicate{Attr: attr, Op: NE, Lo: v, Hi: v} }

// Lt returns the predicate attr < v.
func Lt(attr AttrID, v Value) Predicate { return Predicate{Attr: attr, Op: LT, Lo: v} }

// Le returns the predicate attr <= v.
func Le(attr AttrID, v Value) Predicate { return Predicate{Attr: attr, Op: LE, Lo: v} }

// Gt returns the predicate attr > v.
func Gt(attr AttrID, v Value) Predicate { return Predicate{Attr: attr, Op: GT, Lo: v} }

// Ge returns the predicate attr >= v.
func Ge(attr AttrID, v Value) Predicate { return Predicate{Attr: attr, Op: GE, Lo: v} }

// Rng returns the predicate lo <= attr <= hi.
func Rng(attr AttrID, lo, hi Value) Predicate {
	return Predicate{Attr: attr, Op: Between, Lo: lo, Hi: hi}
}

// Any returns the predicate attr ∈ vs. The argument is copied, sorted and
// de-duplicated.
func Any(attr AttrID, vs ...Value) Predicate {
	return Predicate{Attr: attr, Op: In, Set: normalizeSet(vs)}
}

// None returns the predicate attr ∉ vs. The argument is copied, sorted
// and de-duplicated.
func None(attr AttrID, vs ...Value) Predicate {
	return Predicate{Attr: attr, Op: NotIn, Set: normalizeSet(vs)}
}

func normalizeSet(vs []Value) []Value {
	out := make([]Value, len(vs))
	copy(out, vs)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	// De-duplicate in place.
	w := 0
	for i, v := range out {
		if i == 0 || v != out[w-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}

// Validate checks structural invariants: a defined operator, non-empty
// normalized sets for In/NotIn, and a non-empty interval for Between.
func (p *Predicate) Validate() error {
	if !p.Op.Valid() {
		return fmt.Errorf("expr: invalid operator %d on attribute %d", p.Op, p.Attr)
	}
	switch p.Op {
	case Between:
		if p.Lo > p.Hi {
			return fmt.Errorf("expr: empty interval [%d,%d] on attribute %d", p.Lo, p.Hi, p.Attr)
		}
	case In, NotIn:
		if len(p.Set) == 0 {
			return fmt.Errorf("expr: empty set for %s on attribute %d", p.Op, p.Attr)
		}
		for i := 1; i < len(p.Set); i++ {
			if p.Set[i] <= p.Set[i-1] {
				return fmt.Errorf("expr: set for %s on attribute %d not sorted/unique", p.Op, p.Attr)
			}
		}
	case LT:
		if p.Lo == MinValue {
			return fmt.Errorf("expr: attribute %d < MinValue is unsatisfiable", p.Attr)
		}
	case GT:
		if p.Lo == MaxValue {
			return fmt.Errorf("expr: attribute %d > MaxValue is unsatisfiable", p.Attr)
		}
	}
	return nil
}

// Matches reports whether value v satisfies the predicate.
func (p *Predicate) Matches(v Value) bool {
	switch p.Op {
	case EQ:
		return v == p.Lo
	case NE:
		return v != p.Lo
	case LT:
		return v < p.Lo
	case LE:
		return v <= p.Lo
	case GT:
		return v > p.Lo
	case GE:
		return v >= p.Lo
	case Between:
		return v >= p.Lo && v <= p.Hi
	case In:
		return setContains(p.Set, v)
	case NotIn:
		return !setContains(p.Set, v)
	default:
		return false
	}
}

func setContains(set []Value, v Value) bool {
	// Small sets dominate real workloads; linear scan beats binary search
	// below ~16 elements and stays correct above it via sort.Search.
	if len(set) <= 16 {
		for _, s := range set {
			if s == v {
				return true
			}
			if s > v {
				return false
			}
		}
		return false
	}
	i := sort.Search(len(set), func(i int) bool { return set[i] >= v })
	return i < len(set) && set[i] == v
}

// Indexable reports whether the predicate can drive index navigation.
// NE and NotIn accept nearly the whole domain, so indexes keep them as
// verify-only residue instead.
func (p *Predicate) Indexable() bool { return p.Op != NE && p.Op != NotIn }

// Span returns the smallest interval [lo,hi] containing every accepted
// value, which index clustering uses for placement. For non-indexable
// predicates it returns the full domain.
func (p *Predicate) Span() (lo, hi Value) {
	switch p.Op {
	case EQ:
		return p.Lo, p.Lo
	case LT:
		return MinValue, p.Lo - 1
	case LE:
		return MinValue, p.Lo
	case GT:
		return p.Lo + 1, MaxValue
	case GE:
		return p.Lo, MaxValue
	case Between:
		return p.Lo, p.Hi
	case In:
		return p.Set[0], p.Set[len(p.Set)-1]
	default: // NE, NotIn
		return MinValue, MaxValue
	}
}

// Equal reports whether p and q accept exactly the same (attr, value)
// pairs and use the same physical representation. It is the identity used
// by the compressed cluster's predicate dictionary.
func (p *Predicate) Equal(q *Predicate) bool {
	if p.Attr != q.Attr || p.Op != q.Op || p.Lo != q.Lo || p.Hi != q.Hi || len(p.Set) != len(q.Set) {
		return false
	}
	for i := range p.Set {
		if p.Set[i] != q.Set[i] {
			return false
		}
	}
	return true
}

// String renders the predicate with numeric attribute ids, e.g. "a3 <= 17".
func (p *Predicate) String() string { return p.Format(nil) }

// Format renders the predicate, resolving attribute names through s when
// non-nil.
func (p *Predicate) Format(s *Schema) string {
	name := fmt.Sprintf("a%d", p.Attr)
	if s != nil {
		if n, ok := s.Name(p.Attr); ok {
			name = n
		}
	}
	switch p.Op {
	case Between:
		return fmt.Sprintf("%s between %d %d", name, p.Lo, p.Hi)
	case In, NotIn:
		parts := make([]string, len(p.Set))
		for i, v := range p.Set {
			parts[i] = fmt.Sprintf("%d", v)
		}
		return fmt.Sprintf("%s %s {%s}", name, p.Op, strings.Join(parts, ", "))
	default:
		return fmt.Sprintf("%s %s %d", name, p.Op, p.Lo)
	}
}

// Expression is a conjunction of predicates with a unique id. Predicates
// are kept sorted by attribute (ties broken arbitrarily but stably);
// multiple predicates on the same attribute are permitted and all must
// hold.
type Expression struct {
	ID    ID
	Preds []Predicate
}

// MemBytes reports the heap bytes x holds: the struct (32 bytes on
// 64-bit platforms), its predicate array (40 per predicate) and every
// membership set, by capacity. TestMemBytesSizes pins the sizes.
func (x *Expression) MemBytes() int64 {
	b := 32 + 40*int64(cap(x.Preds))
	for i := range x.Preds {
		b += int64(cap(x.Preds[i].Set)) * 4
	}
	return b
}

// New builds a validated expression. The predicate slice is copied and
// sorted by attribute.
func New(id ID, preds ...Predicate) (*Expression, error) {
	ps := make([]Predicate, len(preds))
	copy(ps, preds)
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].Attr < ps[j].Attr })
	x := &Expression{ID: id, Preds: ps}
	if err := x.Validate(); err != nil {
		return nil, err
	}
	return x, nil
}

// Validate reports whether x is what New builds: at least one
// predicate, every predicate valid, and the predicates sorted by
// attribute. Matchers rely on all three, so an expression assembled by
// hand must pass it before it is indexed.
func (x *Expression) Validate() error {
	if len(x.Preds) == 0 {
		return fmt.Errorf("expr: expression %d has no predicates", x.ID)
	}
	for i := range x.Preds {
		if err := x.Preds[i].Validate(); err != nil {
			return fmt.Errorf("expression %d: %w", x.ID, err)
		}
		if i > 0 && x.Preds[i].Attr < x.Preds[i-1].Attr {
			return fmt.Errorf("expr: expression %d: predicates not sorted by attribute", x.ID)
		}
	}
	return nil
}

// MustNew is New for tests and literals; it panics on invalid input.
func MustNew(id ID, preds ...Predicate) *Expression {
	x, err := New(id, preds...)
	if err != nil {
		panic(err)
	}
	return x
}

// MatchesEvent is the reference matching semantics: every predicate's
// attribute must be present in the event and satisfied by its value.
// All matchers in this repository must agree with this function.
func (x *Expression) MatchesEvent(e *Event) bool {
	for i := range x.Preds {
		p := &x.Preds[i]
		v, ok := e.Lookup(p.Attr)
		if !ok || !p.Matches(v) {
			return false
		}
	}
	return true
}

// Attrs returns the distinct attributes the expression constrains, in
// ascending order.
func (x *Expression) Attrs() []AttrID {
	out := make([]AttrID, 0, len(x.Preds))
	for i := range x.Preds {
		a := x.Preds[i].Attr
		if len(out) == 0 || out[len(out)-1] != a {
			out = append(out, a)
		}
	}
	return out
}

// String renders the conjunction with numeric attribute ids.
func (x *Expression) String() string { return x.Format(nil) }

// Format renders the conjunction, resolving names through s when non-nil.
func (x *Expression) Format(s *Schema) string {
	parts := make([]string, len(x.Preds))
	for i := range x.Preds {
		parts[i] = x.Preds[i].Format(s)
	}
	return strings.Join(parts, " and ")
}
