// Package workload generates synthetic Boolean-expression matching
// workloads in the style of BEGen, the generator used throughout the
// BE-Tree line of work. A workload is defined by a Params value: the
// discrete space (attributes × cardinality), the subscription population
// (predicate counts, operator mix, sharing), value and attribute skew,
// and the event stream (width and planted-match fraction).
//
// Generation is fully deterministic for a given Params.Seed, so every
// experiment in the benchmark harness is reproducible bit-for-bit.
package workload

import (
	"fmt"
	"math/rand"

	"github.com/streammatch/apcm/expr"
)

// Params configures a Generator. The zero value is not usable; start from
// Default() and override fields.
type Params struct {
	Seed int64

	// Space.
	NumAttrs    int // number of attributes (dimensions)
	Cardinality int // per-attribute domain is [0, Cardinality)

	// Expressions.
	PredsMin int // predicates per expression, uniform in [PredsMin, PredsMax]
	PredsMax int

	// Operator mix: weights normalised internally. Equality produces EQ;
	// Range produces Between (60%), LE (20%), GE (20%); Membership
	// produces IN; Negated splits evenly between NE and NOT IN.
	WEquality   float64
	WRange      float64
	WMembership float64
	WNegated    float64

	// RangeWidthFrac sizes Between intervals as a fraction of the domain.
	RangeWidthFrac float64
	// InSetSize is the number of values in IN / NOT IN sets.
	InSetSize int

	// PredPoolSize bounds the number of distinct predicates per attribute.
	// Expressions draw their predicates from this shared pool, which
	// controls inter-subscription redundancy — the quantity compression
	// exploits. Zero disables pooling (every predicate freshly random,
	// minimal redundancy).
	PredPoolSize int

	// ValueZipf skews predicate and event values: 0 means uniform,
	// otherwise it is the Zipf s parameter and must exceed 1.
	ValueZipf float64
	// AttrZipf skews which attributes predicates and events mention,
	// with the same convention as ValueZipf.
	AttrZipf float64

	// Events.
	EventAttrs int // attributes per event
	// MatchFraction is the probability that an event is planted: derived
	// from a previously generated expression so that it satisfies it.
	// Planted events give the workload a controllable match rate; purely
	// random events in a large space match almost nothing.
	MatchFraction float64

	// PlantPoolSize bounds how many generated expressions are retained as
	// plant sources for events. 0 retains every expression — exact
	// uniform planting, O(generated) memory. A positive bound keeps a
	// uniform reservoir sample of that size instead, making generation
	// O(PlantPoolSize) in memory regardless of how many expressions are
	// streamed (cmd/apcm-gen relies on this for multi-million-
	// subscription traces). The reservoir uses its own RNG, so for a
	// fixed Seed the expression stream is bit-identical whether or not
	// the pool is bounded; planted events stay statistically equivalent
	// but draw from the sample rather than the full history.
	PlantPoolSize int
}

// Default returns the canonical workload from DESIGN.md: 400 attributes,
// cardinality 1000, 5–9 predicates per expression, equality-heavy mix,
// 15-attribute events, ~1% planted match fraction.
func Default() Params {
	return Params{
		Seed:           1,
		NumAttrs:       400,
		Cardinality:    1000,
		PredsMin:       5,
		PredsMax:       9,
		WEquality:      0.85,
		WRange:         0.10,
		WMembership:    0.05,
		WNegated:       0.00,
		RangeWidthFrac: 0.05,
		InSetSize:      4,
		PredPoolSize:   40,
		EventAttrs:     15,
		MatchFraction:  0.01,
	}
}

// Validate reports the first structural problem with p.
func (p *Params) Validate() error {
	switch {
	case p.NumAttrs <= 0:
		return fmt.Errorf("workload: NumAttrs must be positive, got %d", p.NumAttrs)
	case p.Cardinality <= 1:
		return fmt.Errorf("workload: Cardinality must exceed 1, got %d", p.Cardinality)
	case p.PredsMin <= 0 || p.PredsMax < p.PredsMin:
		return fmt.Errorf("workload: bad predicate count range [%d,%d]", p.PredsMin, p.PredsMax)
	case p.WEquality < 0 || p.WRange < 0 || p.WMembership < 0 || p.WNegated < 0:
		return fmt.Errorf("workload: operator weights must be non-negative")
	case p.WEquality+p.WRange+p.WMembership+p.WNegated <= 0:
		return fmt.Errorf("workload: operator weights sum to zero")
	case p.RangeWidthFrac < 0 || p.RangeWidthFrac > 1:
		return fmt.Errorf("workload: RangeWidthFrac %f out of [0,1]", p.RangeWidthFrac)
	case p.InSetSize <= 0 && p.WMembership > 0:
		return fmt.Errorf("workload: InSetSize must be positive when WMembership > 0")
	case p.ValueZipf != 0 && p.ValueZipf <= 1:
		return fmt.Errorf("workload: ValueZipf must be 0 or > 1, got %f", p.ValueZipf)
	case p.AttrZipf != 0 && p.AttrZipf <= 1:
		return fmt.Errorf("workload: AttrZipf must be 0 or > 1, got %f", p.AttrZipf)
	case p.EventAttrs <= 0 || p.EventAttrs > p.NumAttrs:
		return fmt.Errorf("workload: EventAttrs %d out of [1,%d]", p.EventAttrs, p.NumAttrs)
	case p.MatchFraction < 0 || p.MatchFraction > 1:
		return fmt.Errorf("workload: MatchFraction %f out of [0,1]", p.MatchFraction)
	case p.PredPoolSize < 0:
		return fmt.Errorf("workload: PredPoolSize must be non-negative")
	case p.PlantPoolSize < 0:
		return fmt.Errorf("workload: PlantPoolSize must be non-negative")
	}
	return nil
}

// Generator produces expressions and events for one Params value.
// A Generator is not safe for concurrent use.
type Generator struct {
	p         Params
	rng       *rand.Rand
	valueZipf *rand.Zipf
	attrZipf  *rand.Zipf
	pool      map[expr.AttrID][]expr.Predicate
	nextID    expr.ID

	// exprs records generated expressions so planted events can be
	// derived from them: the full history unbounded, or a uniform
	// reservoir sample of PlantPoolSize. plantRng drives the reservoir's
	// keep/evict decisions on its own stream so bounding the pool never
	// perturbs the main rng, and seen counts recorded expressions for
	// the reservoir's acceptance probability.
	exprs    []*expr.Expression
	plantRng *rand.Rand
	seen     int64
}

// New validates p and returns a Generator for it.
func New(p Params) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{p: p, rng: rand.New(rand.NewSource(p.Seed)), nextID: 1}
	if p.ValueZipf > 1 {
		g.valueZipf = rand.NewZipf(g.rng, p.ValueZipf, 1, uint64(p.Cardinality-1))
	}
	if p.AttrZipf > 1 {
		g.attrZipf = rand.NewZipf(g.rng, p.AttrZipf, 1, uint64(p.NumAttrs-1))
	}
	if p.PredPoolSize > 0 {
		g.pool = make(map[expr.AttrID][]expr.Predicate)
	}
	if p.PlantPoolSize > 0 {
		// A fixed xor keeps the reservoir stream distinct from — and
		// independent of — the main stream at every seed.
		g.plantRng = rand.New(rand.NewSource(p.Seed ^ 0x5ee0f9bd1c3a7e42))
	}
	return g, nil
}

// MustNew is New for tests and literals; it panics on invalid Params.
func MustNew(p Params) *Generator {
	g, err := New(p)
	if err != nil {
		panic(err)
	}
	return g
}

func (g *Generator) attr() expr.AttrID {
	if g.attrZipf != nil {
		return expr.AttrID(g.attrZipf.Uint64())
	}
	return expr.AttrID(g.rng.Intn(g.p.NumAttrs))
}

func (g *Generator) value() expr.Value {
	if g.valueZipf != nil {
		return expr.Value(g.valueZipf.Uint64())
	}
	return expr.Value(g.rng.Intn(g.p.Cardinality))
}

// predicate returns a predicate on attr, drawn from the shared pool when
// pooling is enabled.
func (g *Generator) predicate(attr expr.AttrID) expr.Predicate {
	if g.pool != nil {
		ps := g.pool[attr]
		if len(ps) < g.p.PredPoolSize {
			p := g.freshPredicate(attr)
			g.pool[attr] = append(ps, p)
			return p
		}
		return ps[g.rng.Intn(len(ps))]
	}
	return g.freshPredicate(attr)
}

func (g *Generator) freshPredicate(attr expr.AttrID) expr.Predicate {
	card := g.p.Cardinality
	wSum := g.p.WEquality + g.p.WRange + g.p.WMembership + g.p.WNegated
	r := g.rng.Float64() * wSum
	switch {
	case r < g.p.WEquality:
		return expr.Eq(attr, g.value())
	case r < g.p.WEquality+g.p.WRange:
		switch g.rng.Intn(5) {
		case 0:
			return expr.Le(attr, g.value())
		case 1:
			return expr.Ge(attr, g.value())
		default:
			width := int(g.p.RangeWidthFrac * float64(card))
			if width < 1 {
				width = 1
			}
			lo := g.rng.Intn(card)
			hi := lo + g.rng.Intn(width)
			if hi >= card {
				hi = card - 1
			}
			return expr.Rng(attr, expr.Value(lo), expr.Value(hi))
		}
	case r < g.p.WEquality+g.p.WRange+g.p.WMembership:
		vs := make([]expr.Value, g.p.InSetSize)
		for i := range vs {
			vs[i] = g.value()
		}
		return expr.Any(attr, vs...)
	default:
		if g.rng.Intn(2) == 0 {
			return expr.Ne(attr, g.value())
		}
		n := g.p.InSetSize
		if n <= 0 {
			n = 2
		}
		vs := make([]expr.Value, n)
		for i := range vs {
			vs[i] = g.value()
		}
		return expr.None(attr, vs...)
	}
}

// distinctAttrs samples n distinct attributes according to the attribute
// distribution.
func (g *Generator) distinctAttrs(n int) []expr.AttrID {
	seen := make(map[expr.AttrID]bool, n)
	out := make([]expr.AttrID, 0, n)
	for len(out) < n {
		a := g.attr()
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// Expression generates the next expression. IDs are assigned sequentially
// from 1.
func (g *Generator) Expression() *expr.Expression {
	n := g.p.PredsMin + g.rng.Intn(g.p.PredsMax-g.p.PredsMin+1)
	if n > g.p.NumAttrs {
		n = g.p.NumAttrs
	}
	attrs := g.distinctAttrs(n)
	preds := make([]expr.Predicate, n)
	for i, a := range attrs {
		preds[i] = g.predicate(a)
	}
	x, err := expr.New(g.nextID, preds...)
	if err != nil {
		// Generated predicates are valid by construction; any failure here
		// is a generator bug worth crashing on.
		panic(fmt.Sprintf("workload: generated invalid expression: %v", err))
	}
	g.nextID++
	g.record(x)
	return x
}

// record adds x to the plant source: the full history when the pool is
// unbounded, otherwise a classic reservoir sample — the first
// PlantPoolSize expressions fill the pool, every later one replaces a
// uniformly chosen slot with probability PlantPoolSize/seen, keeping
// the pool a uniform sample of everything generated so far.
func (g *Generator) record(x *expr.Expression) {
	if g.plantRng == nil {
		g.exprs = append(g.exprs, x)
		return
	}
	g.seen++
	if len(g.exprs) < g.p.PlantPoolSize {
		g.exprs = append(g.exprs, x)
		return
	}
	if k := g.plantRng.Int63n(g.seen); k < int64(len(g.exprs)) {
		g.exprs[k] = x
	}
}

// Expressions generates n expressions.
func (g *Generator) Expressions(n int) []*expr.Expression {
	out := make([]*expr.Expression, n)
	for i := range out {
		out[i] = g.Expression()
	}
	return out
}

// Event generates the next event. With probability MatchFraction (and if
// any expressions were generated) the event is planted to satisfy a
// uniformly chosen earlier expression; otherwise it is random.
func (g *Generator) Event() *expr.Event {
	if len(g.exprs) > 0 && g.rng.Float64() < g.p.MatchFraction {
		if ev, ok := g.plantedEvent(g.exprs[g.rng.Intn(len(g.exprs))]); ok {
			return ev
		}
	}
	return g.randomEvent()
}

// Events generates n events.
func (g *Generator) Events(n int) []*expr.Event {
	out := make([]*expr.Event, n)
	for i := range out {
		out[i] = g.Event()
	}
	return out
}

func (g *Generator) randomEvent() *expr.Event {
	attrs := g.distinctAttrs(g.p.EventAttrs)
	pairs := make([]expr.Pair, len(attrs))
	for i, a := range attrs {
		pairs[i] = expr.Pair{Attr: a, Val: g.value()}
	}
	ev, err := expr.NewEvent(pairs...)
	if err != nil {
		panic(fmt.Sprintf("workload: generated invalid event: %v", err))
	}
	return ev
}

// plantedEvent builds an event satisfying x: one satisfying value per
// constrained attribute, padded with random attributes up to EventAttrs.
// It can fail when an attribute carries contradictory predicates
// (e.g. a=3 and a=5 drawn from the pool); the caller falls back to a
// random event.
func (g *Generator) plantedEvent(x *expr.Expression) (*expr.Event, bool) {
	vals := make(map[expr.AttrID]expr.Value)
	for _, a := range x.Attrs() {
		var ps []*expr.Predicate
		for i := range x.Preds {
			if x.Preds[i].Attr == a {
				ps = append(ps, &x.Preds[i])
			}
		}
		v, ok := g.satisfyAll(ps)
		if !ok {
			return nil, false
		}
		vals[a] = v
	}
	pairs := make([]expr.Pair, 0, g.p.EventAttrs)
	for a, v := range vals {
		pairs = append(pairs, expr.Pair{Attr: a, Val: v})
	}
	for len(pairs) < g.p.EventAttrs {
		a := g.attr()
		if _, used := vals[a]; used {
			continue
		}
		vals[a] = 0
		pairs = append(pairs, expr.Pair{Attr: a, Val: g.value()})
	}
	ev, err := expr.NewEvent(pairs...)
	if err != nil {
		return nil, false
	}
	return ev, true
}

// satisfyAll finds a value accepted by every predicate in ps, sampling
// from the first predicate's span and rejection-testing the rest.
func (g *Generator) satisfyAll(ps []*expr.Predicate) (expr.Value, bool) {
	const tries = 32
	for t := 0; t < tries; t++ {
		v, ok := g.satisfyOne(ps[0])
		if !ok {
			return 0, false
		}
		all := true
		for _, p := range ps[1:] {
			if !p.Matches(v) {
				all = false
				break
			}
		}
		if all {
			return v, true
		}
	}
	return 0, false
}

func (g *Generator) satisfyOne(p *expr.Predicate) (expr.Value, bool) {
	card := expr.Value(g.p.Cardinality)
	switch p.Op {
	case expr.EQ:
		return p.Lo, true
	case expr.Between:
		return p.Lo + expr.Value(g.rng.Int63n(int64(p.Hi-p.Lo)+1)), true
	case expr.In:
		return p.Set[g.rng.Intn(len(p.Set))], true
	case expr.LT, expr.LE, expr.GT, expr.GE, expr.NE, expr.NotIn:
		// Rejection-sample from the domain; these predicates accept large
		// portions of it so a handful of tries suffices.
		for t := 0; t < 32; t++ {
			v := expr.Value(g.rng.Int63n(int64(card)))
			if p.Matches(v) {
				return v, true
			}
		}
		return 0, false
	default:
		return 0, false
	}
}

// PlantedEventFor builds an event that satisfies x (padded with random
// attributes up to EventAttrs), for callers that need a guaranteed match
// against a specific subscription — load drivers, delivery tests,
// demos. It reports false when x carries contradictory predicates on
// one attribute or x needs more attributes than EventAttrs allows.
func (g *Generator) PlantedEventFor(x *expr.Expression) (*expr.Event, bool) {
	if len(x.Attrs()) > g.p.EventAttrs {
		return nil, false
	}
	return g.plantedEvent(x)
}
