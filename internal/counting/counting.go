// Package counting implements the classic counting-based matcher (Yan &
// Garcia-Molina): an inverted index from attribute values to the
// predicates they satisfy, with one counter per expression per event.
// An expression becomes a candidate when its counter reaches its number
// of indexable predicates; candidates are then verified against their
// non-indexable residue (NE, NOT IN).
//
// Equality and membership predicates live in per-attribute hash maps;
// interval predicates live in per-attribute interval trees (itree).
// Counters use the epoch-stamp trick so no per-event clearing is needed.
package counting

import (
	"fmt"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/itree"
)

type exprInfo struct {
	x       *expr.Expression
	target  int32 // number of indexable predicates
	residue []*expr.Predicate
	deleted bool
}

type attrIndex struct {
	eq     map[expr.Value][]int32
	ranges *itree.Tree
}

// Matcher is the counting matcher. Not safe for concurrent use.
type Matcher struct {
	infos []exprInfo
	slot  map[expr.ID]int32
	attrs map[expr.AttrID]*attrIndex

	// zeroTarget lists slots whose expressions have no indexable
	// predicates; they are candidates for every event.
	zeroTarget []int32

	counters []int32
	stamps   []uint32
	epoch    uint32

	dead int
}

// New returns an empty counting matcher.
func New() *Matcher {
	return &Matcher{
		slot:  make(map[expr.ID]int32),
		attrs: make(map[expr.AttrID]*attrIndex),
	}
}

// Insert adds x to the index.
func (m *Matcher) Insert(x *expr.Expression) error {
	if _, dup := m.slot[x.ID]; dup {
		return fmt.Errorf("counting: duplicate expression id %d", x.ID)
	}
	s := int32(len(m.infos))
	info := exprInfo{x: x}
	for i := range x.Preds {
		p := &x.Preds[i]
		if !p.Indexable() {
			info.residue = append(info.residue, p)
			continue
		}
		info.target++
		m.registerPredicate(p, s)
	}
	m.infos = append(m.infos, info)
	m.counters = append(m.counters, 0)
	m.stamps = append(m.stamps, 0)
	m.slot[x.ID] = s
	if info.target == 0 {
		m.zeroTarget = append(m.zeroTarget, s)
	}
	return nil
}

func (m *Matcher) registerPredicate(p *expr.Predicate, s int32) {
	ai := m.attrs[p.Attr]
	if ai == nil {
		ai = &attrIndex{eq: make(map[expr.Value][]int32), ranges: itree.New()}
		m.attrs[p.Attr] = ai
	}
	switch p.Op {
	case expr.EQ:
		ai.eq[p.Lo] = append(ai.eq[p.Lo], s)
	case expr.In:
		// One event value hits at most one set element, so registering
		// each element separately still bumps the counter exactly once.
		for _, v := range p.Set {
			ai.eq[v] = append(ai.eq[v], s)
		}
	default:
		lo, hi := p.Span()
		ai.ranges.Insert(itree.Item{Lo: lo, Hi: hi, Payload: uint64(s)})
	}
}

// Delete tombstones the expression; the index is compacted once half the
// slots are dead.
func (m *Matcher) Delete(id expr.ID) bool {
	s, ok := m.slot[id]
	if !ok {
		return false
	}
	m.infos[s].deleted = true
	delete(m.slot, id)
	m.dead++
	if m.dead*2 > len(m.infos) {
		m.rebuild()
	}
	return true
}

// rebuild compacts tombstoned slots by reconstructing every structure
// from the live expressions.
func (m *Matcher) rebuild() {
	live := make([]*expr.Expression, 0, len(m.infos)-m.dead)
	for i := range m.infos {
		if !m.infos[i].deleted {
			live = append(live, m.infos[i].x)
		}
	}
	*m = *New()
	for _, x := range live {
		// Ids were unique before the rebuild, so re-insertion cannot fail.
		if err := m.Insert(x); err != nil {
			panic(fmt.Sprintf("counting: rebuild: %v", err))
		}
	}
}

// nextEpoch advances the counter epoch, clearing stamps on wrap-around.
func (m *Matcher) nextEpoch() {
	m.epoch++
	if m.epoch == 0 {
		for i := range m.stamps {
			m.stamps[i] = 0
		}
		m.epoch = 1
	}
}

// MatchAppend appends the ids of all matching expressions to dst.
func (m *Matcher) MatchAppend(dst []expr.ID, e *expr.Event) []expr.ID {
	m.nextEpoch()
	for _, pair := range e.Pairs() {
		ai := m.attrs[pair.Attr]
		if ai == nil {
			continue
		}
		for _, s := range ai.eq[pair.Val] {
			dst = m.bump(dst, s, e)
		}
		v := pair.Val
		ai.ranges.Stab(v, func(it itree.Item) bool {
			dst = m.bump(dst, int32(it.Payload), e)
			return true
		})
	}
	for _, s := range m.zeroTarget {
		info := &m.infos[s]
		if !info.deleted && m.verifyResidue(info, e) {
			dst = append(dst, info.x.ID)
		}
	}
	return dst
}

// bump increments slot s's counter for the current epoch and, when the
// counter reaches the slot's target, verifies the residue and appends the
// match.
func (m *Matcher) bump(dst []expr.ID, s int32, e *expr.Event) []expr.ID {
	if m.stamps[s] != m.epoch {
		m.stamps[s] = m.epoch
		m.counters[s] = 0
	}
	m.counters[s]++
	info := &m.infos[s]
	if m.counters[s] == info.target && !info.deleted && m.verifyResidue(info, e) {
		dst = append(dst, info.x.ID)
	}
	return dst
}

func (m *Matcher) verifyResidue(info *exprInfo, e *expr.Event) bool {
	for _, p := range info.residue {
		v, ok := e.Lookup(p.Attr)
		if !ok || !p.Matches(v) {
			return false
		}
	}
	return true
}

// Size returns the number of live expressions.
func (m *Matcher) Size() int { return len(m.infos) - m.dead }

// ForEach visits every live expression.
func (m *Matcher) ForEach(fn func(*expr.Expression) bool) {
	for i := range m.infos {
		if !m.infos[i].deleted && !fn(m.infos[i].x) {
			return
		}
	}
}

// MemBytes estimates the heap footprint of the index structures and of
// the expressions they keep alive.
func (m *Matcher) MemBytes() int64 {
	var b int64
	b += int64(len(m.infos)) * 64
	for i := range m.infos {
		b += m.infos[i].x.MemBytes()
	}
	b += int64(len(m.counters)+len(m.stamps)) * 4
	b += int64(len(m.slot)) * 24
	for _, ai := range m.attrs {
		for _, slots := range ai.eq {
			b += 16 + int64(len(slots))*4
		}
		b += ai.ranges.MemBytes()
	}
	return b
}
