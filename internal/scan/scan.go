// Package scan implements the naive sequential matcher: every event is
// interpreted against every indexed expression with per-predicate
// short-circuiting. It is the correctness oracle for the equivalence
// tests and the lower baseline in every experiment.
package scan

import (
	"fmt"

	"github.com/streammatch/apcm/expr"
)

// Matcher is the naive scan matcher. The zero value is not usable; call
// New.
type Matcher struct {
	exprs []*expr.Expression
	pos   map[expr.ID]int // id -> index in exprs
}

// New returns an empty scan matcher.
func New() *Matcher {
	return &Matcher{pos: make(map[expr.ID]int)}
}

// Insert adds x to the matcher.
func (m *Matcher) Insert(x *expr.Expression) error {
	if _, dup := m.pos[x.ID]; dup {
		return fmt.Errorf("scan: duplicate expression id %d", x.ID)
	}
	m.pos[x.ID] = len(m.exprs)
	m.exprs = append(m.exprs, x)
	return nil
}

// Delete removes the expression with the given id via swap-remove.
func (m *Matcher) Delete(id expr.ID) bool {
	i, ok := m.pos[id]
	if !ok {
		return false
	}
	last := len(m.exprs) - 1
	m.exprs[i] = m.exprs[last]
	m.pos[m.exprs[i].ID] = i
	m.exprs = m.exprs[:last]
	delete(m.pos, id)
	return true
}

// MatchAppend appends the ids of all expressions matching e to dst.
func (m *Matcher) MatchAppend(dst []expr.ID, e *expr.Event) []expr.ID {
	for _, x := range m.exprs {
		if x.MatchesEvent(e) {
			dst = append(dst, x.ID)
		}
	}
	return dst
}

// Size returns the number of indexed expressions.
func (m *Matcher) Size() int { return len(m.exprs) }

// ForEach visits every indexed expression.
func (m *Matcher) ForEach(fn func(*expr.Expression) bool) {
	for _, x := range m.exprs {
		if !fn(x) {
			return
		}
	}
}

// MemBytes estimates the heap footprint: slice headers, map entries and
// the expressions' predicate storage.
func (m *Matcher) MemBytes() int64 {
	var b int64
	for _, x := range m.exprs {
		b += x.MemBytes()
	}
	b += int64(len(m.exprs)) * 8 // exprs slice
	b += int64(len(m.pos)) * 24  // rough map entry cost
	return b
}
