package apcm

import (
	"fmt"

	"github.com/streammatch/apcm/expr"
)

// Disjunctive (DNF) subscriptions. A subscription in disjunctive normal
// form matches an event when ANY of its conjunctions does; the engine
// registers one internal expression per conjunction and reports the
// group id exactly once per matching event.

// SubscribeAny indexes a subscription that matches when any of the
// given conjunctions matches. It returns the group id under which
// matches are reported; Unsubscribe with that id removes the whole
// group. Group ids come from the same allocator as NewID, so combine
// SubscribeAny only with NewID/SubscribePreds-style id management
// (explicit caller-chosen ids may collide).
func (e *Engine) SubscribeAny(conjunctions ...[]expr.Predicate) (expr.ID, error) {
	if len(conjunctions) == 0 {
		return 0, fmt.Errorf("apcm: subscription with no conjunctions")
	}
	// Validate every disjunct before touching the index so failure leaves
	// no partial group behind.
	groupID := e.NewID()
	exprs := make([]*expr.Expression, 0, len(conjunctions))
	for i, conj := range conjunctions {
		x, err := expr.New(e.NewID(), conj...)
		if err != nil {
			return 0, fmt.Errorf("conjunction %d: %w", i, err)
		}
		if e.opts.Normalize {
			nx, ok := x.Normalize()
			if !ok {
				// An unsatisfiable disjunct contributes nothing.
				continue
			}
			x = nx
		}
		exprs = append(exprs, x)
	}
	if len(exprs) == 0 {
		return 0, ErrUnsatisfiable
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return 0, ErrClosed
	}
	inserted := make([]expr.ID, 0, len(exprs))
	for _, x := range exprs {
		if err := e.cm.Insert(x); err != nil {
			// Roll back the partial group.
			for _, id := range inserted {
				e.cm.Delete(id)
			}
			return 0, err
		}
		inserted = append(inserted, x.ID)
	}
	if e.groups == nil {
		e.groups = make(map[expr.ID][]expr.ID)
		e.alias = make(map[expr.ID]expr.ID)
	}
	e.groups[groupID] = inserted
	for _, id := range inserted {
		e.alias[id] = groupID
	}
	return groupID, nil
}

// unsubscribeGroupLocked removes a whole DNF group; the caller holds the
// write lock. It reports whether id named a group.
func (e *Engine) unsubscribeGroupLocked(id expr.ID) (bool, bool) {
	members, ok := e.groups[id]
	if !ok {
		return false, false
	}
	all := true
	for _, m := range members {
		if !e.cm.Delete(m) {
			all = false
		}
		delete(e.alias, m)
	}
	delete(e.groups, id)
	return true, all
}

// dedupLinearMax bounds the result sizes de-duplicated by linear scan:
// below it the scan beats allocating a map, and typical per-event match
// lists are far smaller.
const dedupLinearMax = 32

// translate rewrites raw match ids through the DNF alias table,
// de-duplicating group ids that matched through several disjuncts. It
// is called with at least a read lock held and only when aliases exist.
func (e *Engine) translate(ids []expr.ID) []expr.ID {
	if len(ids) <= dedupLinearMax {
		out := ids[:0]
		for _, id := range ids {
			if g, ok := e.alias[id]; ok {
				id = g
			}
			if !containsID(out, id) {
				out = append(out, id)
			}
		}
		return out
	}
	seen := make(map[expr.ID]bool, len(ids))
	out := ids[:0]
	for _, id := range ids {
		if g, ok := e.alias[id]; ok {
			id = g
		}
		if seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, id)
	}
	return out
}

// translateAppend is translate in append style for the batch path: the
// translated, de-duplicated ids are appended to dst (which must not
// alias ids) and the extended slice returned.
func (e *Engine) translateAppend(dst []expr.ID, ids []expr.ID) []expr.ID {
	head := len(dst)
	if len(ids) <= dedupLinearMax {
		for _, id := range ids {
			if g, ok := e.alias[id]; ok {
				id = g
			}
			if !containsID(dst[head:], id) {
				dst = append(dst, id)
			}
		}
		return dst
	}
	seen := make(map[expr.ID]bool, len(ids))
	for _, id := range ids {
		if g, ok := e.alias[id]; ok {
			id = g
		}
		if !seen[id] {
			seen[id] = true
			dst = append(dst, id)
		}
	}
	return dst
}

func containsID(ids []expr.ID, id expr.ID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// hasAliases reports whether any DNF groups are live; callers hold at
// least a read lock.
func (e *Engine) hasAliases() bool { return len(e.alias) > 0 }
