// Package kindex implements the k-index (Whang et al., "Indexing
// Boolean Expressions", VLDB 2009), the classic posting-list matcher
// for conjunctive Boolean expressions and the second established
// baseline (besides the counting index) that the BE-Tree line of work
// compares against.
//
// Subscriptions are partitioned by k — their number of equality
// predicates. Partition k keeps one posting list per distinct equality
// predicate (attribute = value), holding the partition-local slots of
// the subscriptions containing it, sorted ascending. An event turns
// into one posting list per event pair; a subscription in partition k
// is a candidate iff its slot occurs in at least k of those lists,
// found by the paper's sorted-list intersection: order the list heads,
// test whether the 1st and k-th heads agree, and otherwise skip the
// lagging lists forward with binary search. Candidates are verified
// against their full predicate set (ranges, IN, negations — which the
// k-index does not index — plus attribute presence).
//
// The k = 0 partition (subscriptions with no equality predicate) must
// be verified for every event; this is the k-index's well-known
// weakness on range-heavy workloads and is reproduced faithfully.
package kindex

import (
	"fmt"
	"sort"

	"github.com/streammatch/apcm/expr"
)

type partition struct {
	k    int
	subs []*expr.Expression // slot-indexed
	dead []bool
	// posts maps a canonical equality-predicate key to the sorted slots
	// of subscriptions containing that predicate.
	posts   map[string][]int32
	deleted int
}

// Matcher is the k-index. Not safe for concurrent use.
type Matcher struct {
	parts map[int]*partition
	loc   map[expr.ID]struct {
		k    int
		slot int32
	}
	// scratch for the per-event intersection.
	lists []listCursor
}

type listCursor struct {
	slots []int32
	pos   int
}

// New returns an empty k-index.
func New() *Matcher {
	return &Matcher{
		parts: make(map[int]*partition),
		loc: make(map[expr.ID]struct {
			k    int
			slot int32
		}),
	}
}

// eqKeys returns the distinct canonical keys of x's equality
// predicates. A repeated equality predicate is semantically one
// constraint, so it must key one posting-list entry and count once
// toward k; counting it twice would make the subscription unmatchable.
func eqKeys(x *expr.Expression) []string {
	var keys []string
	var buf []byte
	for i := range x.Preds {
		pr := &x.Preds[i]
		if pr.Op != expr.EQ {
			continue
		}
		buf = expr.AppendPredicate(buf[:0], pr)
		dup := false
		for _, k := range keys {
			if k == string(buf) {
				dup = true
				break
			}
		}
		if !dup {
			keys = append(keys, string(buf))
		}
	}
	return keys
}

// Insert adds x to the index.
func (m *Matcher) Insert(x *expr.Expression) error {
	if _, dup := m.loc[x.ID]; dup {
		return fmt.Errorf("kindex: duplicate expression id %d", x.ID)
	}
	m.add(x)
	return nil
}

// add places x into its k-partition; shared by Insert and rebuild.
func (m *Matcher) add(x *expr.Expression) {
	keys := eqKeys(x)
	k := len(keys)
	p := m.parts[k]
	if p == nil {
		p = &partition{k: k, posts: make(map[string][]int32)}
		m.parts[k] = p
	}
	slot := int32(len(p.subs))
	p.subs = append(p.subs, x)
	p.dead = append(p.dead, false)
	for _, key := range keys {
		// Slots are assigned in increasing order, so appending keeps each
		// posting list sorted and duplicate-free.
		p.posts[key] = append(p.posts[key], slot)
	}
	m.loc[x.ID] = struct {
		k    int
		slot int32
	}{k, slot}
}

// Delete tombstones the expression; a partition is compacted once half
// of its slots are dead.
func (m *Matcher) Delete(id expr.ID) bool {
	at, ok := m.loc[id]
	if !ok {
		return false
	}
	p := m.parts[at.k]
	p.dead[at.slot] = true
	p.deleted++
	delete(m.loc, id)
	if p.deleted*2 > len(p.subs) {
		m.rebuild(p)
	}
	return true
}

func (m *Matcher) rebuild(p *partition) {
	live := make([]*expr.Expression, 0, len(p.subs)-p.deleted)
	for i, x := range p.subs {
		if !p.dead[i] {
			live = append(live, x)
		}
	}
	m.parts[p.k] = &partition{k: p.k, posts: make(map[string][]int32)}
	for _, x := range live {
		m.add(x)
	}
}

// MatchAppend appends the ids of all matching expressions to dst.
func (m *Matcher) MatchAppend(dst []expr.ID, e *expr.Event) []expr.ID {
	var key []byte
	for _, p := range m.parts {
		if p.k == 0 {
			// No equality predicates to key on: verify everything.
			for i, x := range p.subs {
				if !p.dead[i] && x.MatchesEvent(e) {
					dst = append(dst, x.ID)
				}
			}
			continue
		}
		// Gather the posting lists selected by the event's pairs.
		m.lists = m.lists[:0]
		for _, pair := range e.Pairs() {
			pr := expr.Eq(pair.Attr, pair.Val)
			key = expr.AppendPredicate(key[:0], &pr)
			if slots := p.posts[string(key)]; len(slots) > 0 {
				m.lists = append(m.lists, listCursor{slots: slots})
			}
		}
		if len(m.lists) < p.k {
			continue
		}
		dst = p.intersect(m.lists, e, dst)
	}
	return dst
}

// intersect reports every slot occurring in at least p.k of the lists,
// verifying each candidate before emitting. Lists are sorted ascending
// and duplicate-free (a subscription carries one equality per
// attribute-value, and event pairs are distinct).
func (p *partition) intersect(lists []listCursor, e *expr.Event, dst []expr.ID) []expr.ID {
	k := p.k
	for {
		// Order the heads so that heads[0] is the smallest current slot
		// and heads[k-1] the k-th smallest. Lists are few (≤ event
		// width), so sorting heads each round is cheap and matches the
		// paper's presentation.
		live := lists[:0]
		for _, lc := range lists {
			if lc.pos < len(lc.slots) {
				live = append(live, lc)
			}
		}
		lists = live
		if len(lists) < k {
			return dst
		}
		sort.Slice(lists, func(i, j int) bool {
			return lists[i].slots[lists[i].pos] < lists[j].slots[lists[j].pos]
		})
		pivot := lists[k-1].slots[lists[k-1].pos]
		if lists[0].slots[lists[0].pos] == pivot {
			// Slot `pivot` occurs in the first k lists: candidate.
			if !p.dead[pivot] {
				x := p.subs[pivot]
				if x.MatchesEvent(e) {
					dst = append(dst, x.ID)
				}
			}
			// Advance every list positioned at the pivot.
			for i := range lists {
				lc := &lists[i]
				if lc.slots[lc.pos] == pivot {
					lc.pos++
				}
			}
			continue
		}
		// Skip the lagging lists forward to the pivot with binary search.
		for i := 0; i < k-1; i++ {
			lc := &lists[i]
			cur := lc.slots[lc.pos:]
			lc.pos += sort.Search(len(cur), func(j int) bool { return cur[j] >= pivot })
		}
	}
}

// Size returns the number of live expressions.
func (m *Matcher) Size() int { return len(m.loc) }

// ForEach visits every live expression.
func (m *Matcher) ForEach(fn func(*expr.Expression) bool) {
	for _, p := range m.parts {
		for i, x := range p.subs {
			if !p.dead[i] && !fn(x) {
				return
			}
		}
	}
}

// MemBytes estimates the heap footprint of the index structures and of
// the expressions they keep alive.
func (m *Matcher) MemBytes() int64 {
	var b int64
	b += int64(len(m.loc)) * 32
	for _, p := range m.parts {
		b += int64(len(p.subs))*9 + 64
		for _, x := range p.subs {
			b += x.MemBytes()
		}
		for key, slots := range p.posts {
			b += int64(len(key)) + 16 + int64(len(slots))*4
		}
	}
	return b
}
