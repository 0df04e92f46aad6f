// Package osr implements online stream re-ordering (OSR): sorting a
// bounded window of incoming events by index locality, so that
// consecutive events traverse the same partitions and clusters.
//
// Locality order is lexicographic over the event's sorted
// (attribute, value) pairs: events sharing an attribute-set prefix — and
// therefore an index descent prefix — become adjacent. The caller picks
// the window by the slices it passes to Reorder.
package osr

import (
	"sort"

	"github.com/streammatch/apcm/expr"
)

// Less is the locality order: lexicographic comparison of the events'
// sorted pair lists (attribute first, then value).
func Less(a, b *expr.Event) bool {
	ap, bp := a.Pairs(), b.Pairs()
	n := len(ap)
	if len(bp) < n {
		n = len(bp)
	}
	for i := 0; i < n; i++ {
		if ap[i].Attr != bp[i].Attr {
			return ap[i].Attr < bp[i].Attr
		}
		if ap[i].Val != bp[i].Val {
			return ap[i].Val < bp[i].Val
		}
	}
	return len(ap) < len(bp)
}

// Reorder sorts events in place into locality order. The sort is stable
// so equal-signature events keep their arrival order.
func Reorder(events []*expr.Event) {
	sort.SliceStable(events, func(i, j int) bool { return Less(events[i], events[j]) })
}
