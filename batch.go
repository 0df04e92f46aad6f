package apcm

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/osr"
)

// BatchResult receives the results of MatchBatchInto: every event's
// matched subscription ids, packed into one slice with per-event
// segments. The zero value is ready to use; reusing a BatchResult
// across calls reuses every internal buffer, so a steady-state caller
// allocates nothing.
type BatchResult struct {
	n    int
	ids  []expr.ID
	offs []int32 // event i's matches are ids[offs[2i]:offs[2i+1]]

	dedups int

	// Reusable internals of MatchBatchInto.
	perm   []int32       // locality permutation: perm[k] = original index
	sorted []*expr.Event // events in perm order
	soffs  []int32       // segment offsets in sorted order, chunk-relative
	bounds []int32       // chunk boundaries over sorted order
	chunks [][]expr.ID   // per-chunk id buffers for the parallel path
	sorter batchSorter
	xids   []expr.ID // DNF alias translation double-buffer
	xoffs  []int32
}

// Len returns the number of events in the last MatchBatchInto call.
func (r *BatchResult) Len() int { return r.n }

// For returns event i's matched subscription ids (order unspecified).
// The slice aliases the result's internal buffer — it is valid until the
// next MatchBatchInto with this result, and adjacent duplicate events
// share one backing segment. Callers that retain it must copy.
func (r *BatchResult) For(i int) []expr.ID {
	return r.ids[r.offs[2*i]:r.offs[2*i+1]:r.offs[2*i+1]]
}

// Dedups reports how many events of the last batch were answered from an
// equal event's result instead of being matched again.
func (r *BatchResult) Dedups() int { return r.dedups }

func (r *BatchResult) reset(n int) {
	r.n = n
	r.ids = r.ids[:0]
	r.perm = r.perm[:0]
	r.dedups = 0
	if cap(r.offs) < 2*n {
		r.offs = make([]int32, 2*n)
	}
	r.offs = r.offs[:2*n]
	for i := range r.offs {
		r.offs[i] = 0
	}
}

// MergeBatchResults rebuilds dst as the per-event union of parts:
// event i's merged segment is the concatenation of every part's
// segment i, in part order. Every part must hold results for the same
// event batch (equal Len; MergeBatchResults panics otherwise), which is
// exactly what a shard fan-out produces — each shard matches the whole
// batch against its partition of the subscription space, and the
// partitions are disjoint, so concatenation is the union. dst may not
// be one of parts. Its buffers are reused across calls, so a
// steady-state caller allocates nothing once capacities settle.
//
//apcm:hotpath
func MergeBatchResults(dst *BatchResult, parts []*BatchResult) {
	n := 0
	if len(parts) > 0 {
		n = parts[0].n
	}
	total := 0
	for _, p := range parts {
		if p.n != n {
			panic("apcm: MergeBatchResults over results of different batches")
		}
		total += len(p.ids)
	}
	dst.reset(n)
	if cap(dst.ids) < total {
		dst.ids = make([]expr.ID, 0, total)
	}
	dedups := 0
	for i := 0; i < n; i++ {
		start := int32(len(dst.ids))
		for _, p := range parts {
			dst.ids = append(dst.ids, p.For(i)...)
		}
		dst.offs[2*i], dst.offs[2*i+1] = start, int32(len(dst.ids))
	}
	for _, p := range parts {
		dedups += p.dedups
	}
	dst.dedups = dedups
}

// batchSorter sorts a permutation of event indexes into locality order
// (osr.Less) without sorting the caller's slice. A concrete type instead
// of sort.SliceStable keeps the sort allocation-free.
type batchSorter struct {
	events []*expr.Event
	perm   []int32
}

func (s *batchSorter) Len() int { return len(s.perm) }
func (s *batchSorter) Less(i, j int) bool {
	return osr.Less(s.events[s.perm[i]], s.events[s.perm[j]])
}
func (s *batchSorter) Swap(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] }

// batchResults recycles BatchResult values for internal callers (the
// MatchBatch compatibility wrapper and the stream layer).
var batchResults = sync.Pool{New: func() any { return new(BatchResult) }}

// minChunkEvents is the smallest per-worker chunk worth fanning a batch
// out over the pool: below this the cross-event caches lose more than
// the parallelism gains.
const minChunkEvents = 8

// MatchBatchInto matches a batch of events into r, replacing its
// previous contents. The batch is internally processed in locality order
// (see internal/osr) while that measurably pays: adjacent equal events
// are matched once, and near-equal events hit the cross-event predicate
// memo and eligibility caches, so larger batches are progressively
// cheaper per event. On workloads where the matcher's arming policies
// observe no cross-event reuse, the sort (and the caches it feeds) are
// skipped and batches cost the same per event as single matches. Results
// are reported under the caller's original event indexes regardless.
//
// With a worker pool, large batches are split into contiguous chunks
// matched concurrently (inter-event parallelism). A steady-state call
// with a reused r performs no heap allocation on the sequential path.
func (e *Engine) MatchBatchInto(events []*expr.Event, r *BatchResult) {
	if m := e.met; m != nil {
		start := time.Now()
		e.matchBatchInto(events, r)
		m.batchLatency.ObserveDuration(time.Since(start))
		m.batchSize.Observe(float64(len(events)))
		return
	}
	e.matchBatchInto(events, r)
}

func (e *Engine) matchBatchInto(events []*expr.Event, r *BatchResult) {
	n := len(events)
	r.reset(n)
	if n == 0 {
		return
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return
	}
	e.batchInto(events, r)
	if e.hasAliases() {
		r.translateSegments(e)
	}
}

// batchInto runs the matcher's batch kernel over the batch, then maps
// the kernel's segments back to original indexes. The batch is
// locality-sorted first only while the matcher's sort-arming policy
// (core.SortUseful) measures the sorted order as actually buying
// cross-event reuse; on workloads without repeats the events are fed in
// arrival order and the sort and permutation remap are skipped.
func (e *Engine) batchInto(events []*expr.Event, r *BatchResult) {
	n := len(events)
	if cap(r.perm) < n {
		r.perm = make([]int32, n)
		r.sorted = make([]*expr.Event, n)
		r.soffs = make([]int32, 2*n)
	}
	run := events
	doSort := n > 1 && e.cm.SortUseful()
	if doSort {
		perm := r.perm[:n]
		for i := range perm {
			perm[i] = int32(i)
		}
		r.sorter.events, r.sorter.perm = events, perm
		sort.Stable(&r.sorter)
		r.sorter.events, r.sorter.perm = nil, nil
		r.perm = perm
		run = r.sorted[:n]
		for k, p := range perm {
			run[k] = events[p]
		}
	}
	soffs := r.soffs[:2*n]

	nchunks := 1
	if e.pool != nil {
		nchunks = e.pool.Workers() * 4
		if maxc := n / minChunkEvents; nchunks > maxc {
			nchunks = maxc
		}
		if nchunks < 1 {
			nchunks = 1
		}
	}
	if nchunks == 1 {
		s := e.getScratch()
		var d int64
		r.ids, d = e.cm.MatchBatchAppend(s, r.ids, soffs, run, doSort)
		e.putScratch(s)
		r.dedups = int(d)
		for k := 0; k < n; k++ {
			p := k
			if doSort {
				p = int(r.perm[k])
			}
			r.offs[2*p], r.offs[2*p+1] = soffs[2*k], soffs[2*k+1]
		}
		return
	}

	// Parallel path: contiguous chunks of the kernel order, one batch
	// kernel run per chunk, merged afterwards. Chunk boundaries cost a
	// little cache sharing but keep each chunk's results contiguous.
	if cap(r.chunks) < nchunks {
		r.chunks = make([][]expr.ID, nchunks)
	}
	chunks := r.chunks[:nchunks]
	r.bounds = r.bounds[:0]
	for c := 0; c <= nchunks; c++ {
		r.bounds = append(r.bounds, int32(c*n/nchunks))
	}
	bounds := r.bounds
	var dedups atomic.Int64
	e.pool.Run(nchunks, func(c int) {
		lo, hi := bounds[c], bounds[c+1]
		s := e.getScratch()
		var d int64
		chunks[c], d = e.cm.MatchBatchAppend(s, chunks[c][:0], soffs[2*lo:2*hi], run[lo:hi], doSort)
		e.putScratch(s)
		dedups.Add(d)
	})
	r.dedups = int(dedups.Load())
	for c := 0; c < nchunks; c++ {
		base := int32(len(r.ids))
		r.ids = append(r.ids, chunks[c]...)
		lo, hi := int(bounds[c]), int(bounds[c+1])
		for k := lo; k < hi; k++ {
			p := k
			if doSort {
				p = int(r.perm[k])
			}
			r.offs[2*p], r.offs[2*p+1] = base+soffs[2*k], base+soffs[2*k+1]
		}
	}
}

// translateSegments rewrites every result segment through the DNF alias
// table (see dnf.go), de-duplicating group ids within each event.
// Shared segments (adjacent duplicate events) are translated once and
// stay shared. The rebuilt ids land in the translation double-buffer,
// which is then swapped in.
func (r *BatchResult) translateSegments(e *Engine) {
	xids := r.xids[:0]
	if cap(r.xoffs) < 2*r.n {
		r.xoffs = make([]int32, 2*r.n)
	}
	xoffs := r.xoffs[:2*r.n]
	// Walk events in sorted order when available so shared segments are
	// adjacent; equal (start,end) pairs then always mean a shared (or
	// identically empty) segment, which translates identically.
	pst, pen := int32(-1), int32(-1)
	var nst, nen int32
	for k := 0; k < r.n; k++ {
		i := k
		if len(r.perm) == r.n {
			i = int(r.perm[k])
		}
		st, en := r.offs[2*i], r.offs[2*i+1]
		if st != pst || en != pen {
			pst, pen = st, en
			nst = int32(len(xids))
			xids = e.translateAppend(xids, r.ids[st:en])
			nen = int32(len(xids))
		}
		xoffs[2*i], xoffs[2*i+1] = nst, nen
	}
	r.ids, r.xids = xids, r.ids
	r.offs, r.xoffs = xoffs, r.offs
}
