package apcm

import (
	"sync"
	"time"

	"github.com/streammatch/apcm/expr"
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

	// Reusable internals of MatchBatchInto.
	bounds []int32     // chunk boundaries over the batch
	chunks [][]expr.ID // per-chunk id buffers for the parallel path
}

// Len returns the number of events in the last MatchBatchInto call.
func (r *BatchResult) Len() int { return r.n }

// For returns event i's matched subscription ids (order unspecified).
// The slice aliases the result's internal buffer — it is valid until the
// next MatchBatchInto with this result. Callers that retain it must
// copy.
func (r *BatchResult) For(i int) []expr.ID {
	return r.ids[r.offs[2*i]:r.offs[2*i+1]:r.offs[2*i+1]]
}

func (r *BatchResult) reset(n int) {
	r.n = n
	r.ids = r.ids[:0]
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
	for i := 0; i < n; i++ {
		start := int32(len(dst.ids))
		for _, p := range parts {
			dst.ids = append(dst.ids, p.For(i)...)
		}
		dst.offs[2*i], dst.offs[2*i+1] = start, int32(len(dst.ids))
	}
}

// batchResults recycles BatchResult values for the MatchBatch
// compatibility wrapper.
var batchResults = sync.Pool{New: func() any { return new(BatchResult) }}

// minChunkEvents is the smallest per-worker chunk worth fanning a batch
// out over the pool.
const minChunkEvents = 8

// MatchBatchInto matches a batch of events into r, replacing its
// previous contents: event i's result is r.For(i), exactly what
// Match(events[i]) returns. With a worker pool, large batches are split
// into contiguous chunks matched concurrently (inter-event
// parallelism). A steady-state call with a reused r performs no heap
// allocation on the sequential path.
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
}

// matchRun matches events in order on one scratch, appending every
// match to ids and recording event i's segment as offs[2i] (start) and
// offs[2i+1] (end).
func (e *Engine) matchRun(ids []expr.ID, offs []int32, events []*expr.Event) []expr.ID {
	s := e.getScratch()
	for i, ev := range events {
		offs[2*i] = int32(len(ids))
		ids = e.cm.MatchWith(s, ids, ev)
		offs[2*i+1] = int32(len(ids))
	}
	e.putScratch(s)
	return ids
}

// batchInto matches the batch on the caller, or in contiguous chunks on
// the pool when there is one and the batch is large enough.
func (e *Engine) batchInto(events []*expr.Event, r *BatchResult) {
	n := len(events)
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
		r.ids = e.matchRun(r.ids, r.offs, events)
		return
	}

	// Parallel path: one run per chunk into its own id buffer, writing
	// its events' offsets relative to that buffer; the merge appends the
	// buffers and rebases the offsets.
	if cap(r.chunks) < nchunks {
		r.chunks = make([][]expr.ID, nchunks)
	}
	chunks := r.chunks[:nchunks]
	r.bounds = r.bounds[:0]
	for c := 0; c <= nchunks; c++ {
		r.bounds = append(r.bounds, int32(c*n/nchunks))
	}
	bounds := r.bounds
	e.pool.Run(nchunks, func(c int) {
		lo, hi := bounds[c], bounds[c+1]
		chunks[c] = e.matchRun(chunks[c][:0], r.offs[2*lo:2*hi], events[lo:hi])
	})
	for c := 0; c < nchunks; c++ {
		base := int32(len(r.ids))
		r.ids = append(r.ids, chunks[c]...)
		for k := 2 * bounds[c]; k < 2*bounds[c+1]; k++ {
			r.offs[k] += base
		}
	}
}
