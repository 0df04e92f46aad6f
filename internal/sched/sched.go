// Package sched provides the engine's parallel executor: a pool of
// persistent worker goroutines that execute index ranges with an atomic
// cursor. It serves the inter-event axis — MatchBatchInto's event
// chunks, Prepare's cluster compilations and shard.Group's per-shard
// fan-out. A single-event Match runs on its caller and never reaches
// the pool.
//
// Run hands out fixed grains of the index space: each run aims for
// grainFactor chunks per worker lane, so a slow item costs its lane at
// most one grain while the other lanes keep stealing.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// grainFactor is the number of chunks per worker lane a run aims for.
// Runs of fewer than 8·workers items — batch chunks (at most
// 4·workers) and shard fan-outs — get a grain of one item.
const grainFactor = 8

// Pool is a fixed set of worker goroutines. Create with NewPool, release
// with Close. Run may be called concurrently from multiple goroutines;
// jobs are interleaved across the same workers.
type Pool struct {
	workers int
	jobs    chan *job
	done    sync.WaitGroup
	closed  atomic.Bool

	// Observability: Run invocations and per-lane items executed. Lane w
	// belongs to worker goroutine w; lane `workers` counts items drained
	// inline by calling goroutines. Counters are cache-line padded so the
	// hot drain loop never false-shares across workers.
	runs  atomic.Int64
	items []laneCount

	// jobPool recycles job descriptors: a steady-state Run performs no
	// heap allocation.
	jobPool sync.Pool
}

// laneCount is an atomic counter padded to a cache line.
type laneCount struct {
	n atomic.Int64
	_ [56]byte
}

type job struct {
	p      *Pool
	fn     func(idx int)
	cursor atomic.Int64
	total  int64
	grain  int64
	wg     sync.WaitGroup
}

// NewPool returns a pool with the given number of workers; zero or
// negative means GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The job channel is buffered so that offering copies never depends
	// on workers being parked at the receive yet (they may not have been
	// scheduled at all right after NewPool on a loaded machine).
	p := &Pool{workers: workers, jobs: make(chan *job, workers), items: make([]laneCount, workers+1)}
	p.done.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker(w)
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

func (p *Pool) worker(w int) {
	defer p.done.Done()
	for j := range p.jobs {
		j.drain(w)
		j.wg.Done()
	}
}

// drain runs grains off the job's cursor until it is exhausted,
// counting the items into lane w.
func (j *job) drain(w int) {
	var n int64
	for {
		start := j.cursor.Add(j.grain) - j.grain
		if start >= j.total {
			break
		}
		end := min(start+j.grain, j.total)
		for i := start; i < end; i++ {
			j.fn(int(i))
		}
		n += end - start
	}
	if n != 0 {
		// One add per drain, not per item, keeps counting off the hot path.
		j.p.items[w].n.Add(n)
	}
}

// Run executes fn(idx) for every idx in [0, total), distributing grains
// across the pool, and blocks until all complete. The calling goroutine
// participates, so Run(total, fn) with a single-worker pool still makes
// progress even under pool contention. fn must be safe for concurrent
// invocation with distinct idx.
func (p *Pool) Run(total int, fn func(idx int)) {
	if total <= 0 {
		return
	}
	p.runs.Add(1)
	// Late callers on a closed pool degrade to inline execution rather
	// than deadlock.
	if p.closed.Load() || total == 1 || p.workers == 1 {
		for i := 0; i < total; i++ {
			fn(i)
		}
		p.items[p.workers].n.Add(int64(total))
		return
	}
	j, _ := p.jobPool.Get().(*job)
	if j == nil {
		j = &job{p: p}
	}
	j.fn = fn
	j.cursor.Store(0)
	j.total = int64(total)
	j.grain = max(int64(total)/(int64(p.workers)*grainFactor), 1)
	// Enqueue one job copy per worker (fewer if the queue backs up under
	// concurrent Runs — the caller covers the difference by draining).
	// Each delivered copy is Done'd exactly once by its receiver; a copy
	// received after the cursor is exhausted drains as a no-op.
offer:
	for i := 0; i < min(total, p.workers); i++ {
		j.wg.Add(1)
		select {
		case p.jobs <- j:
		default:
			j.wg.Add(-1)
			break offer
		}
	}
	// The caller participates as lane p.workers, so a busy pool never
	// stalls it. Reuse after wg.Wait is safe: every offered copy has been
	// received and Done'd by then, so no worker still references j.
	j.drain(p.workers)
	j.wg.Wait()
	j.fn = nil
	p.jobPool.Put(j)
}

// Stats is an observability snapshot of the pool.
type Stats struct {
	Workers    int
	QueueDepth int // job copies waiting in the queue right now
	Runs       int64
	// WorkerItems[w] is the number of task items lane w has executed;
	// the last lane counts items drained inline by calling goroutines.
	// Imbalance across lanes reveals skewed task costs or an
	// under-subscribed pool.
	WorkerItems []int64
}

// Stats snapshots the pool's counters. Safe to call concurrently with
// Run; the per-lane values are individually atomic, not a consistent
// cut.
func (p *Pool) Stats() Stats {
	st := Stats{
		Workers:     p.workers,
		QueueDepth:  len(p.jobs),
		Runs:        p.runs.Load(),
		WorkerItems: make([]int64, len(p.items)),
	}
	for i := range p.items {
		st.WorkerItems[i] = p.items[i].n.Load()
	}
	return st
}

// Close stops the workers. Run observed to start after Close executes
// inline. Close must not be called concurrently with Run; the engine
// enforces this with its writer lock.
func (p *Pool) Close() {
	if p.closed.CompareAndSwap(false, true) {
		close(p.jobs)
		p.done.Wait()
	}
}
