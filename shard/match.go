package shard

import (
	"runtime"
	"time"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
)

// The fan-out hot path. Every event visits every shard (a match can
// live anywhere), so one Match on the group is N engine matches plus a
// merge. The per-call state — per-shard destination slices or batch
// results — lives in pooled job values whose run callback is a method
// value bound once at construction, so a steady-state fan-out allocates
// nothing: no closures, no fresh slices, and no timestamps unless
// metrics are attached.

// fanJob is the pooled per-call state of the single-event fan-out.
type fanJob struct {
	g     *Group
	ev    *expr.Event
	parts [][]expr.ID // per-shard results, capacity retained across calls
	run   func(s int) // bound to matchShard once; reused
}

func newFanJob(g *Group) *fanJob {
	j := &fanJob{g: g, parts: make([][]expr.ID, len(g.shards))}
	j.run = j.matchShard
	return j
}

// matchShard matches the job's event on shard s into the shard's part
// slice.
//
//apcm:hotpath
func (j *fanJob) matchShard(s int) {
	j.parts[s] = j.g.shards[s].MatchAppend(j.parts[s][:0], j.ev)
}

// mergeInto appends every shard's result segment to dst in shard order.
// dst carries caller capacity; the per-shard parts keep theirs for the
// next fan-out.
//
//apcm:hotpath
func (j *fanJob) mergeInto(dst []expr.ID) []expr.ID {
	for s := range j.parts {
		dst = append(dst, j.parts[s]...)
	}
	return dst
}

// runFan executes fn for every shard: across the worker pool normally,
// inline on the calling goroutine when the host has a single
// schedulable core. With GOMAXPROCS=1 the pool's lanes just time-slice
// one core, so the fan-out would pay goroutine handoff and wakeup
// latency per event for zero parallelism — measurably slower than the
// plain loop (see EXPERIMENTS.md E19, the subs=100k/shards=2 anomaly).
func (g *Group) runFan(fn func(s int)) {
	if runtime.GOMAXPROCS(0) == 1 {
		for s := range g.shards {
			fn(s)
		}
		return
	}
	g.pool.Run(len(g.shards), fn)
}

// Match returns the ids of all subscriptions matching ev across every
// shard (order unspecified). On a closed group it returns nil.
func (g *Group) Match(ev *expr.Event) []expr.ID {
	return g.MatchAppend(nil, ev)
}

// MatchAppend appends the ids of all subscriptions matching ev — on any
// shard — to dst and returns it. The event is fanned out to every shard
// over the group's worker pool and the per-shard results merged in
// shard order. A steady-state call with presized dst performs no heap
// allocation.
func (g *Group) MatchAppend(dst []expr.ID, ev *expr.Event) []expr.ID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.closed {
		return dst
	}
	if len(g.shards) == 1 {
		return g.shards[0].MatchAppend(dst, ev)
	}
	j := g.fanJobs.Get().(*fanJob)
	j.ev = ev
	if m := g.met; m != nil {
		start := time.Now()
		g.runFan(j.run)
		fanned := time.Now()
		dst = j.mergeInto(dst)
		m.fanLatency.ObserveDuration(fanned.Sub(start))
		m.mergeLatency.ObserveDuration(time.Since(fanned))
		m.countEvents(1)
	} else {
		g.runFan(j.run)
		dst = j.mergeInto(dst)
	}
	j.ev = nil
	g.fanJobs.Put(j)
	return dst
}

// batchJob is the pooled per-call state of the batch fan-out: one
// reused BatchResult per shard, filled by that shard's batch kernel
// over the whole event batch.
type batchJob struct {
	g      *Group
	events []*expr.Event
	parts  []*apcm.BatchResult
	run    func(s int)
}

func newBatchJob(g *Group) *batchJob {
	j := &batchJob{g: g, parts: make([]*apcm.BatchResult, len(g.shards))}
	for s := range j.parts {
		j.parts[s] = new(apcm.BatchResult)
	}
	j.run = j.matchShard
	return j
}

func (j *batchJob) matchShard(s int) {
	j.g.shards[s].MatchBatchInto(j.events, j.parts[s])
}

// MatchBatchInto matches a batch of events against every shard into r,
// replacing its previous contents. Each shard runs its own batch path
// over the whole batch, exactly as a single engine does, and the
// per-shard segments are merged per event by apcm.MergeBatchResults. A steady-state call
// with a reused r performs no heap allocation.
func (g *Group) MatchBatchInto(events []*expr.Event, r *apcm.BatchResult) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.closed {
		// Shard 0 is closed too: r comes back sized to the batch with
		// every segment empty, exactly as a closed engine reports it.
		g.shards[0].MatchBatchInto(events, r)
		return
	}
	if len(g.shards) == 1 {
		g.shards[0].MatchBatchInto(events, r)
		return
	}
	j := g.batchJobs.Get().(*batchJob)
	j.events = events
	if m := g.met; m != nil {
		start := time.Now()
		g.runFan(j.run)
		fanned := time.Now()
		apcm.MergeBatchResults(r, j.parts)
		m.fanLatency.ObserveDuration(fanned.Sub(start))
		m.mergeLatency.ObserveDuration(time.Since(fanned))
		m.countEvents(len(events))
	} else {
		g.runFan(j.run)
		apcm.MergeBatchResults(r, j.parts)
	}
	j.events = nil
	g.batchJobs.Put(j)
}
