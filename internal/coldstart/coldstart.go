// Package coldstart is the one restore loop under both
// apcm.Engine.LoadSubscriptions and shard.Group.LoadSubscriptions:
//
//	caller goroutine                       one goroutine per lane
//	read + slab-decode ──route──▶ lane 0 ──▶ insert(chunk), in trace order
//	                              lane 1 ──▶ insert(chunk), in trace order
//	                              …
//
// The engine is one lane with no route; a group is one lane per shard,
// routed by its partitioning. Decoding overlaps insertion whatever the
// lane count, and a group's shards insert in parallel.
package coldstart

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/metrics"
	"github.com/streammatch/apcm/trace"
)

// chunkRecords is the insert grain: one Insert call — one engine write
// lock and one compiled-cluster batch append — per this many records.
const chunkRecords = 512

// laneQueue bounds the decoded chunks queued on each lane, so a slow
// inserter holds the reader at most this far ahead of it.
const laneQueue = 4

// Metrics holds the cold-start instruments. A nil *Metrics records
// nothing.
type Metrics struct {
	restores *metrics.Counter
	subs     *metrics.Counter
	latency  *metrics.Histogram
}

// NewMetrics registers the cold-start instruments on reg, or returns nil
// for a nil registry. Registration is get-or-create, so an engine and a
// group sharing one registry record into the same series.
func NewMetrics(reg *metrics.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		restores: reg.Counter("apcm_coldstart_restores_total", "LoadSubscriptions restores completed"),
		subs:     reg.Counter("apcm_coldstart_subscriptions_total", "subscriptions loaded by restores"),
		latency:  reg.Histogram("apcm_coldstart_latency_ns", "wall-clock time per LoadSubscriptions restore"),
	}
}

// Insert subscribes xs in order and stops at its first failure,
// returning how many it subscribed — apcm.Engine.SubscribeBulk.
type Insert func(xs []*expr.Expression) (int, error)

// lane is one insert goroutine's state. buf is the chunk the reader is
// filling; n and err belong to the lane goroutine until it exits.
type lane struct {
	ch  chan []*expr.Expression
	buf []*expr.Expression
	n   int
	err error
}

// Load reads the expression trace in r and inserts every record into
// lanes[route(x)] (lanes[0] when route is nil). Each lane inserts its
// records in trace order, in chunks of up to 512, and stops at its
// first failure while the other lanes finish their share; reading stops
// early only once every lane has failed. A record that fails to read or
// decode ends the read, and every record before it is still inserted.
//
// Load returns the number of records inserted, the largest id read —
// the caller advances its id allocator past it, also on a partial load
// — and the first error. A lane's error, lowest lane first, takes
// precedence over the reader's, which comes after every record routed.
func Load(r io.Reader, m *Metrics, lanes []Insert, route func(*expr.Expression) int) (n int, maxID expr.ID, err error) {
	if m != nil {
		start := time.Now()
		defer func() {
			m.restores.Inc()
			m.subs.Add(int64(n))
			m.latency.ObserveDuration(time.Since(start))
		}()
	}
	tr, err := trace.NewReader(r)
	if err != nil {
		return 0, 0, err
	}
	if tr.Kind() != trace.KindExpressions {
		return 0, 0, fmt.Errorf("apcm: trace holds %q records, want expressions", tr.Kind())
	}

	ls := make([]lane, len(lanes))
	var failed atomic.Int32
	var wg sync.WaitGroup
	for i := range ls {
		l := &ls[i]
		l.ch = make(chan []*expr.Expression, laneQueue)
		l.buf = make([]*expr.Expression, 0, chunkRecords)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for xs := range l.ch {
				if l.err != nil {
					continue // drain, so the reader never blocks on a failed lane
				}
				k, err := lanes[i](xs)
				l.n += k
				if err != nil {
					l.err = err
					failed.Add(1)
				}
			}
		}()
	}

	var dec expr.SlabDecoder
	var rerr error
	for int(failed.Load()) < len(ls) {
		x, err := tr.ReadExpressionSlab(&dec)
		if err != nil {
			if err != io.EOF {
				rerr = err
			}
			break
		}
		maxID = max(maxID, x.ID)
		l := &ls[0]
		if route != nil {
			l = &ls[route(x)]
		}
		l.buf = append(l.buf, x)
		if len(l.buf) == chunkRecords {
			l.ch <- l.buf
			l.buf = make([]*expr.Expression, 0, chunkRecords)
		}
	}
	for i := range ls {
		if len(ls[i].buf) > 0 {
			ls[i].ch <- ls[i].buf
		}
		close(ls[i].ch)
	}
	wg.Wait()

	for i := range ls {
		n += ls[i].n
		if err == nil {
			err = ls[i].err
		}
	}
	if err == nil {
		err = rerr
	}
	return n, maxID, err
}
