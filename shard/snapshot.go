package shard

import (
	"errors"
	"io"
	"io/fs"
	"os"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/coldstart"
	"github.com/streammatch/apcm/trace"
)

// Persistence. A group snapshots to the same flat trace format as a
// single engine — one file, all shards concatenated — so checkpoints
// move freely between sharded and unsharded deployments (and between
// groups of different shard counts: the load side re-routes every
// subscription by the loading group's own shard count).

// SaveSubscriptions writes every live subscription across all shards to
// w as a binary trace, shard by shard. The group's write lock is held
// for the whole walk, so the snapshot is a consistent cut: no Subscribe
// or Unsubscribe lands between the declared record count and the
// records.
func (g *Group) SaveSubscriptions(w io.Writer) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return apcm.ErrClosed
	}
	total := 0
	for _, e := range g.shards {
		total += e.Len()
	}
	tw, err := trace.NewWriter(w, trace.KindExpressions, total)
	if err != nil {
		return err
	}
	for _, e := range g.shards {
		var werr error
		e.ForEachSubscription(func(x *expr.Expression) bool {
			werr = tw.WriteExpression(x)
			return werr == nil
		})
		if werr != nil {
			return werr
		}
	}
	return tw.Close()
}

// CheckpointSubscriptions persists the live subscription set of every
// shard to path, atomically (see apcm.WriteCheckpoint): a crash at any
// point leaves either the previous checkpoint or the new one, never a
// truncated or partial file.
func (g *Group) CheckpointSubscriptions(path string) error {
	return apcm.WriteCheckpoint(path, g.SaveSubscriptions)
}

// RestoreSubscriptions loads the checkpoint at path into the group. A
// missing file is not an error — a broker booting for the first time
// has no checkpoint yet — and restores nothing. It returns the number
// of subscriptions restored.
func (g *Group) RestoreSubscriptions(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	return g.LoadSubscriptions(f)
}

// LoadSubscriptions reads a trace written by SaveSubscriptions (either
// flavour: group or single engine, or by cmd/apcm-gen) and subscribes
// every expression on its owning shard. The calling goroutine reads and
// slab-decodes records and routes each to its owning shard by id;
// one insert goroutine per shard subscribes that shard's records in
// trace order, in bulk chunks (see internal/coldstart), so insertion
// parallelises across shards. The id allocator is advanced past the
// largest id read, also on a partial load, so NewID never collides with
// a restored subscription. It returns the number of subscriptions
// loaded; on error, subscriptions loaded before the failure remain
// subscribed. An insert failure (a duplicate id, say) stops loading on
// its owning shard, and the other shards finish their share of the
// trace; a record that fails to read or decode ends the load, and every
// record before it is loaded.
func (g *Group) LoadSubscriptions(r io.Reader) (int, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.closed {
		return 0, apcm.ErrClosed
	}
	lanes := make([]coldstart.Insert, len(g.shards))
	for s, e := range g.shards {
		lanes[s] = e.SubscribeBulk
	}
	var m *coldstart.Metrics
	if g.met != nil {
		m = g.met.coldstart
	}
	n, maxID, err := coldstart.Load(r, m, lanes, func(x *expr.Expression) int {
		return g.shardOf(x.ID)
	})
	g.advanceID(maxID)
	return n, err
}
