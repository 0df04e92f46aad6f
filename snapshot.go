package apcm

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/coldstart"
	"github.com/streammatch/apcm/trace"
)

// SaveSubscriptions writes every live subscription to w as a binary
// trace (see package trace), so a subscription database can be persisted
// and restored across restarts.
func (e *Engine) SaveSubscriptions(w io.Writer) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	tw, err := trace.NewWriter(w, trace.KindExpressions, e.cm.Size())
	if err != nil {
		return err
	}
	var werr error
	e.cm.ForEach(func(x *expr.Expression) bool {
		werr = tw.WriteExpression(x)
		return werr == nil
	})
	if werr != nil {
		return werr
	}
	return tw.Close()
}

// ForEachSubscription calls fn for every live subscription, in
// unspecified order, until fn returns false. The engine's read lock is
// held for the whole walk: fn must not call back into the engine.
func (e *Engine) ForEachSubscription(fn func(*expr.Expression) bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return
	}
	e.cm.ForEach(fn)
}

// CheckpointSubscriptions persists the live subscription set to path,
// atomically (see WriteCheckpoint). A crash — or a Save failure — at
// any point leaves either the previous checkpoint or the new one, never
// a truncated or partial file.
func (e *Engine) CheckpointSubscriptions(path string) error {
	return WriteCheckpoint(path, e.SaveSubscriptions)
}

// WriteCheckpoint writes a file at path atomically: write streams the
// content into a temporary file in path's directory, the file is
// fsynced, renamed over path, and the directory entry fsynced in turn.
// A crash — or a write failure — at any point leaves either the
// previous file or the complete new one, never a truncated or partial
// one. It is the persistence primitive under both
// Engine.CheckpointSubscriptions and shard.Group.CheckpointSubscriptions.
func WriteCheckpoint(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".apcm-checkpoint-*")
	if err != nil {
		return fmt.Errorf("apcm: checkpoint: %w", err)
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("apcm: checkpoint: %w", err)
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("apcm: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("apcm: checkpoint: %w", err)
	}
	// The rename is durable only once the directory entry is on disk.
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("apcm: checkpoint: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("apcm: checkpoint: %w", err)
	}
	return nil
}

// RestoreSubscriptions loads the checkpoint at path into the engine. A
// missing file is not an error — a broker booting for the first time
// has no checkpoint yet — and restores nothing. It returns the number
// of subscriptions restored; like LoadSubscriptions, a corrupt tail
// keeps the subscriptions read before the failure and still advances
// the id allocator past them.
func (e *Engine) RestoreSubscriptions(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	return e.LoadSubscriptions(f)
}

// LoadSubscriptions reads a trace written by SaveSubscriptions (or by
// cmd/apcm-gen) and subscribes every expression. The id allocator is
// advanced past the largest id read, also on a partial load, so NewID
// never collides with a restored subscription. It returns the number of
// subscriptions loaded; on error, the subscriptions before the failing
// record remain subscribed.
//
// The restore is the engine's cold-start path and is built for volume
// (see internal/coldstart): the calling goroutine reads and slab-decodes
// records (see expr.SlabDecoder) while one insert goroutine subscribes
// them in trace order, in chunks under one write lock each. The plain
// one-record-at-a-time loop it is measured against is E20's baseline in
// internal/bench (see EXPERIMENTS.md E20).
func (e *Engine) LoadSubscriptions(r io.Reader) (int, error) {
	var m *coldstart.Metrics
	if e.met != nil {
		m = e.met.coldstart
	}
	n, maxID, err := coldstart.Load(r, m, []coldstart.Insert{e.SubscribeBulk}, nil)
	e.advanceID(maxID)
	return n, err
}

// advanceID lifts the id allocator to at least id, so NewID never
// collides with a restored subscription id.
func (e *Engine) advanceID(id expr.ID) {
	for {
		cur := e.nextID.Load()
		if cur >= uint64(id) || e.nextID.CompareAndSwap(cur, uint64(id)) {
			return
		}
	}
}
