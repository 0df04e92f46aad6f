package apcm

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/trace"
)

// SaveSubscriptions writes every live subscription to w as a binary
// trace (see package trace), so a subscription database can be persisted
// and restored across restarts. Engines holding DNF groups cannot be
// snapshotted (the flat trace format has no group structure); Save
// returns an error rather than silently flattening them.
func (e *Engine) SaveSubscriptions(w io.Writer) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	if len(e.groups) > 0 {
		return fmt.Errorf("apcm: cannot snapshot an engine with DNF subscriptions")
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
// held for the whole walk: fn must not call back into the engine. On an
// engine holding DNF groups the walk visits the internal
// per-conjunction expressions, not the groups.
func (e *Engine) ForEachSubscription(fn func(*expr.Expression) bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return
	}
	e.cm.ForEach(fn)
}

// CheckpointSubscriptions persists the live subscription set to path,
// atomically (see WriteCheckpoint). A crash — or a Save failure such as
// an engine holding DNF groups — at any point leaves either the
// previous checkpoint or the new one, never a truncated or partial
// file.
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

// Cold-start load tuning. Records are subscribed in chunks — one write
// lock and one compiled-cluster batch append per chunk — and the
// pipelined path ships raw byte chunks of the same grain from the
// reader goroutine to the decode workers.
const (
	loadChunkRecords = 512
	loadChunkBytes   = 64 << 10
)

// LoadSubscriptions reads a trace written by SaveSubscriptions (or by
// cmd/apcm-gen) and subscribes every expression. The id allocator is
// advanced past the largest loaded id so NewID never collides with a
// restored subscription. It returns the number of subscriptions loaded;
// on error, subscriptions read before the failure remain subscribed.
//
// The restore is the engine's cold-start path and is built for volume:
// expressions decode through slab allocation (see expr.SlabDecoder) and
// subscribe in chunks under one write lock each, and on multi-core
// hosts reading, decoding and index insertion run as a pipeline —
// a reader goroutine streams raw records to parallel decode workers
// while the caller inserts decoded chunks in trace order. The plain
// one-record-at-a-time loop it is measured against is E20's baseline in
// internal/bench (see EXPERIMENTS.md E20).
func (e *Engine) LoadSubscriptions(r io.Reader) (int, error) {
	done := e.coldstartBegin()
	n, err := e.loadSubscriptions(r)
	done(n)
	return n, err
}

// coldstartBegin starts cold-start instrumentation and returns the
// completion hook. A nil metrics registry costs one nil check.
func (e *Engine) coldstartBegin() func(n int) {
	m := e.met
	if m == nil {
		return func(int) {}
	}
	start := time.Now()
	return func(n int) {
		m.coldstartRestores.Inc()
		m.coldstartSubs.Add(int64(n))
		m.coldstartLatency.ObserveDuration(time.Since(start))
	}
}

// idAdvancer returns a deferred allocator bump: advance past every
// restored id — also on a partial load, so NewID never collides with a
// subscription that survived a failed restore.
func (e *Engine) idAdvancer(maxID *expr.ID) func() {
	return func() {
		for {
			cur := e.nextID.Load()
			if cur >= uint64(*maxID) || e.nextID.CompareAndSwap(cur, uint64(*maxID)) {
				return
			}
		}
	}
}

func (e *Engine) loadSubscriptions(r io.Reader) (int, error) {
	tr, err := trace.NewReader(r)
	if err != nil {
		return 0, err
	}
	if tr.Kind() != trace.KindExpressions {
		return 0, fmt.Errorf("apcm: trace holds %q records, want expressions", tr.Kind())
	}
	workers := loadDecodeWorkers()
	if workers <= 1 {
		return e.loadChunked(tr)
	}
	return e.loadPipelined(tr, workers)
}

// loadDecodeWorkers sizes the pipelined restore: the reader and the
// inserter occupy one core between them, decode workers take the rest,
// and past a handful of decoders the single inserter is the bottleneck
// anyway. On a single-core host the pipeline would only add scheduling
// overhead, so the chunked inline path runs instead.
func loadDecodeWorkers() int {
	n := runtime.GOMAXPROCS(0) - 1
	if n > 4 {
		n = 4
	}
	return n
}

// loadChunked is the single-goroutine restore: slab-decoded records
// accumulate into chunks subscribed under one write lock each.
func (e *Engine) loadChunked(tr *trace.Reader) (int, error) {
	n := 0
	var maxID expr.ID
	defer e.idAdvancer(&maxID)()
	var dec expr.SlabDecoder
	chunk := make([]*expr.Expression, 0, loadChunkRecords)
	flush := func() error {
		k, err := e.SubscribeBulk(chunk)
		for _, x := range chunk[:k] {
			if x.ID > maxID {
				maxID = x.ID
			}
		}
		n += k
		chunk = chunk[:0]
		return err
	}
	for {
		x, err := tr.ReadExpressionSlab(&dec)
		if err == io.EOF {
			break
		}
		if err != nil {
			if ferr := flush(); ferr != nil {
				return n, ferr
			}
			return n, err
		}
		chunk = append(chunk, x)
		if len(chunk) == loadChunkRecords {
			if err := flush(); err != nil {
				return n, err
			}
		}
	}
	return n, flush()
}

// rawChunk is a batch of undecoded records on the reader→decoder hop:
// buf holds the concatenated payloads, ends the cumulative end offset
// of each record. seq is the chunk's position in trace order.
type rawChunk struct {
	seq  int
	buf  []byte
	ends []int
}

// decChunk is a batch of decoded expressions on the decoder→inserter
// hop. err, when non-nil, is the decode failure on the record after
// xs — the records before it decoded cleanly and are still loaded,
// matching the sequential path's stop-at-first-bad-record semantics.
type decChunk struct {
	seq int
	xs  []*expr.Expression
	err error
}

// loadPipelined is the multi-core restore: a reader goroutine streams
// raw record chunks, workers decode them in parallel (each with its own
// slab decoder), and the calling goroutine re-orders completed chunks
// by sequence number and subscribes them in trace order — so error
// positions, partial-load counts and id-allocator behaviour are
// identical to the sequential path.
func (e *Engine) loadPipelined(tr *trace.Reader, workers int) (int, error) {
	n := 0
	var maxID expr.ID
	defer e.idAdvancer(&maxID)()

	raw := make(chan rawChunk, workers)
	dec := make(chan decChunk, workers)

	// Reader: batch raw records. rerr is safely published to the caller
	// through the close(raw) → wg.Wait → close(dec) chain.
	var rerr error
	go func() {
		defer close(raw)
		seq := 0
		buf := make([]byte, 0, loadChunkBytes)
		var ends []int
		flush := func() {
			if len(ends) == 0 {
				return
			}
			raw <- rawChunk{seq: seq, buf: buf, ends: ends}
			seq++
			buf = make([]byte, 0, loadChunkBytes)
			ends = nil
		}
		for {
			nbuf, err := tr.ReadRawRecord(buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				rerr = err
				break
			}
			buf = nbuf
			ends = append(ends, len(buf))
			if len(ends) >= loadChunkRecords || len(buf) >= loadChunkBytes {
				flush()
			}
		}
		flush()
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sd expr.SlabDecoder
			for c := range raw {
				out := decChunk{seq: c.seq, xs: make([]*expr.Expression, 0, len(c.ends))}
				prev := 0
				for _, end := range c.ends {
					rec := c.buf[prev:end]
					x, k, err := sd.Decode(rec)
					if err != nil {
						out.err = fmt.Errorf("trace: corrupt record: %w", err)
						break
					}
					if k != len(rec) {
						out.err = fmt.Errorf("trace: record decoded %d of %d bytes", k, len(rec))
						break
					}
					out.xs = append(out.xs, x)
					prev = end
				}
				dec <- out
			}
		}()
	}
	go func() {
		wg.Wait()
		close(dec)
	}()

	// Inserter: re-order chunks by seq and subscribe in trace order. The
	// first error freezes insertion but the channels drain fully so the
	// reader and workers always terminate.
	var lerr error
	next := 0
	pending := make(map[int]decChunk)
	insert := func(c decChunk) {
		if lerr == nil {
			k, err := e.SubscribeBulk(c.xs)
			for _, x := range c.xs[:k] {
				if x.ID > maxID {
					maxID = x.ID
				}
			}
			n += k
			if err != nil {
				lerr = err
			} else if c.err != nil {
				lerr = c.err
			}
		}
	}
	for c := range dec {
		if c.seq != next {
			pending[c.seq] = c
			continue
		}
		insert(c)
		next++
		for {
			c, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			insert(c)
			next++
		}
	}
	if lerr == nil && rerr != nil {
		// The reader fails strictly after the records it already chunked,
		// so a reader error is positionally last.
		lerr = rerr
	}
	return n, lerr
}
