package commitlog

import (
	"errors"
	"fmt"
	"math"
	"os"
	"time"
)

// This file is the replication surface of the log: what a leader needs
// to ship its committed prefix (sealed-segment fetch + batch streaming
// from the group-commit watermark) and what a follower needs to ingest
// it verbatim (whole-segment install, per-batch ingest, bootstrap past
// retention). Batches are shipped as their on-disk bytes, so the
// follower's batch boundaries — and therefore every offset a consumer
// could resume from — coincide with the leader's, and the follower's
// own torn-tail recovery in Open works unchanged after a crash.
// Offsets batches ship in the same stream, so a promoted follower
// resumes every consumer at the last acknowledgement it ingested.
//
// Alongside the fsync watermark (committed) the log tracks a
// replicated watermark: the next offset an attached follower has not
// yet acknowledged durable. Retention never deletes a segment an
// attached follower still needs, and WaitReplicated lets the broker's
// -repl-sync mode tighten delivery to delivered ⊆ committed ⊆
// replicated.

// Errors returned by the replication API.
var (
	// ErrNotReplicable: the requested read position is not available
	// (retained away, beyond committed, or not a batch boundary).
	ErrNotReplicable = errors.New("commitlog: position not replicable")
	// ErrNotEmpty: the operation requires a pristine (never-written)
	// log, e.g. follower bootstrap.
	ErrNotEmpty = errors.New("commitlog: log not empty")
)

// Pos is a read position between two batches: Off is the next record
// offset and Acks counts the offsets batches at Off already passed
// (offsets batches take no record offset, so Off alone cannot tell
// them apart).
type Pos struct {
	Off  uint64
	Acks uint32
}

// before reports whether p precedes q in log order.
func (p Pos) before(q Pos) bool {
	return p.Off < q.Off || p.Off == q.Off && p.Acks < q.Acks
}

// SegmentInfo describes one sealed segment, the unit of bulk catch-up.
type SegmentInfo struct {
	Start Pos   // position of the segment's first batch
	End   Pos   // position just past its last batch
	Size  int64 // file size in bytes
}

// SealedSegments lists the sealed segments, oldest first. The active
// segment is excluded — its tail is still moving, so it is shipped by
// batch streaming instead.
func (l *Log) SealedSegments() []SegmentInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SegmentInfo, 0, len(l.segs))
	for i := range l.segs {
		out = append(out, l.infoLocked(i))
	}
	return out
}

// infoLocked describes sealed segment i; it ends where the segment
// after it starts.
func (l *Log) infoLocked(i int) SegmentInfo {
	sg, after := l.segs[i], l.active
	if i+1 < len(l.segs) {
		after = l.segs[i+1]
	}
	return SegmentInfo{
		Start: Pos{Off: sg.base, Acks: sg.acks},
		End:   Pos{Off: after.base, Acks: after.acks},
		Size:  sg.size,
	}
}

// Tail returns the position just past the last committed batch.
func (l *Log) Tail() Pos {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tailLocked()
}

func (l *Log) tailLocked() Pos { return Pos{Off: l.committed, Acks: l.ackSeq} }

// ReadSegment returns the full bytes of the sealed segment whose base
// offset is base. The caller checksums the transfer; the batch CRCs
// inside the data are re-verified by InstallSegment on the far side
// regardless.
func (l *Log) ReadSegment(base uint64) ([]byte, SegmentInfo, error) {
	l.mu.Lock()
	var info SegmentInfo
	var path string
	for i, sg := range l.segs {
		if sg.base == base {
			info = l.infoLocked(i)
			path = sg.path
			break
		}
	}
	l.mu.Unlock()
	if path == "" {
		return nil, SegmentInfo{}, fmt.Errorf("%w: no sealed segment at base %d", ErrNotReplicable, base)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, SegmentInfo{}, err
	}
	return data, info, nil
}

// ReadBatches invokes fn for every committed batch past position from,
// in log order, passing the batch's raw on-disk bytes and the position
// just past it. from must be a batch boundary of this log (it always is
// when the caller is resuming a follower that ingests whole batches); a
// position inside a batch, below the retention floor, or beyond the
// committed watermark returns ErrNotReplicable. raw aliases an internal
// buffer and must not be retained across calls.
func (l *Log) ReadBatches(from Pos, fn func(raw []byte, end Pos) error) error {
	l.mu.Lock()
	segs := make([]segment, 0, len(l.segs)+1)
	segs = append(segs, l.segs...)
	act := l.active
	act.end = l.committed
	segs = append(segs, act)
	tail := l.tailLocked()
	l.mu.Unlock()
	lo := segs[0].base

	if from.Off < lo {
		return fmt.Errorf("%w: offset %d below retained first offset %d", ErrNotReplicable, from.Off, lo)
	}
	if from.Off > tail.Off {
		return fmt.Errorf("%w: offset %d beyond committed %d", ErrNotReplicable, from.Off, tail.Off)
	}
	for _, sg := range segs {
		if sg.end < from.Off || sg.size == 0 {
			continue
		}
		data, err := os.ReadFile(sg.path)
		if err != nil {
			if os.IsNotExist(err) {
				// Retention raced the snapshot; the clamp prevents this
				// for attached followers, so treat it as not replicable.
				return fmt.Errorf("%w: segment at base %d deleted", ErrNotReplicable, sg.base)
			}
			return err
		}
		sc := NewScanner(data, sg.base)
		for sc.Next() {
			end := sc.Pos()
			if tail.before(end) {
				break // flushed after our snapshot; not committed to us
			}
			if !from.before(end) {
				continue
			}
			if sc.Base() < from.Off {
				return fmt.Errorf("%w: offset %d is inside a batch [%d,%d)", ErrNotReplicable, from.Off, sc.Base(), sc.NextOffset())
			}
			if err := fn(sc.RawBatch(), end); err != nil {
				return err
			}
		}
		if sc.NextOffset() < sg.end {
			if err := sc.Err(); err != nil {
				return fmt.Errorf("commitlog: reading %s: %w", sg.path, err)
			}
			return fmt.Errorf("%w: segment %s ends at offset %d, expected %d", ErrCorrupt, sg.path, sc.NextOffset(), sg.end)
		}
	}
	return nil
}

// IngestBatch validates raw as exactly one batch whose base offset is
// this log's next offset, appends it to the active segment verbatim
// (rotating first, by the flusher's rule, if it would overflow), fsyncs
// unless Config.NoFsync, advances both the next and committed
// watermarks and folds an offsets batch into the table. It is the
// follower half of replication: the log must have no concurrent
// appenders (a follower log never does), which is enforced by rejecting
// the call while records are staged.
//
//apcm:durable
func (l *Log) IngestBatch(raw []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	if l.stagedCount != 0 {
		return 0, fmt.Errorf("commitlog: IngestBatch on a log with staged appends")
	}
	sc := NewScanner(raw, l.next)
	if !sc.Next() {
		if err := sc.Err(); err != nil {
			return 0, err
		}
		return 0, fmt.Errorf("%w: empty batch", ErrCorrupt)
	}
	if sc.ValidBytes() != len(raw) {
		return 0, fmt.Errorf("%w: %d trailing bytes after batch", ErrCorrupt, len(raw)-sc.ValidBytes())
	}
	count := sc.Count()
	if count > 0 && l.rotationDue(len(raw)) {
		if err := l.rotateLocked(l.next); err != nil {
			l.failLocked(err)
			return 0, err
		}
	}
	fp := l.cfg.Failpoint
	if fp != nil {
		if err := fp(FailpointInfo{Point: FpWrite, Path: l.active.path, Size: l.active.size, Synced: l.synced}); err != nil {
			l.failLocked(err)
			return 0, err
		}
	}
	if _, err := l.f.Write(raw); err != nil {
		l.failLocked(err)
		return 0, err
	}
	if fp != nil {
		if err := fp(FailpointInfo{Point: FpPreSync, Path: l.active.path, Size: l.active.size + int64(len(raw)), Synced: l.synced}); err != nil {
			l.failLocked(err)
			return 0, err
		}
	}
	if !l.cfg.NoFsync {
		if err := l.f.Sync(); err != nil {
			l.failLocked(err)
			return 0, err
		}
	}
	if fp != nil {
		if err := fp(FailpointInfo{Point: FpPostSync, Path: l.active.path, Size: l.active.size + int64(len(raw)), Synced: l.active.size + int64(len(raw))}); err != nil {
			l.failLocked(err)
			return 0, err
		}
	}
	l.active.size += int64(len(raw))
	if !l.cfg.NoFsync {
		l.synced = l.active.size
	}
	l.next += uint64(count)
	l.committed = l.next
	l.ackSeq = sc.Pos().Acks
	l.active.end = l.committed
	l.omu.Lock()
	sc.foldAcks(l.acked)
	l.omu.Unlock()
	l.mIngests.Inc()
	l.mIngestedB.Add(int64(len(raw)))
	l.cond.Broadcast()
	return l.next, nil
}

// InstallSegment installs data as a complete sealed segment — the bulk
// catch-up path, used when the follower's position is exactly a sealed
// segment's start on the leader. An active segment holding records is
// sealed first; one holding only offsets batches fails ErrNotEmpty. The
// data is fully validated batch by batch, written to a temp file,
// fsync'd, atomically renamed into the segment chain and folded into
// the table, and a fresh active segment is created at its end.
//
//apcm:durable
func (l *Log) InstallSegment(data []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if l.stagedCount != 0 {
		return fmt.Errorf("%w: records staged", ErrNotEmpty)
	}
	base := l.next
	tail := Pos{Off: base, Acks: l.ackSeq}
	sc := NewScanner(data, base)
	for sc.Next() {
		tail = sc.Pos()
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("commitlog: installing segment at %d: %w", base, err)
	}
	end := sc.NextOffset()
	if end == base {
		return fmt.Errorf("%w: empty segment", ErrCorrupt)
	}
	if l.active.end > l.active.base {
		if err := l.rotateLocked(base); err != nil {
			l.failLocked(err)
			return err
		}
	}
	if l.active.size != 0 {
		return fmt.Errorf("%w: active segment has %d bytes", ErrNotEmpty, l.active.size)
	}
	fp := l.cfg.Failpoint
	if fp != nil {
		if err := fp(FailpointInfo{Point: FpWrite, Path: l.active.path, Size: 0, Synced: 0}); err != nil {
			l.failLocked(err)
			return err
		}
	}
	tmp := l.active.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		l.failLocked(err)
		return err
	}
	tf, err := os.OpenFile(tmp, os.O_WRONLY, 0o644)
	if err != nil {
		l.failLocked(err)
		return err
	}
	if !l.cfg.NoFsync {
		err = tf.Sync()
	}
	if cerr := tf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		l.failLocked(err)
		return err
	}
	if fp != nil {
		if err := fp(FailpointInfo{Point: FpPreSync, Path: l.active.path, Size: int64(len(data)), Synced: 0}); err != nil {
			l.failLocked(err)
			return err
		}
	}
	if err := l.f.Close(); err != nil {
		l.failLocked(err)
		return err
	}
	l.f = nil
	if err := os.Rename(tmp, l.active.path); err != nil {
		l.failLocked(err)
		return err
	}
	if err := syncDir(l.dir); err != nil {
		l.failLocked(err)
		return err
	}
	sealed := segment{base: base, end: end, acks: l.active.acks, size: int64(len(data)), path: l.active.path, mtime: time.Now()}
	l.segs = append(l.segs, sealed)
	f, err := createSegment(l.dir, end)
	if err != nil {
		l.failLocked(err)
		return err
	}
	l.f = f
	l.active = segment{base: end, end: end, acks: tail.Acks, path: segPath(l.dir, end)}
	l.synced = 0
	l.next = end
	l.committed = end
	l.ackSeq = tail.Acks
	l.omu.Lock()
	for sc = NewScanner(data, base); sc.Next(); {
		sc.foldAcks(l.acked)
	}
	l.omu.Unlock()
	l.mSegments.Add(1)
	l.mIngests.Inc()
	l.mIngestedB.Add(int64(len(data)))
	if fp != nil {
		if err := fp(FailpointInfo{Point: FpPostSync, Path: sealed.path, Size: sealed.size, Synced: sealed.size}); err != nil {
			l.failLocked(err)
			return err
		}
	}
	l.cond.Broadcast()
	return nil
}

// ResetTo repositions a pristine (never-written, nothing retained) log
// so its next offset is base — follower bootstrap when the leader has
// already retained away everything below base. Any other state returns
// ErrNotEmpty: resetting a log with data would create an offset gap.
func (l *Log) ResetTo(base uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if len(l.segs) > 0 || l.active.size != 0 || l.stagedCount != 0 || l.next != l.active.base {
		return fmt.Errorf("%w: cannot reset a log with data", ErrNotEmpty)
	}
	if base == l.active.base {
		return nil
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.f = nil
	old := l.active.path
	f, err := createSegment(l.dir, base)
	if err != nil {
		l.failLocked(err)
		return err
	}
	if err := os.Remove(old); err != nil && !os.IsNotExist(err) {
		f.Close()
		l.failLocked(err)
		return err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		l.failLocked(err)
		return err
	}
	l.f = f
	l.active = segment{base: base, end: base, path: segPath(l.dir, base)}
	l.synced = 0
	l.next = base
	l.committed = base
	return nil
}

// AttachReplica registers a follower whose next-needed offset is next.
// The replicated watermark is set unconditionally — a follower that
// crashed and recovered with a truncated tail legitimately re-attaches
// lower than its last acknowledgement, and the watermark (and the
// retention clamp riding on it) must drop back to cover it.
func (l *Log) AttachReplica(next uint64) {
	l.mu.Lock()
	l.replAttached = true
	l.replicated = next
	l.cond.Broadcast()
	l.mu.Unlock()
}

// DetachReplica deregisters the follower. Waiters in WaitReplicated
// are released (delivery degrades to single-node durability rather
// than blocking forever on a dead follower).
func (l *Log) DetachReplica() {
	l.mu.Lock()
	l.replAttached = false
	l.cond.Broadcast()
	l.mu.Unlock()
}

// SetReplicated advances the replicated watermark to next (follower
// acknowledgements only move it forward within one attachment; a
// re-attachment may lower it via AttachReplica).
func (l *Log) SetReplicated(next uint64) {
	l.mu.Lock()
	if l.replAttached && next > l.replicated {
		l.replicated = next
		l.cond.Broadcast()
	}
	l.mu.Unlock()
}

// Replicated returns the replicated watermark and whether a follower
// is currently attached.
func (l *Log) Replicated() (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.replicated, l.replAttached
}

// WaitReplicated blocks until offset off is acknowledged by the
// attached follower, no follower is attached (degrade to single-node
// durability), cancelled returns true, or the log fails. The caller
// distinguishes degrade from success via Replicated if it cares;
// the -repl-sync broker counts degrades but proceeds either way.
func (l *Log) WaitReplicated(off uint64, cancelled func() bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.replAttached && l.replicated <= off && l.err == nil && !l.closed {
		if cancelled != nil && cancelled() {
			return nil
		}
		l.cond.Wait()
	}
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return ErrClosed
	}
	return nil
}

// WaitCommitted blocks until the committed watermark exceeds after,
// then returns it: the commit wait for a record Stage put at offset
// after.
func (l *Log) WaitCommitted(after uint64, cancelled func() bool) (uint64, error) {
	tail, err := l.WaitTail(Pos{Off: after, Acks: math.MaxUint32}, cancelled)
	return tail.Off, err
}

// WaitTail blocks until a batch past position after is committed, then
// returns the committed tail: where the leader's tail-streaming loop
// parks between batches, waking for records and offsets batches alike.
// Close flushes what was staged before it, so a wait on a staged offset
// outlives Close; a wait past the staged end returns ErrClosed.
// cancelled is polled at every wakeup (the returned tail is then
// possibly still not past after); arrange for Wake to be called after
// flipping whatever cancelled reads.
func (l *Log) WaitTail(after Pos, cancelled func() bool) (Pos, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for !after.before(l.tailLocked()) && l.err == nil && (!l.closed || after.Off < l.next) {
		if cancelled != nil && cancelled() {
			return l.tailLocked(), nil
		}
		l.cond.Wait()
	}
	switch {
	case l.err != nil:
		return Pos{}, l.err
	case after.before(l.tailLocked()):
		return l.tailLocked(), nil
	}
	return l.tailLocked(), ErrClosed
}

// Wake broadcasts to every waiter parked on the log's condition
// variable; cancellers call it after flipping their flag so a
// WaitCommitted/WaitReplicated poll observes the change.
func (l *Log) Wake() {
	l.mu.Lock()
	l.cond.Broadcast()
	l.mu.Unlock()
}
