package commitlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/streammatch/apcm/metrics"
)

// Errors returned by Log operations.
var (
	// ErrClosed: the log was closed.
	ErrClosed = errors.New("commitlog: closed")
	// ErrRecordTooLarge: the record exceeds MaxRecord bytes.
	ErrRecordTooLarge = errors.New("commitlog: record exceeds MaxRecord")
)

// Failpoint identifies a crash-injection point in the append/flush
// path. Tests install Config.Failpoint to simulate a process crash at
// an exact moment: returning an error from the hook puts the log into a
// sticky failed state (every Append from then on fails), which together
// with FailpointInfo's Size/Synced lets the test reconstruct exactly
// what a real crash would have left on disk.
type Failpoint int

// Crash-injection points, in hot-path order.
const (
	// FpAppend fires at the top of Stage, before the record is staged:
	// a crash here loses the record entirely, which is correct — Stage
	// never returned an offset, so the caller never counted it delivered.
	FpAppend Failpoint = iota
	// FpWrite fires in the flusher after a batch is sealed but before
	// its write(2): the batch is lost, its commit waiters still blocked.
	FpWrite
	// FpPreSync fires after write(2) but before fsync: the batch is in
	// the page cache only. A crash test emulates the power-loss case by
	// truncating the segment back to FailpointInfo.Synced.
	FpPreSync
	// FpPostSync fires after fsync but before the commit point is
	// advanced: the batch is durable but its appenders never learn it —
	// the at-least-once window where recovery redelivers.
	FpPostSync
	// FpRotate fires during segment rotation, after the old segment is
	// sealed and before the new one is created.
	FpRotate
)

// String names the failpoint for logs and test output.
func (p Failpoint) String() string {
	switch p {
	case FpAppend:
		return "append"
	case FpWrite:
		return "write"
	case FpPreSync:
		return "pre-sync"
	case FpPostSync:
		return "post-sync"
	case FpRotate:
		return "rotate"
	}
	return fmt.Sprintf("Failpoint(%d)", int(p))
}

// FailpointInfo describes the log's on-disk state at the moment a
// failpoint fires.
type FailpointInfo struct {
	Point  Failpoint
	Path   string // active segment file
	Size   int64  // bytes written to the active segment so far
	Synced int64  // bytes of the active segment known fsync'd
}

// Config tunes a Log. The zero value is usable: 4 MiB segments, 64 KiB
// flush batches, a 2 ms block-time, fsync on every flush, unlimited
// retention.
type Config struct {
	// SegmentBytes caps a segment file; a flush that would overflow it
	// rotates to a fresh segment first. Default 4 MiB.
	SegmentBytes int64
	// FlushBytes flushes the staged batch as soon as it reaches this
	// size, and bounds the staging buffer (appends block while it is
	// full). Default 64 KiB, capped at 8 MiB.
	FlushBytes int
	// FlushInterval is the block-time bound: a staged batch is flushed
	// at latest this long after staging began, even if FlushBytes was
	// never reached. Default 2 ms.
	FlushInterval time.Duration
	// NoFsync skips fsync on flush and rotation, trading the durability
	// guarantee (a machine crash can lose committed records) for
	// throughput. Process crashes still lose nothing.
	NoFsync bool
	// RetainBytes, when > 0, deletes the oldest sealed segments once
	// total log size exceeds it. The active segment is never deleted.
	RetainBytes int64
	// RetainAge, when > 0, deletes sealed segments whose last write is
	// older than this.
	RetainAge time.Duration
	// Metrics, when non-nil, receives append/flush/fsync latencies and
	// segment/rotation/retention counters.
	Metrics *metrics.Registry
	// Failpoint, when non-nil, is invoked at each crash-injection point;
	// a non-nil return fails the log sticky (test use only).
	Failpoint func(FailpointInfo) error
}

func (c *Config) fillDefaults() {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 4 << 20
	}
	if c.FlushBytes <= 0 {
		c.FlushBytes = 64 << 10
	}
	if c.FlushBytes > 8<<20 {
		c.FlushBytes = 8 << 20
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 2 * time.Millisecond
	}
}

// segment describes one segment file. For sealed segments every field
// is final; for the active segment size/end track the flushed (not
// staged) state.
type segment struct {
	base  uint64 // offset of the first record
	end   uint64 // offset one past the last record
	acks  uint32 // offsets batches at base that precede the segment
	size  int64  // flushed bytes
	path  string
	mtime time.Time // seal time (sealed segments; retention age)
}

// Log is a durable append-only record log. Records from any number of
// goroutines are staged into a shared batch (Stage) and group-committed
// by a single flusher goroutine; WaitCommitted returns only after a
// record is on disk, so its nil return is the delivery-counting event.
// Append is the two in one call. Reads (Read) see exactly the committed
// prefix. Consumer acknowledgements (Ack) ride the same flushes as
// offsets batches.
type Log struct {
	dir string
	cfg Config

	mu   sync.Mutex //apcm:lockrank=1
	cond *sync.Cond // committed advance, buffer room, failure

	// Staging double-buffer: appends fill buf (record data after a
	// reserved header prefix); the flusher swaps buf with spare, fills
	// the header in place and writes the whole slice, so flush IO never
	// blocks staging and steady state allocates nothing.
	buf   []byte
	spare []byte

	next        uint64 // next offset to assign
	committed   uint64 // offsets below this are durable
	ackSeq      uint32 // offsets batches committed at offset committed
	stagedBase  uint64
	stagedCount uint32
	sealed      uint64 // flushes sealed (Sync's generation count)
	flushed     uint64 // flushes completed

	f      *os.File // active segment
	segs   []segment
	active segment
	synced int64 // fsync'd bytes of the active segment

	// Replication watermark: offsets below replicated are durable on
	// the attached follower. Meaningful only while replAttached; see
	// AttachReplica / SetReplicated in replication.go.
	replicated   uint64
	replAttached bool

	err    error // sticky failure
	closed bool

	kick chan struct{}
	done chan struct{} // flusher exited

	truncations int64 // recovery truncations performed by Open

	// Consumer offsets: every consumer's next offset, and the entries
	// the next flush logs. Ack takes omu alone, never mu, so an ack never
	// queues behind staging.
	omu     sync.Mutex //apcm:lockrank=2
	acked   map[string]uint64
	pending map[string]uint64

	mAppendLat  *metrics.Histogram
	mFlushLat   *metrics.Histogram
	mSyncLat    *metrics.Histogram
	mFlushRecs  *metrics.Histogram
	mAppends    *metrics.Counter
	mFlushes    *metrics.Counter
	mFlushedB   *metrics.Counter
	mRotations  *metrics.Counter
	mRetention  *metrics.Counter
	mRetClamped *metrics.Counter
	mTruncs     *metrics.Counter
	mIngests    *metrics.Counter
	mIngestedB  *metrics.Counter
	mSegments   *metrics.Gauge
}

const segSuffix = ".seg"

func segPath(dir string, base uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%020d%s", base, segSuffix))
}

// Open opens (or creates) the log in dir, recovering from whatever a
// previous process left behind: the segment chain is validated batch by
// batch, a torn or corrupt tail of the last segment is truncated back
// to the last valid batch boundary, and appending resumes at the
// recovered next offset. Corruption anywhere but the last segment's
// tail is unrecoverable (it would create an offset gap) and fails Open.
func Open(dir string, cfg Config) (*Log, error) {
	cfg.fillDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, cfg: cfg, kick: make(chan struct{}, 1), done: make(chan struct{}),
		acked: make(map[string]uint64), pending: make(map[string]uint64)}
	l.cond = sync.NewCond(&l.mu)
	l.attachMetrics()
	if err := l.recover(); err != nil {
		return nil, err
	}
	bufCap := headerSize + l.cfg.FlushBytes + MaxRecord + binary.MaxVarintLen64
	l.buf = make([]byte, headerSize, bufCap)
	l.spare = make([]byte, headerSize, bufCap)
	l.mSegments.Add(int64(len(l.segs)) + 1)
	go l.flushLoop()
	return l, nil
}

func (l *Log) attachMetrics() {
	reg := l.cfg.Metrics
	if reg == nil {
		return
	}
	l.mAppendLat = reg.Histogram("apcm_broker_log_append_latency_ns",
		"commit-log Append latency: stage, group flush, fsync, wake (Stage callers that wait separately are not timed)")
	l.mFlushLat = reg.Histogram("apcm_broker_log_flush_latency_ns",
		"commit-log batch write latency (write syscall only)")
	l.mSyncLat = reg.Histogram("apcm_broker_log_fsync_latency_ns",
		"commit-log fsync latency per flushed batch")
	l.mFlushRecs = reg.HistogramShaped("apcm_broker_log_flush_records",
		"records per flushed batch: how many staged records share one write and fsync", 1, 2, 24)
	l.mAppends = reg.Counter("apcm_broker_log_appends_total",
		"records appended to the commit log")
	l.mFlushes = reg.Counter("apcm_broker_log_flushes_total",
		"batches flushed to segment files")
	l.mFlushedB = reg.Counter("apcm_broker_log_flushed_bytes_total",
		"bytes flushed to segment files (headers included)")
	l.mRotations = reg.Counter("apcm_broker_log_rotations_total",
		"segment rotations")
	l.mRetention = reg.Counter("apcm_broker_log_retention_deleted_total",
		"sealed segments deleted by retention")
	l.mRetClamped = reg.Counter("apcm_broker_log_retention_clamped_total",
		"retention passes that kept an over-budget segment because a consumer or follower still needs it")
	l.mTruncs = reg.Counter("apcm_broker_log_recovery_truncations_total",
		"torn segment tails truncated during recovery")
	l.mIngests = reg.Counter("apcm_broker_log_ingest_batches_total",
		"replicated batches and segments ingested from the leader")
	l.mIngestedB = reg.Counter("apcm_broker_log_ingest_bytes_total",
		"replicated bytes ingested from the leader")
	l.mSegments = reg.Gauge("apcm_broker_log_segments",
		"live segment files (sealed + active)")
}

// recover scans dir's segment chain and restores next/committed, the
// consumer offsets table and the active segment. Called once from Open,
// before the flusher starts.
func (l *Log) recover() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return err
	}
	var bases []uint64
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, segSuffix+".tmp") {
			// Orphan from a segment install that crashed before its
			// rename; the chain it would have joined is intact.
			if err := os.Remove(filepath.Join(l.dir, name)); err != nil {
				return err
			}
			continue
		}
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		base, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 10, 64)
		if err != nil {
			return fmt.Errorf("commitlog: alien segment file %s", name)
		}
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	if len(bases) == 0 {
		f, err := createSegment(l.dir, 0)
		if err != nil {
			return err
		}
		l.f = f
		l.active = segment{base: 0, end: 0, path: segPath(l.dir, 0)}
		return nil
	}
	tail := Pos{Off: bases[0]}
	for i, base := range bases {
		path := segPath(l.dir, base)
		if base != tail.Off {
			return fmt.Errorf("commitlog: offset gap: segment %s starts at %d, expected %d", path, base, tail.Off)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		start := tail
		sc := NewScanner(data, base)
		for sc.Next() {
			sc.foldAcks(l.acked)
			tail = sc.Pos()
		}
		last := i == len(bases)-1
		if serr := sc.Err(); serr != nil {
			if !last {
				// A hole in a sealed segment cannot be truncated away
				// without losing every later segment; refuse to guess.
				return fmt.Errorf("commitlog: sealed segment %s: %v", path, serr)
			}
			if terr := os.Truncate(path, int64(sc.ValidBytes())); terr != nil {
				return terr
			}
			l.truncations++
			l.mTruncs.Inc()
		}
		info := segment{base: base, end: sc.NextOffset(), acks: start.Acks, size: int64(sc.ValidBytes()), path: path}
		if st, err := os.Stat(path); err == nil {
			info.mtime = st.ModTime()
		}
		if last {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return err
			}
			l.f = f
			l.active = info
			l.synced = info.size // on-disk bytes are as durable as they get
		} else {
			l.segs = append(l.segs, info)
		}
	}
	l.next = tail.Off
	l.committed = tail.Off
	l.ackSeq = tail.Acks
	return nil
}

func createSegment(dir string, base uint64) (*os.File, error) {
	f, err := os.OpenFile(segPath(dir, base), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// syncDir fsyncs a directory so file creations and deletions inside it
// are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Append stages rec and blocks until it is committed: flushed to the
// active segment and, unless Config.NoFsync, fsync'd. It returns the
// record's offset. Concurrent appends share flushes (group commit), so
// the latency cost of the fsync amortizes across however many records
// arrived while the previous flush was in flight. Append is Stage
// followed by WaitCommitted; a caller with more to stage calls the two
// separately, so its own records share the flush too.
//
//apcm:hotpath
func (l *Log) Append(rec []byte) (uint64, error) {
	var start time.Time
	if l.mAppendLat != nil {
		start = time.Now()
	}
	off, err := l.Stage(rec)
	if err != nil {
		return 0, err
	}
	if _, err := l.WaitCommitted(off, nil); err != nil {
		return 0, err
	}
	if l.mAppendLat != nil {
		l.mAppendLat.Observe(float64(time.Since(start)))
	}
	return off, nil
}

// Stage assigns rec the next offset, stages it for the next group
// commit and wakes the flusher, without waiting for the commit: the
// record is durable once WaitCommitted(off, ...) returns. Stage blocks
// only while the staging buffer is full, which is how a slow disk
// pushes back on its callers.
//
// The lock is the group commit's staging rendezvous; its critical
// section is a buffer append, and the fsync wait is WaitCommitted's.
//
//apcm:hotpath
//apcm:locksafe
func (l *Log) Stage(rec []byte) (uint64, error) {
	if len(rec) > MaxRecord {
		return 0, ErrRecordTooLarge
	}
	if fp := l.cfg.Failpoint; fp != nil {
		if err := fp(FailpointInfo{Point: FpAppend}); err != nil {
			l.fail(err)
			return 0, err
		}
	}
	need := len(rec) + binary.MaxVarintLen64
	l.mu.Lock()
	for !l.closed && l.err == nil && len(l.buf)+need > cap(l.buf) {
		l.kickFlusher()
		l.cond.Wait()
	}
	if l.closed || l.err != nil {
		err := l.err
		l.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return 0, err
	}
	off := l.next
	l.next++
	if l.stagedCount == 0 {
		l.stagedBase = off
	}
	l.stagedCount++
	l.buf = binary.AppendUvarint(l.buf, uint64(len(rec)))
	l.buf = append(l.buf, rec...)
	l.kickFlusher()
	l.mu.Unlock()
	l.mAppends.Inc()
	return off, nil
}

// kickFlusher wakes the flusher without blocking (the 1-slot channel
// coalesces pending kicks).
func (l *Log) kickFlusher() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

func (l *Log) fail(err error) {
	l.mu.Lock()
	l.failLocked(err)
	l.mu.Unlock()
}

// failLocked records the first failure and wakes every waiter; the log
// is unusable from here on (crash semantics — no partial recovery
// in-process; reopen to recover).
func (l *Log) failLocked(err error) {
	if l.err == nil {
		l.err = err
	}
	l.cond.Broadcast()
}

// flushLoop is the single flusher goroutine: woken by kicks (a staged
// record, a full buffer, Sync, Close) or the block-time timer, it
// flushes repeatedly until nothing is staged and no ack is pending,
// then sleeps again. Acks do not kick: they ride the next records
// flush, or the timer's within FlushInterval.
//
// flushLocked drops l.mu around the segment IO and re-acquires it to
// advance the commit point; to the instance-conflated lock graph that
// staging pattern looks like re-acquisition, but the release always
// precedes the re-take on the same goroutine.
//
//apcm:locksafe
func (l *Log) flushLoop() {
	defer close(l.done)
	t := time.NewTimer(l.cfg.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-l.kick:
		case <-t.C:
			t.Reset(l.cfg.FlushInterval)
		}
		l.mu.Lock()
		for (l.stagedCount > 0 || l.acksPending()) && l.err == nil {
			l.flushLocked()
		}
		closed, err := l.closed, l.err
		l.mu.Unlock()
		if closed || err != nil {
			return
		}
	}
}

// flushLocked seals the staged batch, and behind it an offsets batch of
// the pending acknowledgements, and writes both out in one write and
// fsync. Called with mu held; the lock is released around the IO so
// staging continues during the write, and re-acquired to advance the
// commit point.
func (l *Log) flushLocked() {
	data := l.buf
	count := l.stagedCount
	end := l.next
	base := end - uint64(count)
	l.buf = l.spare
	l.spare = nil
	l.buf = l.buf[:headerSize]
	l.stagedCount = 0
	l.sealed++
	l.cond.Broadcast() // buffer room is available again

	if count > 0 && l.rotationDue(len(data)) {
		if err := l.rotateLocked(base); err != nil {
			l.failLocked(err)
			return
		}
	}
	recEnd := len(data)
	seq := l.ackSeq
	if count > 0 {
		seq = 0
	}
	l.omu.Lock()
	if len(l.pending) > 0 {
		seq++
		data = appendOffsetsBatch(data, end, seq, l.pending)
		clear(l.pending)
	}
	l.omu.Unlock()
	f := l.f
	path := l.active.path
	size := l.active.size
	synced := l.synced
	fp := l.cfg.Failpoint
	l.mu.Unlock()

	out := data[headerSize:]
	if count > 0 {
		fillHeader(data[:recEnd], base, count)
		out = data
	}
	var err error
	if fp != nil {
		err = fp(FailpointInfo{Point: FpWrite, Path: path, Size: size, Synced: synced})
	}
	if err == nil {
		wstart := time.Now()
		_, err = f.Write(out)
		l.mFlushLat.ObserveDuration(time.Since(wstart))
	}
	if err == nil && fp != nil {
		err = fp(FailpointInfo{Point: FpPreSync, Path: path, Size: size + int64(len(out)), Synced: synced})
	}
	if err == nil && !l.cfg.NoFsync {
		sstart := time.Now()
		err = f.Sync()
		l.mSyncLat.ObserveDuration(time.Since(sstart))
	}
	if err == nil && fp != nil {
		err = fp(FailpointInfo{Point: FpPostSync, Path: path, Size: size + int64(len(out)), Synced: size + int64(len(out))})
	}

	l.mu.Lock()
	if err != nil {
		l.failLocked(err)
		return
	}
	l.active.size += int64(len(out))
	if !l.cfg.NoFsync {
		l.synced = l.active.size
	}
	l.committed = end
	l.ackSeq = seq
	l.active.end = end
	l.flushed++
	l.spare = data[:headerSize]
	l.mFlushes.Inc()
	l.mFlushRecs.Observe(float64(count))
	l.mFlushedB.Add(int64(len(out)))
	l.cond.Broadcast()
}

// rotationDue reports whether a records batch of n bytes must open a
// fresh segment. Only a segment that holds records is sealed, so
// segment bases stay unique; offsets batches never rotate, so a
// follower ingesting the same batches seals at the same boundaries.
func (l *Log) rotationDue(n int) bool {
	return l.active.end > l.active.base && l.active.size+int64(n) > l.cfg.SegmentBytes
}

// acksPending reports whether an acknowledgement awaits its flush.
func (l *Log) acksPending() bool {
	l.omu.Lock()
	defer l.omu.Unlock()
	return len(l.pending) > 0
}

// rotateLocked seals the active segment (final fsync, close) and
// creates a fresh one whose base is the first offset of the batch about
// to be written. Called with mu held (rotation is rare; the IO under
// the lock is two fsyncs and a create).
func (l *Log) rotateLocked(base uint64) error {
	if !l.cfg.NoFsync {
		if err := l.f.Sync(); err != nil {
			return err
		}
		l.synced = l.active.size
	}
	if fp := l.cfg.Failpoint; fp != nil {
		if err := fp(FailpointInfo{Point: FpRotate, Path: l.active.path, Size: l.active.size, Synced: l.synced}); err != nil {
			return err
		}
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	sealed := l.active
	sealed.end = base // every record below base is flushed by now
	sealed.mtime = time.Now()
	l.segs = append(l.segs, sealed)
	f, err := createSegment(l.dir, base)
	if err != nil {
		return err
	}
	l.f = f
	l.active = segment{base: base, end: base, acks: l.ackSeq, path: segPath(l.dir, base)}
	l.synced = 0
	l.mRotations.Inc()
	l.mSegments.Add(1)
	l.applyRetentionLocked()
	return nil
}

// applyRetentionLocked deletes the oldest sealed segments that exceed
// the byte or age budget. The active segment never qualifies, so the
// log always retains at least the current segment. Deletion is clamped
// to the retention floor — the minimum of every consumer's acknowledged
// offset and, while a follower is attached, the replicated watermark —
// and only a segment ending below the floor goes. A consumer's latest
// offsets batch sits in a segment ending at or above its offset, so a
// restart never loses it; a segment being shipped to the follower ends
// above the watermark, so it is never removed mid-ship.
func (l *Log) applyRetentionLocked() {
	if l.cfg.RetainBytes <= 0 && l.cfg.RetainAge <= 0 {
		return
	}
	floor := ^uint64(0)
	l.omu.Lock()
	for _, next := range l.acked {
		floor = min(floor, next)
	}
	l.omu.Unlock()
	if l.replAttached && l.replicated < floor {
		floor = l.replicated
	}
	total := l.active.size
	for _, sg := range l.segs {
		total += sg.size
	}
	now := time.Now()
	for len(l.segs) > 0 {
		oldest := l.segs[0]
		overBytes := l.cfg.RetainBytes > 0 && total > l.cfg.RetainBytes
		overAge := l.cfg.RetainAge > 0 && now.Sub(oldest.mtime) > l.cfg.RetainAge
		if !overBytes && !overAge {
			return
		}
		if oldest.end >= floor {
			l.mRetClamped.Inc()
			return // still needed; retry once the floor advances
		}
		if err := os.Remove(oldest.path); err != nil && !os.IsNotExist(err) {
			return // disk trouble; retry at the next rotation
		}
		total -= oldest.size
		l.segs = l.segs[1:]
		l.mRetention.Inc()
		l.mSegments.Add(-1)
	}
}

// Read invokes fn for every committed record with offset >= from, in
// offset order, skipping offsets batches. rec aliases an internal
// buffer and must not be retained across calls. A segment deleted by
// retention between the snapshot and the read is skipped (its records
// are gone by policy); a non-nil error from fn aborts the read and is
// returned.
func (l *Log) Read(from uint64, fn func(off uint64, rec []byte) error) error {
	l.mu.Lock()
	segs := make([]segment, 0, len(l.segs)+1)
	segs = append(segs, l.segs...)
	act := l.active
	act.end = l.committed
	segs = append(segs, act)
	l.mu.Unlock()

	for _, sg := range segs {
		if sg.end <= from || sg.end == sg.base {
			continue
		}
		data, err := os.ReadFile(sg.path)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return err
		}
		sc := NewScanner(data, sg.base)
		for sc.Next() {
			if sc.Base() >= sg.end {
				break // flushed after our snapshot; not committed to us
			}
			off := sc.Base()
			for _, rec := range sc.Records() {
				if off >= from {
					if err := fn(off, rec); err != nil {
						return err
					}
				}
				off++
			}
		}
		// The active segment's tail may hold a batch the flusher was
		// mid-write on when we snapshotted — torn from our vantage, fine
		// once NextOffset covers the committed snapshot. Anything less
		// is real corruption.
		if sc.NextOffset() < sg.end {
			if err := sc.Err(); err != nil {
				return fmt.Errorf("commitlog: reading %s: %w", sg.path, err)
			}
			return fmt.Errorf("%w: segment %s ends at offset %d, expected %d", ErrCorrupt, sg.path, sc.NextOffset(), sg.end)
		}
	}
	return nil
}

// Sync blocks until every record staged and every acknowledgement
// taken before the call is committed.
func (l *Log) Sync() error {
	l.mu.Lock()
	target := l.sealed
	if l.stagedCount > 0 || l.acksPending() {
		target++
	}
	for l.flushed < target && l.err == nil && !l.closed {
		l.kickFlusher()
		l.cond.Wait()
	}
	err := l.err
	l.mu.Unlock()
	return err
}

// Ack records next as consumer name's next offset: one past the last
// record it acknowledged. The table is monotone, so replayed or
// reordered acks regress nothing; the entry reaches disk with the next
// flush (within FlushInterval), and until then a crash rewinds the
// consumer to its previous ack — redelivery, never loss.
func (l *Log) Ack(name string, next uint64) {
	l.omu.Lock()
	if next > l.acked[name] {
		l.acked[name] = next
		l.pending[name] = next
	}
	l.omu.Unlock()
}

// ValidName reports whether name is usable as a consumer identity:
// 1..128 bytes of [A-Za-z0-9._-], not starting with a dot.
func ValidName(name string) bool {
	if name == "" || len(name) > 128 || name[0] == '.' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Acked returns consumer name's acknowledged next offset, and false
// when it never acknowledged anything.
func (l *Log) Acked(name string) (uint64, bool) {
	l.omu.Lock()
	defer l.omu.Unlock()
	next, ok := l.acked[name]
	return next, ok
}

// Close flushes staged records and pending acknowledgements, stops the
// flusher and closes the active segment. Blocked appends are released
// (their records are flushed, not dropped). Close after a sticky
// failure returns that failure.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		return nil
	}
	l.closed = true
	l.kickFlusher()
	l.cond.Broadcast()
	l.mu.Unlock()
	<-l.done
	l.mu.Lock()
	err := l.err
	f := l.f
	l.f = nil
	l.mSegments.Add(-(int64(len(l.segs)) + 1))
	l.mu.Unlock()
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// NextOffset is the offset the next appended record will receive.
func (l *Log) NextOffset() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Committed is the offset one past the last durable record.
func (l *Log) Committed() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.committed
}

// FirstOffset is the oldest offset still retained.
func (l *Log) FirstOffset() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segs) > 0 {
		return l.segs[0].base
	}
	return l.active.base
}

// Segments reports the live segment count (sealed + active).
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs) + 1
}

// Err reports the sticky failure, if the log has failed.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// RecoveryTruncations reports how many torn tails Open truncated.
func (l *Log) RecoveryTruncations() int64 { return l.truncations }

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }
