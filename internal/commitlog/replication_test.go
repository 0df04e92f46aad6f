package commitlog

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// fillLeader appends n records ("rec-%04d") and syncs.
func fillLeader(t *testing.T, l *Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

// replicate ships everything the leader has committed beyond the
// follower's tail: whole sealed segments where the positions line up,
// streamed batches otherwise.
func replicate(t *testing.T, leader, follower *Log) {
	t.Helper()
	for {
		pos := follower.Tail()
		if !pos.before(leader.Tail()) {
			return
		}
		installed := false
		for _, si := range leader.SealedSegments() {
			if si.Start == pos {
				data, _, err := leader.ReadSegment(si.Start.Off)
				if err != nil {
					t.Fatalf("ReadSegment(%d): %v", si.Start.Off, err)
				}
				if err := follower.InstallSegment(data); err != nil {
					t.Fatalf("InstallSegment(%d): %v", si.Start.Off, err)
				}
				installed = true
				break
			}
		}
		if installed {
			continue
		}
		err := leader.ReadBatches(pos, func(raw []byte, _ Pos) error {
			_, err := follower.IngestBatch(raw)
			return err
		})
		if err != nil {
			t.Fatalf("ReadBatches(%v): %v", pos, err)
		}
		return
	}
}

// TestReplicateCatchUpFromScratch: a fresh follower catches up on a
// leader with multiple sealed segments via segment install + batch
// streaming and ends up with a byte-identical record prefix.
func TestReplicateCatchUpFromScratch(t *testing.T) {
	cfg := fastCfg()
	cfg.SegmentBytes = 512
	leader := openLog(t, t.TempDir(), cfg)
	fillLeader(t, leader, 200)
	if leader.Segments() < 3 {
		t.Fatalf("want several segments, got %d", leader.Segments())
	}

	follower := openLog(t, t.TempDir(), cfg)
	replicate(t, leader, follower)

	if got, want := follower.Committed(), leader.Committed(); got != want {
		t.Fatalf("follower committed %d, leader %d", got, want)
	}
	if !reflect.DeepEqual(collect(t, follower, 0), collect(t, leader, 0)) {
		t.Fatal("follower records differ from leader")
	}
}

// TestReplicateFollowerSurvivesReopen: a follower that ingested via
// both paths recovers its state from disk exactly (the ingested bytes
// are ordinary segments to Open).
func TestReplicateFollowerSurvivesReopen(t *testing.T) {
	cfg := fastCfg()
	cfg.SegmentBytes = 512
	leader := openLog(t, t.TempDir(), cfg)
	fillLeader(t, leader, 120)
	fdir := t.TempDir()
	follower := openLog(t, fdir, cfg)
	replicate(t, leader, follower)
	want := collect(t, follower, 0)
	next := follower.NextOffset()
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	re := openLog(t, fdir, cfg)
	if re.NextOffset() != next {
		t.Fatalf("reopened next %d, want %d", re.NextOffset(), next)
	}
	if !reflect.DeepEqual(collect(t, re, 0), want) {
		t.Fatal("records changed across reopen")
	}
}

// TestIngestBatchRejectsGapAndGarbage: a batch whose base is not the
// follower's next offset, or whose bytes are corrupt, is refused
// without advancing anything.
func TestIngestBatchRejectsGapAndGarbage(t *testing.T) {
	follower := openLog(t, t.TempDir(), fastCfg())
	good := appendBatch(nil, 0, [][]byte{[]byte("a"), []byte("b")})
	if _, err := follower.IngestBatch(good); err != nil {
		t.Fatal(err)
	}
	gap := appendBatch(nil, 5, [][]byte{[]byte("x")})
	if _, err := follower.IngestBatch(gap); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("gap batch: err = %v, want ErrCorrupt", err)
	}
	bad := appendBatch(nil, 2, [][]byte{[]byte("y")})
	bad[len(bad)-1] ^= 0xFF
	if _, err := follower.IngestBatch(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt batch: err = %v, want ErrCorrupt", err)
	}
	if follower.NextOffset() != 2 {
		t.Fatalf("rejected ingests advanced next to %d", follower.NextOffset())
	}
}

// TestReadBatchesInsideBatchRejected: a resume position inside a batch
// is not replicable (the follower always sits on a batch boundary).
func TestReadBatchesInsideBatchRejected(t *testing.T) {
	l := openLog(t, t.TempDir(), fastCfg())
	// One batch of 3: offsets 0..2 share a batch; 1 is inside it.
	raw := appendBatch(nil, 0, [][]byte{[]byte("a"), []byte("b"), []byte("c")})
	if _, err := l.IngestBatch(raw); err != nil {
		t.Fatal(err)
	}
	err := l.ReadBatches(Pos{Off: 1}, func([]byte, Pos) error { return nil })
	if !errors.Is(err, ErrNotReplicable) {
		t.Fatalf("err = %v, want ErrNotReplicable", err)
	}
}

// TestResetToBootstrapsPastRetention: a pristine follower repositions
// to the leader's first retained offset, then replicates normally.
func TestResetToBootstrapsPastRetention(t *testing.T) {
	cfg := fastCfg()
	cfg.SegmentBytes = 256
	cfg.RetainBytes = 1024
	leader := openLog(t, t.TempDir(), cfg)
	fillLeader(t, leader, 400)
	lo := leader.FirstOffset()
	if lo == 0 {
		t.Fatal("retention never kicked in; test needs a trimmed leader")
	}

	follower := openLog(t, t.TempDir(), fastCfg())
	if err := follower.ResetTo(lo); err != nil {
		t.Fatal(err)
	}
	if follower.NextOffset() != lo {
		t.Fatalf("next = %d, want %d", follower.NextOffset(), lo)
	}
	replicate(t, leader, follower)
	if !reflect.DeepEqual(collect(t, follower, lo), collect(t, leader, lo)) {
		t.Fatal("follower records differ from leader after bootstrap")
	}
	// Reset after data exists must refuse.
	if err := follower.ResetTo(0); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("ResetTo on non-empty log: err = %v, want ErrNotEmpty", err)
	}
}

// TestRetentionClampedByReplica: byte retention that would delete
// segments the attached follower has not ingested keeps them until the
// replicated watermark advances past.
func TestRetentionClampedByReplica(t *testing.T) {
	cfg := fastCfg()
	cfg.SegmentBytes = 256
	cfg.RetainBytes = 512
	l := openLog(t, t.TempDir(), cfg)
	l.AttachReplica(0)
	fillLeader(t, l, 300)
	if got := l.FirstOffset(); got != 0 {
		t.Fatalf("retention deleted past an attached replica at 0: first = %d", got)
	}
	// Watermark advance unclamps: next rotation may delete again.
	l.SetReplicated(l.Committed())
	fillLeader(t, l, 300)
	if got := l.FirstOffset(); got == 0 {
		t.Fatal("retention never resumed after the watermark advanced")
	}
	// Detach removes the clamp entirely.
	l.DetachReplica()
	fillLeader(t, l, 100)
}

// TestRetentionClampedByConsumerFloor: a slow consumer's acknowledged
// offset holds the segments it still needs.
func TestRetentionClampedByConsumerFloor(t *testing.T) {
	cfg := fastCfg()
	cfg.SegmentBytes = 256
	cfg.RetainBytes = 512
	l := openLog(t, t.TempDir(), cfg)
	fillLeader(t, l, 1)
	ackSync(t, l, "slow", 1)
	fillLeader(t, l, 300)
	if got := l.FirstOffset(); got != 0 {
		t.Fatalf("retention deleted past consumer floor 1: first = %d", got)
	}
	ackSync(t, l, "slow", l.Committed())
	fillLeader(t, l, 300)
	if got := l.FirstOffset(); got == 0 {
		t.Fatal("retention never resumed after the consumer floor advanced")
	}
}

// TestRetentionKeepsLatestAckAtSegmentEnd pins the retention edge: a
// consumer's latest offsets batch is the last thing in a sealed
// segment whose end equals the consumer floor. Deleting that segment
// would drop the consumer from the table recovery rebuilds, and with
// it the floor that protects its records.
func TestRetentionKeepsLatestAckAtSegmentEnd(t *testing.T) {
	dir := t.TempDir()
	cfg := fastCfg()
	cfg.SegmentBytes = 256
	cfg.RetainBytes = 300
	l := openLog(t, dir, cfg)
	rec := make([]byte, 64) // 86-byte batches: two fit a segment, a third rotates
	for i := 0; i < 2; i++ {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	ackSync(t, l, "slow", 2)
	for i := 0; i < 40; i++ {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	ackSync(t, l, "fast", l.Committed())
	fillLeader(t, l, 40)
	segs := l.SealedSegments()
	if len(segs) == 0 || segs[0].Start.Off != 0 || segs[0].End != (Pos{Off: 2, Acks: 1}) {
		t.Fatalf("sealed segments %v, want the first to hold offsets [0,2) and the ack", segs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re := openLog(t, dir, cfg)
	if v, ok := re.Acked("slow"); !ok || v != 2 {
		t.Fatalf("recovered slow consumer at %d,%v, want 2,true", v, ok)
	}
	fillLeader(t, re, 40)
	if got := re.FirstOffset(); got != 0 {
		t.Fatalf("retention deleted the slow consumer's records after a restart: first = %d", got)
	}
}

// TestReplicateCarriesAcks: offsets batches replicate through both
// catch-up paths, so the follower's table and tail match the leader's
// and a second pass ships nothing twice.
func TestReplicateCarriesAcks(t *testing.T) {
	cfg := fastCfg()
	cfg.SegmentBytes = 512
	leader := openLog(t, t.TempDir(), cfg)
	for i := 0; i < 120; i++ {
		fillLeader(t, leader, 1)
		if i%7 == 0 {
			ackSync(t, leader, "a", leader.Committed())
		}
		if i%11 == 0 {
			ackSync(t, leader, "b", leader.Committed()-1)
			ackSync(t, leader, "b", leader.Committed())
		}
	}
	fdir := t.TempDir()
	follower := openLog(t, fdir, cfg)
	replicate(t, leader, follower)
	replicate(t, leader, follower)
	if got, want := follower.Tail(), leader.Tail(); got != want {
		t.Fatalf("follower tail %v, leader %v", got, want)
	}
	for _, name := range []string{"a", "b"} {
		lv, _ := leader.Acked(name)
		if fv, ok := follower.Acked(name); !ok || fv != lv {
			t.Fatalf("follower acked %s = %d,%v, leader %d", name, fv, ok, lv)
		}
	}
	if !reflect.DeepEqual(collect(t, follower, 0), collect(t, leader, 0)) {
		t.Fatal("follower records differ from leader")
	}
	follower.Close()
	re := openLog(t, fdir, cfg)
	if got, want := re.Tail(), leader.Tail(); got != want {
		t.Fatalf("reopened follower tail %v, leader %v", got, want)
	}
	if v, _ := re.Acked("a"); v != 120 {
		t.Fatalf("reopened follower acked a = %d, want 120", v)
	}
}

// TestWaitReplicated: blocks until the watermark covers the offset,
// returns immediately when no replica is attached (degraded mode), and
// unblocks on detach.
func TestWaitReplicated(t *testing.T) {
	l := openLog(t, t.TempDir(), fastCfg())
	// No replica: no wait.
	done := make(chan error, 1)
	go func() { done <- l.WaitReplicated(10, nil) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitReplicated blocked with no replica attached")
	}

	l.AttachReplica(0)
	go func() { done <- l.WaitReplicated(4, nil) }()
	select {
	case <-done:
		t.Fatal("WaitReplicated returned before the watermark covered 4")
	case <-time.After(20 * time.Millisecond):
	}
	l.SetReplicated(5)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitReplicated ignored the watermark advance")
	}

	// Detach releases waiters (degrade, not deadlock).
	l.AttachReplica(5)
	go func() { done <- l.WaitReplicated(100, nil) }()
	time.Sleep(10 * time.Millisecond)
	l.DetachReplica()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitReplicated did not release on detach")
	}
}

// TestAttachReplicaLowersWatermark: a follower re-attaching after a
// crash-truncation legitimately attaches below the old watermark, and
// the watermark must follow it down (retention safety).
func TestAttachReplicaLowersWatermark(t *testing.T) {
	l := openLog(t, t.TempDir(), fastCfg())
	l.AttachReplica(100)
	if got, _ := l.Replicated(); got != 100 {
		t.Fatalf("replicated = %d, want 100", got)
	}
	l.SetReplicated(50) // stale ack within a session: ignored
	if got, _ := l.Replicated(); got != 100 {
		t.Fatalf("SetReplicated regressed the watermark to %d", got)
	}
	l.AttachReplica(40) // re-attach after truncation: honored
	if got, _ := l.Replicated(); got != 40 {
		t.Fatalf("re-attach did not lower the watermark: %d", got)
	}
}

// TestWaitCommittedCancellable: WaitCommitted parks until data commits
// or the canceller flips and Wakes.
func TestWaitCommittedCancellable(t *testing.T) {
	l := openLog(t, t.TempDir(), fastCfg())
	type res struct {
		c   uint64
		err error
	}
	done := make(chan res, 1)
	go func() {
		c, err := l.WaitCommitted(0, nil)
		done <- res{c, err}
	}()
	time.Sleep(10 * time.Millisecond)
	if _, err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.err != nil || r.c != 1 {
			t.Fatalf("WaitCommitted = %d, %v", r.c, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitCommitted missed the commit")
	}

	var stop sync.Mutex
	stopped := false
	cancelled := func() bool { stop.Lock(); defer stop.Unlock(); return stopped }
	go func() {
		c, err := l.WaitCommitted(1000, cancelled)
		done <- res{c, err}
	}()
	time.Sleep(10 * time.Millisecond)
	stop.Lock()
	stopped = true
	stop.Unlock()
	l.Wake()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitCommitted ignored cancellation")
	}
}

// TestInstallSegmentSealsIngestedActive: a follower that ingested a
// segment batch by batch still has it active when the sender, finding
// its position at the start of a segment the leader has since sealed,
// ships that one whole; the install seals the active segment first.
func TestInstallSegmentSealsIngestedActive(t *testing.T) {
	cfg := fastCfg()
	cfg.SegmentBytes = 512
	leader := openLog(t, t.TempDir(), cfg)
	follower := openLog(t, t.TempDir(), cfg)
	fillLeader(t, leader, 1)
	ackSync(t, leader, "c", 1)
	replicate(t, leader, follower)
	for len(leader.SealedSegments()) < 2 {
		fillLeader(t, leader, 1)
	}
	firstEnd := leader.SealedSegments()[0].End
	err := leader.ReadBatches(follower.Tail(), func(raw []byte, end Pos) error {
		if firstEnd.before(end) {
			return errStop
		}
		_, err := follower.IngestBatch(raw)
		return err
	})
	if err != nil && !errors.Is(err, errStop) {
		t.Fatal(err)
	}
	second := leader.SealedSegments()[1]
	if follower.Tail() != second.Start {
		t.Fatalf("follower at %v, want the second segment's start %v", follower.Tail(), second.Start)
	}
	data, _, err := leader.ReadSegment(second.Start.Off)
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.InstallSegment(data); err != nil {
		t.Fatalf("InstallSegment over an ingested active segment: %v", err)
	}
	replicate(t, leader, follower)
	if !reflect.DeepEqual(collect(t, follower, 0), collect(t, leader, 0)) {
		t.Fatal("follower records differ from leader")
	}
	if v, _ := follower.Acked("c"); v != 1 {
		t.Fatalf("follower acked c = %d, want 1", v)
	}
}

var errStop = errors.New("stop")

// TestInstallSegmentCrashLeavesRecoverableLog: a failpoint "crash" at
// each install stage leaves a directory Open recovers to a consistent
// prefix (never a gap, never fabricated records).
func TestInstallSegmentCrashLeavesRecoverableLog(t *testing.T) {
	cfg := fastCfg()
	cfg.SegmentBytes = 512
	leader := openLog(t, t.TempDir(), cfg)
	fillLeader(t, leader, 120)
	segs := leader.SealedSegments()
	if len(segs) == 0 {
		t.Fatal("leader has no sealed segments")
	}
	data, info, err := leader.ReadSegment(segs[0].Start.Off)
	if err != nil {
		t.Fatal(err)
	}

	for _, point := range []Failpoint{FpWrite, FpPreSync, FpPostSync} {
		point := point
		t.Run(point.String(), func(t *testing.T) {
			fdir := t.TempDir()
			boom := errors.New("injected crash")
			fcfg := fastCfg()
			fcfg.Failpoint = func(fi FailpointInfo) error {
				if fi.Point == point {
					return boom
				}
				return nil
			}
			f, err := Open(fdir, fcfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.InstallSegment(data); !errors.Is(err, boom) {
				t.Fatalf("InstallSegment = %v, want injected crash", err)
			}
			f.Close()

			re := openLog(t, fdir, fastCfg())
			next := re.NextOffset()
			if next != 0 && next != info.End.Off {
				t.Fatalf("recovered next = %d, want 0 or %d", next, info.End.Off)
			}
			if next == info.End.Off {
				if got := len(collect(t, re, 0)); got != int(info.End.Off-info.Start.Off) {
					t.Fatalf("recovered %d records, want %d", got, info.End.Off-info.Start.Off)
				}
			}
		})
	}
}
