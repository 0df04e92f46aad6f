package commitlog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// fastCfg keeps test flushes prompt without giving up fsync.
func fastCfg() Config {
	return Config{FlushInterval: 200 * time.Microsecond}
}

func openLog(t *testing.T, dir string, cfg Config) *Log {
	t.Helper()
	l, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// collect reads every record from offset from into a map off->payload.
func collect(t *testing.T, l *Log, from uint64) map[uint64][]byte {
	t.Helper()
	out := make(map[uint64][]byte)
	err := l.Read(from, func(off uint64, rec []byte) error {
		out[off] = append([]byte(nil), rec...)
		return nil
	})
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	return out
}

func TestAppendReadRoundtrip(t *testing.T) {
	l := openLog(t, t.TempDir(), fastCfg())
	var want [][]byte
	for i := 0; i < 100; i++ {
		rec := []byte(fmt.Sprintf("record-%03d", i))
		want = append(want, rec)
		off, err := l.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		if off != uint64(i) {
			t.Fatalf("Append #%d returned offset %d", i, off)
		}
	}
	if got := l.Committed(); got != 100 {
		t.Fatalf("Committed = %d, want 100", got)
	}
	got := collect(t, l, 0)
	if len(got) != 100 {
		t.Fatalf("read %d records, want 100", len(got))
	}
	for i, rec := range want {
		if !bytes.Equal(got[uint64(i)], rec) {
			t.Fatalf("record %d = %q, want %q", i, got[uint64(i)], rec)
		}
	}
	// Partial read honors from.
	if part := collect(t, l, 90); len(part) != 10 {
		t.Fatalf("Read(90) yielded %d records, want 10", len(part))
	}
}

func TestConcurrentAppendsGroupCommit(t *testing.T) {
	l := openLog(t, t.TempDir(), fastCfg())
	const workers, per = 8, 50
	var wg sync.WaitGroup
	offs := make(chan uint64, workers*per)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				off, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				offs <- off
			}
		}(w)
	}
	wg.Wait()
	close(offs)
	seen := make(map[uint64]bool)
	for off := range offs {
		if seen[off] {
			t.Fatalf("offset %d assigned twice", off)
		}
		seen[off] = true
	}
	if len(seen) != workers*per {
		t.Fatalf("%d distinct offsets, want %d", len(seen), workers*per)
	}
	if got := collect(t, l, 0); len(got) != workers*per {
		t.Fatalf("read %d records, want %d", len(got), workers*per)
	}
}

func TestReopenResumesOffsets(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, fastCfg())
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := openLog(t, dir, fastCfg())
	if got := l2.NextOffset(); got != 10 {
		t.Fatalf("NextOffset after reopen = %d, want 10", got)
	}
	off, err := l2.Append([]byte{99})
	if err != nil {
		t.Fatal(err)
	}
	if off != 10 {
		t.Fatalf("first append after reopen got offset %d, want 10", off)
	}
	if got := collect(t, l2, 0); len(got) != 11 {
		t.Fatalf("read %d records, want 11", len(got))
	}
}

func TestRotationAndFirstOffset(t *testing.T) {
	cfg := fastCfg()
	cfg.SegmentBytes = 256
	l := openLog(t, t.TempDir(), cfg)
	rec := bytes.Repeat([]byte{0xAB}, 64)
	for i := 0; i < 40; i++ {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if n := l.Segments(); n < 3 {
		t.Fatalf("Segments = %d, want several after 40×64B into 256B segments", n)
	}
	if got := collect(t, l, 0); len(got) != 40 {
		t.Fatalf("read %d records across rotation, want 40", len(got))
	}
	if first := l.FirstOffset(); first != 0 {
		t.Fatalf("FirstOffset = %d, want 0 (no retention configured)", first)
	}
}

func TestRetentionByBytes(t *testing.T) {
	cfg := fastCfg()
	cfg.SegmentBytes = 256
	cfg.RetainBytes = 600
	l := openLog(t, t.TempDir(), cfg)
	rec := bytes.Repeat([]byte{0xCD}, 64)
	for i := 0; i < 60; i++ {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if first := l.FirstOffset(); first == 0 {
		t.Fatal("retention never deleted the oldest segment")
	}
	// Reading from before FirstOffset returns only retained records, no error.
	got := collect(t, l, 0)
	if _, ok := got[l.FirstOffset()]; !ok {
		t.Fatalf("first retained offset %d missing from read", l.FirstOffset())
	}
	// On-disk segment files match the in-memory view.
	files, err := filepath.Glob(filepath.Join(l.Dir(), "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != l.Segments() {
		t.Fatalf("%d segment files on disk, Segments() = %d", len(files), l.Segments())
	}
}

func TestRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, fastCfg())
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write: garbage appended to the active segment.
	path := segPath(dir, 0)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{batchMagic, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2 := openLog(t, dir, fastCfg())
	if l2.RecoveryTruncations() != 1 {
		t.Fatalf("RecoveryTruncations = %d, want 1", l2.RecoveryTruncations())
	}
	if got := l2.NextOffset(); got != 5 {
		t.Fatalf("NextOffset = %d, want 5", got)
	}
	if got := collect(t, l2, 0); len(got) != 5 {
		t.Fatalf("read %d records, want 5", len(got))
	}
	// And the log is fully usable after the repair.
	if _, err := l2.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryRejectsSealedCorruption(t *testing.T) {
	dir := t.TempDir()
	cfg := fastCfg()
	cfg.SegmentBytes = 128
	l := openLog(t, dir, cfg)
	rec := bytes.Repeat([]byte{0xEE}, 48)
	for i := 0; i < 12; i++ {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 2 {
		t.Fatal("test needs at least one sealed segment")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first (sealed) segment.
	path := segPath(dir, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, fastCfg()); err == nil {
		t.Fatal("Open accepted a corrupt sealed segment")
	}
}

func TestRecordTooLarge(t *testing.T) {
	l := openLog(t, t.TempDir(), fastCfg())
	if _, err := l.Append(make([]byte, MaxRecord+1)); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("Append(oversize) = %v, want ErrRecordTooLarge", err)
	}
	// And a max-size record is fine.
	if _, err := l.Append(make([]byte, MaxRecord)); err != nil {
		t.Fatalf("Append(MaxRecord) = %v", err)
	}
}

// holdFirstSync returns a config whose first flush blocks before its
// fsync until release is closed.
func holdFirstSync(release <-chan struct{}) Config {
	var once sync.Once
	cfg := fastCfg()
	cfg.Failpoint = func(fi FailpointInfo) error {
		if fi.Point == FpPreSync {
			once.Do(func() { <-release })
		}
		return nil
	}
	return cfg
}

// TestStageDoesNotWaitForCommit: Stage hands out offsets while the
// flusher is held mid-batch, and WaitCommitted returns once the records
// are on disk.
func TestStageDoesNotWaitForCommit(t *testing.T) {
	release := make(chan struct{})
	l := openLog(t, t.TempDir(), holdFirstSync(release))
	for i := 0; i < 10; i++ {
		off, err := l.Stage([]byte{byte(i)})
		if err != nil || off != uint64(i) {
			t.Fatalf("Stage #%d = %d, %v", i, off, err)
		}
	}
	if c := l.Committed(); c != 0 {
		t.Fatalf("Committed = %d while the first flush is held, want 0", c)
	}
	close(release)
	if c, err := l.WaitCommitted(9, nil); err != nil || c != 10 {
		t.Fatalf("WaitCommitted(9) = %d, %v, want 10", c, err)
	}
	if got := collect(t, l, 0); len(got) != 10 {
		t.Fatalf("read %d records, want 10", len(got))
	}
}

// TestWaitCommittedOutlivesClose: Close flushes what was staged before
// it, so a commit wait on a staged record succeeds across Close, and a
// wait past the staged end reports ErrClosed.
func TestWaitCommittedOutlivesClose(t *testing.T) {
	release := make(chan struct{})
	l := openLog(t, t.TempDir(), holdFirstSync(release))
	off, err := l.Stage([]byte("staged"))
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	waited := make(chan error, 1)
	go func() {
		_, err := l.WaitCommitted(off, nil)
		waited <- err
	}()
	close(release)
	if err := <-waited; err != nil {
		t.Fatalf("WaitCommitted across Close = %v, want nil", err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if _, err := l.WaitCommitted(off+1, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("WaitCommitted past the staged end after Close = %v, want ErrClosed", err)
	}
}

func TestAppendAfterClose(t *testing.T) {
	l := openLog(t, t.TempDir(), fastCfg())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
}

func TestFailpointFailsSticky(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("boom")
	armed := false
	var crashPath string
	var crashSynced int64
	cfg := fastCfg()
	cfg.Failpoint = func(fi FailpointInfo) error {
		if armed && fi.Point == FpPreSync {
			crashPath, crashSynced = fi.Path, fi.Synced
			return boom
		}
		return nil
	}
	l := openLog(t, dir, cfg)
	if _, err := l.Append([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	armed = true
	if _, err := l.Append([]byte("doomed")); !errors.Is(err, boom) {
		t.Fatalf("Append with armed failpoint = %v, want boom", err)
	}
	if _, err := l.Append([]byte("after")); !errors.Is(err, boom) {
		t.Fatalf("Append after sticky failure = %v, want boom", err)
	}
	if !errors.Is(l.Err(), boom) {
		t.Fatalf("Err = %v, want boom", l.Err())
	}
	l.Close()
	// A crash before fsync may lose the page-cache-only bytes; emulate
	// the worst case by truncating to the synced watermark. The fsync'd
	// record survives, the unsynced (never-confirmed) one is gone.
	if err := os.Truncate(crashPath, crashSynced); err != nil {
		t.Fatal(err)
	}
	l2 := openLog(t, dir, fastCfg())
	got := collect(t, l2, 0)
	if len(got) != 1 || !bytes.Equal(got[0], []byte("ok")) {
		t.Fatalf("recovered records = %v, want just %q", got, "ok")
	}
}

func TestSyncAndEmptyRecord(t *testing.T) {
	l := openLog(t, t.TempDir(), fastCfg())
	off, err := l.Append(nil) // empty records are legal
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	got := collect(t, l, 0)
	if rec, ok := got[off]; !ok || len(rec) != 0 {
		t.Fatalf("empty record not round-tripped: %v", got)
	}
}

// ackSync acknowledges next for name and waits for the offsets batch
// to be committed.
func ackSync(t *testing.T, l *Log, name string, next uint64) {
	t.Helper()
	l.Ack(name, next)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestAcksSurviveReopen: acknowledgements are monotone, ride the log
// as offsets batches that take no record offset, and come back from
// recovery's scan.
func TestAcksSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, fastCfg())
	if _, ok := l.Acked("c1"); ok {
		t.Fatal("Acked on an empty log succeeded")
	}
	for i := uint64(0); i < 10; i++ {
		if _, err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		ackSync(t, l, "c1", i+1)
	}
	ackSync(t, l, "c1", 5) // regression ignored
	if v, ok := l.Acked("c1"); !ok || v != 10 {
		t.Fatalf("Acked(c1) = %d,%v, want 10,true", v, ok)
	}
	ackSync(t, l, "c2", 7)
	if got := l.NextOffset(); got != 10 {
		t.Fatalf("offsets batches took record offsets: next = %d, want 10", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re := openLog(t, dir, fastCfg())
	if v, _ := re.Acked("c1"); v != 10 {
		t.Fatalf("recovered c1 = %d, want 10", v)
	}
	if v, _ := re.Acked("c2"); v != 7 {
		t.Fatalf("recovered c2 = %d, want 7", v)
	}
	got := collect(t, re, 0)
	if len(got) != 10 {
		t.Fatalf("read %d records, want 10", len(got))
	}
	for i := uint64(0); i < 10; i++ {
		if rec := got[i]; len(rec) != 1 || rec[0] != byte(i) {
			t.Fatalf("record %d = %v", i, rec)
		}
	}
	if off, err := re.Append([]byte("after")); err != nil || off != 10 {
		t.Fatalf("Append after reopen = %d, %v, want 10", off, err)
	}
}

// TestOldOffsetsDirIgnored: an offsets/ journal directory left by an
// older build neither fails Open nor feeds the table; its consumers
// resume wherever they ask to.
func TestOldOffsetsDirIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "offsets"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "offsets", "c.off"), []byte{0, 0, 0, 0, 0, 0, 0, 9}, 0o644); err != nil {
		t.Fatal(err)
	}
	l := openLog(t, dir, fastCfg())
	if v, ok := l.Acked("c"); ok {
		t.Fatalf("Acked(c) = %d from an old journal, want none", v)
	}
}

// TestTornOffsetsBatchRewindsAck: a torn final offsets batch is
// truncated like any torn batch and the consumer falls back to its
// previous acknowledgement — older, so redelivery covers the gap.
func TestTornOffsetsBatchRewindsAck(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir, fastCfg())
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ackSync(t, l, "c", 2)
	ackSync(t, l, "c", 3)
	l.Close()
	path := segPath(dir, 0)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	re := openLog(t, dir, fastCfg())
	if re.RecoveryTruncations() != 1 {
		t.Fatalf("RecoveryTruncations = %d, want 1", re.RecoveryTruncations())
	}
	if v, ok := re.Acked("c"); !ok || v != 2 {
		t.Fatalf("after torn offsets batch Acked = %d,%v, want 2,true (previous ack)", v, ok)
	}
	if got := re.NextOffset(); got != 3 {
		t.Fatalf("NextOffset = %d, want 3", got)
	}
	ackSync(t, re, "c", 3)
	if v, _ := re.Acked("c"); v != 3 {
		t.Fatalf("Acked after repair = %d, want 3", v)
	}
}

// TestNoAcksWriteNoOffsetsBatch: a log whose consumers never ack holds
// exactly its record batches, byte for byte.
func TestNoAcksWriteNoOffsetsBatch(t *testing.T) {
	l := openLog(t, t.TempDir(), fastCfg())
	var want int64
	for i := 0; i < 20; i++ {
		rec := []byte(fmt.Sprintf("rec-%02d", i))
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		want += int64(headerSize + 1 + len(rec))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(segPath(l.Dir(), 0))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != want {
		t.Fatalf("segment holds %d bytes, want %d (one batch per record, nothing else)", st.Size(), want)
	}
}

// TestAckFlushCrashMatrix: a crash at each point of an ack-only flush
// recovers either the previous or the new acknowledgement — never a
// value no ack carried — and never disturbs the records.
func TestAckFlushCrashMatrix(t *testing.T) {
	for _, point := range []Failpoint{FpWrite, FpPreSync, FpPostSync} {
		point := point
		t.Run(point.String(), func(t *testing.T) {
			dir := t.TempDir()
			boom := errors.New("injected crash")
			var armed sync.Mutex
			arm := false
			var synced int64 = -1
			cfg := fastCfg()
			cfg.Failpoint = func(fi FailpointInfo) error {
				armed.Lock()
				defer armed.Unlock()
				if arm && fi.Point == point {
					synced = fi.Synced
					return boom
				}
				return nil
			}
			l, err := Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				if _, err := l.Append([]byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			ackSync(t, l, "c", 2)
			armed.Lock()
			arm = true
			armed.Unlock()
			l.Ack("c", 4)
			if err := l.Sync(); !errors.Is(err, boom) {
				t.Fatalf("Sync = %v, want injected crash", err)
			}
			l.Close()
			if point == FpPreSync {
				// Written, never synced: the page cache died with the machine.
				if err := os.Truncate(segPath(dir, 0), synced); err != nil {
					t.Fatal(err)
				}
			}

			re := openLog(t, dir, fastCfg())
			v, _ := re.Acked("c")
			if v != 2 && v != 4 {
				t.Fatalf("recovered ack %d, want 2 or 4", v)
			}
			if point == FpWrite && v != 2 {
				t.Fatalf("ack %d survived a crash before its write", v)
			}
			if point == FpPostSync && v != 4 {
				t.Fatalf("synced ack lost: recovered %d, want 4", v)
			}
			if got := len(collect(t, re, 0)); got != 4 || re.NextOffset() != 4 {
				t.Fatalf("recovered %d records, next %d, want 4, 4", got, re.NextOffset())
			}
		})
	}
}

func TestValidName(t *testing.T) {
	good := []string{"a", "consumer-1", "A.B_c-9", "x"}
	bad := []string{"", ".hidden", "a/b", "a\\b", "..", "name with space", string(make([]byte, 200))}
	for _, n := range good {
		if !ValidName(n) {
			t.Errorf("ValidName(%q) = false", n)
		}
	}
	for _, n := range bad {
		if ValidName(n) {
			t.Errorf("ValidName(%q) = true", n)
		}
	}
}
