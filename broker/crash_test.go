package broker

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/commitlog"
	"github.com/streammatch/apcm/metrics"
)

// The crash matrix proves the durability contract end to end: a broker
// is killed at a seeded point in the commit path (append staging, the
// segment write, either side of the fsync, or mid-rotation), the
// on-disk state is degraded the way a real crash degrades it
// (written-but-unsynced bytes vanish, a torn tail appears, the last
// offsets batch is torn), and a restarted broker on the same directory
// must then deliver at-least-once with exact offset resume:
//
//   - nothing the pre-crash log holds is ever lost (union of both
//     incarnations' deliveries covers it),
//   - the resuming consumer restarts exactly at its persisted
//     acknowledged offset and receives a gap-free, in-order offset
//     stream from there (duplicates across the crash are allowed, holes
//     are not),
//   - everything published after the restart is delivered durably.
//
// Schedules derive from APCM_FAULT_SEED (default 1) like the rest of
// the fault suite; a failing schedule replays with
// APCM_FAULT_SEED=<seed> go test -run 'CrashRecoveryMatrix/<name>'.

const crashSegmentBytes = 512 // small segments so rotation is in play

var errInjectedCrash = errors.New("injected crash")

// crashPlan is one seeded schedule.
type crashPlan struct {
	point       commitlog.Failpoint
	nth         int  // crash on the nth hit of point
	phase1      int  // events published before the crash window
	phase2      int  // events published after restart
	garbageTail bool // append garbage to the last segment post-crash
	tearAcks    bool // tear the log's last offsets batch post-crash
}

func newCrashPlan(rng *rand.Rand) crashPlan {
	points := []commitlog.Failpoint{
		commitlog.FpAppend, commitlog.FpWrite, commitlog.FpPreSync,
		commitlog.FpPostSync, commitlog.FpRotate,
	}
	return crashPlan{
		point:       points[rng.Intn(len(points))],
		nth:         1 + rng.Intn(8),
		phase1:      8 + rng.Intn(18),
		phase2:      3 + rng.Intn(6),
		garbageTail: rng.Intn(3) == 0,
		tearAcks:    rng.Intn(3) == 0,
	}
}

// crashRecorder accumulates durable deliveries from one incarnation.
type crashRecorder struct {
	mu   sync.Mutex
	offs []uint64
	seqs []int
}

func (r *crashRecorder) onDurable(off uint64, ev *expr.Event) {
	r.mu.Lock()
	r.offs = append(r.offs, off)
	r.seqs = append(r.seqs, eventSeq(ev))
	r.mu.Unlock()
}

func (r *crashRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.offs)
}

func (r *crashRecorder) snapshot() ([]uint64, []int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint64(nil), r.offs...), append([]int(nil), r.seqs...)
}

// eventSeq extracts the sequence attribute (attr 2) stamped on every
// published event.
func eventSeq(ev *expr.Event) int {
	for _, p := range ev.Pairs() {
		if p.Attr == 2 {
			return int(p.Val)
		}
	}
	return -1
}

func crashEvent(seq int) *expr.Event {
	return expr.MustEvent(expr.P(1, 1), expr.P(2, expr.Value(seq)))
}

// startCrashServer runs a durable broker on dir with an optional armed
// failpoint.
func startCrashServer(t *testing.T, dir string, fp commitlog.Config) (*Server, string) {
	t.Helper()
	eng := apcm.MustNew(apcm.Options{Workers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(eng)
	s.Logf = t.Logf
	s.LogDir = dir
	s.Log = fp
	s.Metrics = metrics.New()
	go func() { _ = s.Serve(ln) }()
	t.Cleanup(func() { s.Close(); eng.Close() })
	waitFor(t, "crash server ready", func() bool {
		for _, v := range s.Metrics.Snapshot() {
			if v.Name == "apcm_broker_log_segments" {
				return true
			}
		}
		return false
	})
	return s, ln.Addr().String()
}

// groundTruth reopens the post-injection log offline and returns the
// surviving record count, the consumer's surviving acknowledged offset
// (0 without one) and the set of event sequences the log holds for the
// consumer. This is the oracle: whatever recovery keeps is exactly
// what the restarted broker must (re)deliver, from exactly that offset.
func groundTruth(t *testing.T, dir, consumer string) (records, acked uint64, seqs map[int]bool) {
	t.Helper()
	l, err := commitlog.Open(dir, commitlog.Config{SegmentBytes: crashSegmentBytes})
	if err != nil {
		t.Fatalf("ground-truth open: %v", err)
	}
	defer l.Close()
	seqs = make(map[int]bool)
	err = l.Read(0, func(off uint64, rec []byte) error {
		name, tail, err := decodeConsumerRecord(rec)
		if err != nil {
			return fmt.Errorf("record %d: %w", off, err)
		}
		if name != consumer {
			return nil
		}
		// tail = uvarint n, n×uvarint ids, event
		n, rest, err := readUvarint(tail)
		if err != nil {
			return err
		}
		for i := uint64(0); i < n; i++ {
			if _, rest, err = readUvarint(rest); err != nil {
				return err
			}
		}
		ev, _, err := expr.DecodeEvent(rest)
		if err != nil {
			return err
		}
		seqs[eventSeq(ev)] = true
		return nil
	})
	if err != nil {
		t.Fatalf("ground-truth read: %v", err)
	}
	acked, _ = l.Acked(consumer)
	return l.NextOffset(), acked, seqs
}

// tearLastOffsetsBatch truncates the last segment inside its final
// offsets batch, if it has one: the machine died mid-write of an ack
// flush, so that batch and anything after it never reached the disk.
func tearLastOffsetsBatch(t *testing.T, dir string, rng *rand.Rand) {
	t.Helper()
	last := lastSegment(t, dir)
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	start, end := -1, 0
	sc := commitlog.NewScanner(data, 0)
	for sc.Next() {
		if sc.IsOffsets() {
			end = sc.ValidBytes()
			start = end - len(sc.RawBatch())
		}
	}
	if start < 0 {
		return
	}
	if err := os.Truncate(last, int64(start+1+rng.Intn(end-start-1))); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecoveryMatrix(t *testing.T) {
	seed := faultSeed(t)
	schedules := 100
	if testing.Short() {
		schedules = 12
	}
	for i := 0; i < schedules; i++ {
		i := i
		t.Run(fmt.Sprintf("schedule-%03d", i), func(t *testing.T) {
			t.Parallel()
			runCrashSchedule(t, rand.New(rand.NewSource(seed+int64(i)*7919)))
		})
	}
}

func runCrashSchedule(t *testing.T, rng *rand.Rand) {
	plan := newCrashPlan(rng)
	t.Logf("plan: crash on hit %d of %v, phase1=%d phase2=%d garbage=%v tearAcks=%v",
		plan.nth, plan.point, plan.phase1, plan.phase2, plan.garbageTail, plan.tearAcks)
	dir := t.TempDir()
	const consumer = "crash"

	// Armed failpoint: the nth hit of the planned point fails the log
	// sticky (every later append errors), emulating the process dying
	// mid-commit. The hit's segment path and synced watermark feed the
	// post-crash state degradation below.
	var fpMu sync.Mutex
	var hits int
	var crashed bool
	var crashPath string
	var crashSynced int64
	failpoint := func(fi commitlog.FailpointInfo) error {
		fpMu.Lock()
		defer fpMu.Unlock()
		if crashed || fi.Point != plan.point {
			return nil
		}
		if hits++; hits < plan.nth {
			return nil
		}
		crashed = true
		crashPath = fi.Path
		crashSynced = fi.Synced
		return errInjectedCrash
	}

	srv1, addr1 := startCrashServer(t, dir, commitlog.Config{
		SegmentBytes:  crashSegmentBytes,
		FlushInterval: 200 * time.Microsecond,
		Failpoint:     failpoint,
	})
	rec1 := &crashRecorder{}
	c1, _ := durableDial(t, addr1, ClientOptions{OnDurable: rec1.onDurable})
	if err := c1.Subscribe(expr.MustNew(1, expr.Eq(1, 1)), func(*expr.Event) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Resume(consumer, 0); err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < plan.phase1; seq++ {
		if err := c1.Publish(crashEvent(seq)); err != nil {
			t.Fatal(err)
		}
	}
	// The schedule either crashes mid-stream or survives all of phase 1
	// (the nth hit never happened) — both are valid runs of the matrix.
	waitFor(t, "crash or full phase-1 delivery", func() bool {
		fpMu.Lock()
		didCrash := crashed
		fpMu.Unlock()
		if didCrash {
			return true
		}
		offs, _ := rec1.snapshot()
		return len(offs) >= plan.phase1
	})
	// Let in-flight acks drain before the kill so the logged offset is
	// as fresh as a real shutdown race would leave it.
	time.Sleep(5 * time.Millisecond)
	c1.Close()
	srv1.Close()

	// Degrade on-disk state the way the crash would have.
	if crashed && plan.point == commitlog.FpPreSync && crashPath != "" {
		// The batch was written but the fsync never happened: the page
		// cache died with the machine.
		if err := os.Truncate(crashPath, crashSynced); err != nil {
			t.Fatal(err)
		}
	}
	if plan.tearAcks {
		tearLastOffsetsBatch(t, dir, rng)
	}
	if plan.garbageTail {
		last := lastSegment(t, dir)
		f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		garbage := make([]byte, 1+rng.Intn(40))
		rng.Read(garbage)
		f.Write(garbage)
		f.Close()
	}

	// Oracle: what survived, and where must the resume start.
	preRecords, expectedStart, gtSeqs := groundTruth(t, dir, consumer)
	if expectedStart > preRecords {
		t.Fatalf("persisted offset %d beyond surviving log end %d: ack for a lost record", expectedStart, preRecords)
	}

	// Restart on the same directory, resume, and publish phase 2.
	_, addr2 := startCrashServer(t, dir, commitlog.Config{
		SegmentBytes:  crashSegmentBytes,
		FlushInterval: 200 * time.Microsecond,
	})
	rec2 := &crashRecorder{}
	c2, _ := durableDial(t, addr2, ClientOptions{OnDurable: rec2.onDurable})
	if err := c2.Subscribe(expr.MustNew(1, expr.Eq(1, 1)), func(*expr.Event) {}); err != nil {
		t.Fatal(err)
	}
	start, err := c2.Resume(consumer, 0)
	if err != nil {
		t.Fatal(err)
	}
	if start != expectedStart {
		t.Fatalf("resume started at %d, want persisted offset %d", start, expectedStart)
	}
	phase2Seqs := make(map[int]bool, plan.phase2)
	for i := 0; i < plan.phase2; i++ {
		seq := 1000 + i
		phase2Seqs[seq] = true
		if err := c2.Publish(crashEvent(seq)); err != nil {
			t.Fatal(err)
		}
	}
	wantTotal := int(preRecords-start) + plan.phase2
	waitFor(t, "replay and phase-2 delivery", func() bool {
		offs, _ := rec2.snapshot()
		return len(offs) >= wantTotal
	})

	offs2, seqs2 := rec2.snapshot()
	// Exact resume: a gap-free, in-order offset stream from the
	// persisted acknowledged offset through the end of phase 2.
	if len(offs2) != wantTotal {
		t.Fatalf("second incarnation delivered %d records, want %d", len(offs2), wantTotal)
	}
	for i, off := range offs2 {
		if want := start + uint64(i); off != want {
			t.Fatalf("delivery %d at offset %d, want %d (gap or reorder): %v", i, off, want, offs2)
		}
	}
	// At-least-once: every sequence the surviving log holds, and every
	// phase-2 publish, was received by some incarnation.
	_, seqs1 := rec1.snapshot()
	received := make(map[int]bool, len(seqs1)+len(seqs2))
	for _, s := range seqs1 {
		received[s] = true
	}
	for _, s := range seqs2 {
		received[s] = true
	}
	for s := range gtSeqs {
		if !received[s] {
			t.Fatalf("durable event seq %d lost across the crash", s)
		}
	}
	for s := range phase2Seqs {
		if !received[s] {
			t.Fatalf("post-restart event seq %d not delivered", s)
		}
	}
	// No fabrication: the second incarnation only delivers what the log
	// holds or what phase 2 published.
	for _, s := range seqs2 {
		if !gtSeqs[s] && !phase2Seqs[s] {
			t.Fatalf("second incarnation delivered seq %d that neither survived the crash nor was republished", s)
		}
	}
}

// lastSegment returns the path of the highest-offset segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segment files in %s: %v", dir, err)
	}
	sort.Strings(matches)
	return matches[len(matches)-1]
}
