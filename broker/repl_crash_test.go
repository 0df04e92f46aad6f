package broker

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/commitlog"
)

// The replication crash matrix extends the single-node crash matrix to
// the replicated pair: a leader/follower deployment is driven through a
// seeded failure — the leader killed mid-catch-up or mid-tail, the
// follower crashed mid-ingest by an armed commitlog failpoint (with the
// same page-cache-loss and torn-tail degradation the single-node matrix
// applies), or an asymmetric partition that silences the leader toward
// the follower while the reverse direction still flows — and the
// surviving state must satisfy the replication contract:
//
//   - prefix oracle: the follower's record stream is byte-identical to
//     the leader's on the prefix both hold; promotion never fabricates
//     or reorders history below promotedAt,
//   - epoch fencing: a promotion bumps the epoch exactly once, the
//     partitioned stale leader ends fenced at the promoted epoch, and a
//     crash-restarted follower re-follows at epoch 0 without inventing
//     a regime,
//   - self-heal: a follower restarted on its degraded directory
//     truncates its torn tail via ordinary Open recovery, re-attaches
//     below its old acknowledgement, and converges to the leader's log,
//   - continuity: after a failover, a durable consumer resumes on the
//     promoted follower at its shipped offset and receives a gap-free
//     offset stream through post-failover publishes.
//
// Schedules derive from APCM_FAULT_SEED (default 1); a failing schedule
// replays with APCM_FAULT_SEED=<seed> go test -run
// 'ReplCrashMatrix/<name>'.

// replCrashMode selects the failure a schedule injects.
type replCrashMode int

const (
	modeLeaderKill replCrashMode = iota
	modeFollowerCrash
	modePartition
	replCrashModes
)

func (m replCrashMode) String() string {
	switch m {
	case modeLeaderKill:
		return "leader-kill"
	case modeFollowerCrash:
		return "follower-crash"
	case modePartition:
		return "partition"
	}
	return fmt.Sprintf("mode-%d", int(m))
}

// replCrashPlan is one seeded schedule.
type replCrashPlan struct {
	mode        replCrashMode
	phase1      int                 // records published before the follower exists (sealed-segment catch-up)
	phase2      int                 // records published while the follower tracks the tail
	phase3      int                 // records published to the promoted follower after failover
	killAt      int                 // inject the failure once the follower holds >= killAt records
	point       commitlog.Failpoint // follower-crash: which commit step dies
	nth         int                 // follower-crash: on the nth hit of point
	garbageTail bool                // append garbage to the crashed side's last segment
}

func newReplCrashPlan(rng *rand.Rand) replCrashPlan {
	points := []commitlog.Failpoint{
		commitlog.FpWrite, commitlog.FpPreSync, commitlog.FpPostSync,
	}
	p := replCrashPlan{
		mode:        replCrashMode(rng.Intn(int(replCrashModes))),
		phase1:      6 + rng.Intn(24),
		phase2:      3 + rng.Intn(12),
		phase3:      2 + rng.Intn(5),
		point:       points[rng.Intn(len(points))],
		nth:         1 + rng.Intn(5),
		garbageTail: rng.Intn(3) == 0,
	}
	p.killAt = 1 + rng.Intn(p.phase1+p.phase2)
	return p
}

func TestReplCrashMatrix(t *testing.T) {
	seed := faultSeed(t)
	schedules := 100
	if testing.Short() {
		schedules = 12
	}
	for i := 0; i < schedules; i++ {
		i := i
		t.Run(fmt.Sprintf("schedule-%03d", i), func(t *testing.T) {
			t.Parallel()
			runReplCrashSchedule(t, rand.New(rand.NewSource(seed+int64(i)*7919)))
		})
	}
}

func runReplCrashSchedule(t *testing.T, rng *rand.Rand) {
	plan := newReplCrashPlan(rng)
	t.Logf("plan: %v phase1=%d phase2=%d phase3=%d killAt=%d point=%v nth=%d garbage=%v",
		plan.mode, plan.phase1, plan.phase2, plan.phase3, plan.killAt, plan.point, plan.nth, plan.garbageTail)
	const consumer = "m"
	leaderDir, followerDir := t.TempDir(), t.TempDir()

	// Tight failover clocks so promotion schedules finish in test time;
	// the matrix serializes on small machines, so every schedule pays
	// its own timeout.
	tuneClocks := func(s *Server) {
		s.ReplTimeout = 250 * time.Millisecond
	}
	leader, lAddr := startReplServer(t, leaderDir, tuneClocks)

	c, rec := attachConsumer(t, lAddr, consumer)
	for seq := 0; seq < plan.phase1; seq++ {
		if err := c.Publish(crashEvent(seq)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "phase-1 delivery", func() bool {
		offs, _ := rec.snapshot()
		return len(offs) >= plan.phase1
	})

	// Follower-crash schedules arm a sticky failpoint on the follower's
	// log, the same process-death emulation the single-node matrix uses:
	// the nth hit of the planned point fails the log permanently, and
	// the hit's path and synced watermark drive the on-disk degradation.
	var fpMu sync.Mutex
	var hits int
	var crashed bool
	var crashPath string
	var crashSynced int64
	followerFailpoint := func(fi commitlog.FailpointInfo) error {
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
	didCrash := func() bool {
		fpMu.Lock()
		defer fpMu.Unlock()
		return crashed
	}

	dialer := &replDialer{}
	follower, fAddr := startReplServer(t, followerDir, func(s *Server) {
		tuneClocks(s)
		s.Follow = lAddr
		s.NodeID = "f1"
		if plan.mode == modePartition {
			s.replDial = dialer.dial
		}
		if plan.mode == modeFollowerCrash {
			s.Log.Failpoint = followerFailpoint
		}
	})

	for seq := plan.phase1; seq < plan.phase1+plan.phase2; seq++ {
		if err := c.Publish(crashEvent(seq)); err != nil {
			t.Fatal(err)
		}
	}
	total := uint64(plan.phase1 + plan.phase2)

	switch plan.mode {
	case modeLeaderKill:
		runLeaderKill(t, plan, leader, leaderDir, follower, fAddr, consumer, rng)
	case modeFollowerCrash:
		runFollowerCrash(t, plan, leader, lAddr, follower, followerDir, total, didCrash,
			&fpMu, &crashPath, &crashSynced, rng)
	case modePartition:
		runStalePartition(t, plan, leader, follower, dialer, total)
	}
}

// runLeaderKill kills the leader once the follower holds killAt records
// — mid-segment-ship when killAt lands inside the sealed catch-up
// prefix, mid-tail otherwise — then verifies promotion, the prefix
// oracle against the leader's surviving on-disk log, and gap-free
// durable consumption on the promoted follower.
func runLeaderKill(t *testing.T, plan replCrashPlan, leader *Server, leaderDir string,
	follower *Server, fAddr, consumer string, rng *rand.Rand) {
	waitFor(t, "follower reaches kill point", func() bool {
		return follower.log.NextOffset() >= uint64(plan.killAt)
	})
	leader.Close()
	if plan.garbageTail {
		// The leader machine died with a torn tail: garbage past the
		// synced watermark that its own recovery (and our offline
		// oracle's Open) must truncate away.
		last := lastSegment(t, leaderDir)
		f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		garbage := make([]byte, 1+rng.Intn(40))
		rng.Read(garbage)
		f.Write(garbage)
		f.Close()
	}

	waitFor(t, "follower promotion", func() bool { return follower.Role() == "leader" })
	if e := follower.epoch.Load(); e != 1 {
		t.Fatalf("promoted follower at epoch %d, want 1", e)
	}
	at, ok := uint64(follower.promotedAt.Load()), follower.promoted.Load()
	if !ok {
		t.Fatal("promoted follower reports no promotion offset")
	}
	if at < uint64(plan.killAt) {
		t.Fatalf("promoted at offset %d, below kill point %d", at, plan.killAt)
	}

	// Prefix oracle: everything below promotedAt is the old regime's
	// history and must match the leader's log byte for byte.
	leaderNext, leaderRecs := offlineRecords(t, leaderDir, at)
	if at > leaderNext {
		t.Fatalf("follower promoted at offset %d beyond the leader's surviving log end %d: fabricated history", at, leaderNext)
	}
	assertPrefixEqual(t, leaderRecs, onlineRecords(t, follower.log, at), at)

	// Continuity: a durable consumer re-attaches to the promoted
	// follower at exactly the last acknowledgement the follower ingested
	// and reads a gap-free stream through fresh post-failover publishes.
	n0 := follower.log.NextOffset()
	acked, _ := follower.log.Acked(consumer)
	if acked > n0 {
		t.Fatalf("follower holds ack %d beyond its log end %d: ack for an unreplicated record", acked, n0)
	}
	rec2 := &crashRecorder{}
	c2, _ := durableDial(t, fAddr, ClientOptions{OnDurable: rec2.onDurable})
	if err := c2.Subscribe(expr.MustNew(1, expr.Eq(1, 1)), func(*expr.Event) {}); err != nil {
		t.Fatal(err)
	}
	start, err := c2.Resume(consumer, 0)
	if err != nil {
		t.Fatal(err)
	}
	if start != acked {
		t.Fatalf("resume started at %d, want the last ingested ack %d", start, acked)
	}
	for i := 0; i < plan.phase3; i++ {
		if err := c2.Publish(crashEvent(2000 + i)); err != nil {
			t.Fatal(err)
		}
	}
	wantTotal := int(n0-start) + plan.phase3
	waitFor(t, "replay and phase-3 delivery on the promoted follower", func() bool {
		offs, _ := rec2.snapshot()
		return len(offs) >= wantTotal
	})
	offs2, _ := rec2.snapshot()
	if len(offs2) != wantTotal {
		t.Fatalf("promoted follower delivered %d records, want %d", len(offs2), wantTotal)
	}
	for i, off := range offs2 {
		if want := start + uint64(i); off != want {
			t.Fatalf("delivery %d at offset %d, want %d (gap across failover)", i, off, want)
		}
	}
}

// runFollowerCrash lets the armed failpoint kill the follower
// mid-ingest, degrades its directory the way the machine death would
// (unsynced bytes vanish, optional torn tail), restarts it on the same
// directory, and verifies it self-heals and converges: same records as
// the leader, byte for byte, still at epoch 0.
func runFollowerCrash(t *testing.T, plan replCrashPlan, leader *Server, lAddr string,
	follower *Server, followerDir string, total uint64, didCrash func() bool,
	fpMu *sync.Mutex, crashPath *string, crashSynced *int64, rng *rand.Rand) {
	// Either the failpoint fires mid-ingest or the follower converges
	// without reaching the nth hit — both are valid matrix runs.
	waitFor(t, "follower crash or full convergence", func() bool {
		return didCrash() || follower.log.NextOffset() >= total
	})
	follower.Close()

	if didCrash() {
		fpMu.Lock()
		path, synced := *crashPath, *crashSynced
		fpMu.Unlock()
		if plan.point == commitlog.FpPreSync && path != "" {
			// Written but never synced: the page cache died with the
			// machine.
			if st, err := os.Stat(path); err == nil && synced < st.Size() {
				if err := os.Truncate(path, synced); err != nil {
					t.Fatal(err)
				}
			}
		}
		if plan.garbageTail {
			last := lastSegment(t, followerDir)
			f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			garbage := make([]byte, 1+rng.Intn(40))
			rng.Read(garbage)
			f.Write(garbage)
			f.Close()
		}
	}

	// Restart on the degraded directory: Open's recovery truncates the
	// torn tail, the replicator re-attaches at the recovered offset
	// (below its old acknowledgement — the watermark must drop back),
	// and catch-up converges.
	follower2, _ := startReplServer(t, followerDir, func(s *Server) {
		s.ReplTimeout = 250 * time.Millisecond
		s.Follow = lAddr
		s.NodeID = "f1"
	})
	waitFor(t, "restarted follower convergence", func() bool {
		return follower2.log.NextOffset() >= total
	})
	waitFor(t, "leader replicated watermark", func() bool {
		repl, ok := leader.log.Replicated()
		return ok && repl >= total
	})

	if lr, fr := leader.Role(), follower2.Role(); lr != "leader" || fr != "follower" {
		t.Fatalf("roles = %s/%s after follower crash-restart, want leader/follower", lr, fr)
	}
	if le, fe := leader.epoch.Load(), follower2.epoch.Load(); le != 0 || fe != 0 {
		t.Fatalf("epochs advanced to %d/%d without a failover", le, fe)
	}
	assertPrefixEqual(t, onlineRecords(t, leader.log, total), onlineRecords(t, follower2.log, total), total)
}

// runStalePartition imposes the asymmetric partition once the follower
// holds killAt records: the follower promotes on silence and its fence
// — carried by the still-flowing follower→leader direction — must
// terminate the stale leader, leaving exactly one writable regime.
func runStalePartition(t *testing.T, plan replCrashPlan, leader, follower *Server,
	dialer *replDialer, total uint64) {
	waitFor(t, "follower reaches partition point", func() bool {
		return follower.log.NextOffset() >= uint64(plan.killAt)
	})
	waitFor(t, "repl conn wrapped", func() bool { return dialer.conn() != nil })
	dialer.conn().BlackholeIn()

	waitFor(t, "follower promotion", func() bool { return follower.Role() == "leader" })
	if e := follower.epoch.Load(); e != 1 {
		t.Fatalf("promoted follower at epoch %d, want 1", e)
	}
	at, ok := uint64(follower.promotedAt.Load()), follower.promoted.Load()
	if !ok || at < uint64(plan.killAt) || at > total {
		t.Fatalf("promotedAt = %d,%v, want [%d,%d]", at, ok, plan.killAt, total)
	}
	waitFor(t, "stale leader fenced", func() bool { return leader.Role() == "fenced" })
	if le, fe := leader.epoch.Load(), follower.epoch.Load(); le != fe {
		t.Fatalf("fenced leader at epoch %d, promoted follower at %d", le, fe)
	}

	// Prefix oracle: the promoted regime's history below promotedAt is
	// the old leader's, verbatim. The fenced leader's log object is
	// still readable in-process.
	if leaderNext := leader.log.NextOffset(); at > leaderNext {
		t.Fatalf("follower promoted at offset %d beyond the leader's log end %d: fabricated history", at, leaderNext)
	}
	assertPrefixEqual(t, onlineRecords(t, leader.log, at), onlineRecords(t, follower.log, at), at)
}

var errStopRead = errors.New("stop read")

// onlineRecords snapshots the first upto records of a live log.
func onlineRecords(t *testing.T, l *commitlog.Log, upto uint64) [][]byte {
	t.Helper()
	var recs [][]byte
	err := l.Read(0, func(off uint64, rec []byte) error {
		if off >= upto {
			return errStopRead
		}
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	})
	if err != nil && !errors.Is(err, errStopRead) {
		t.Fatalf("reading log: %v", err)
	}
	return recs
}

// offlineRecords reopens a (closed) broker's log directory offline and
// returns its recovered next offset plus the first upto records — the
// crash oracle's view of what the dead node's disk actually holds.
func offlineRecords(t *testing.T, dir string, upto uint64) (uint64, [][]byte) {
	t.Helper()
	l, err := commitlog.Open(dir, commitlog.Config{SegmentBytes: crashSegmentBytes})
	if err != nil {
		t.Fatalf("offline open %s: %v", dir, err)
	}
	defer l.Close()
	var recs [][]byte
	err = l.Read(0, func(off uint64, rec []byte) error {
		if off >= upto {
			return errStopRead
		}
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	})
	if err != nil && !errors.Is(err, errStopRead) {
		t.Fatalf("offline read %s: %v", dir, err)
	}
	return l.NextOffset(), recs
}

// assertPrefixEqual fails unless both record streams hold the same upto
// records, byte for byte.
func assertPrefixEqual(t *testing.T, want, got [][]byte, upto uint64) {
	t.Helper()
	if uint64(len(want)) != upto || uint64(len(got)) != upto {
		t.Fatalf("prefix streams hold %d and %d records, want %d each", len(want), len(got), upto)
	}
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Fatalf("record %d diverges between leader and follower:\n  leader:   %x\n  follower: %x", i, want[i], got[i])
		}
	}
}
