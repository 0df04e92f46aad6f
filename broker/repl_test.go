package broker

import (
	"net"
	"sync"
	"testing"
	"time"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/commitlog"
	"github.com/streammatch/apcm/internal/faultnet"
	"github.com/streammatch/apcm/metrics"
)

// startReplServer runs a durable broker tuned for fast replication
// tests: small segments so bulk catch-up has sealed segments to ship,
// tight heartbeats so failover happens in test time.
func startReplServer(t *testing.T, dir string, tune func(*Server)) (*Server, string) {
	t.Helper()
	eng := apcm.MustNew(apcm.Options{Workers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(eng)
	s.Logf = t.Logf
	s.LogDir = dir
	s.Log = commitlog.Config{SegmentBytes: 512, FlushInterval: 200 * time.Microsecond}
	s.Metrics = metrics.New()
	s.ReplHeartbeat = 10 * time.Millisecond
	s.ReplTimeout = 400 * time.Millisecond
	if tune != nil {
		tune(s)
	}
	go func() { _ = s.Serve(ln) }()
	t.Cleanup(func() { s.Close(); eng.Close() })
	waitFor(t, "repl server ready", func() bool {
		for _, v := range s.Metrics.Snapshot() {
			if v.Name == "apcm_broker_log_segments" {
				return true
			}
		}
		return false
	})
	return s, ln.Addr().String()
}

// attachConsumer subscribes and resumes a durable consumer on addr and
// returns the client plus its delivery recorder.
func attachConsumer(t *testing.T, addr, name string) (*Client, *crashRecorder) {
	t.Helper()
	rec := &crashRecorder{}
	c, _ := durableDial(t, addr, ClientOptions{OnDurable: rec.onDurable})
	if err := c.Subscribe(expr.MustNew(1, expr.Eq(1, 1)), func(*expr.Event) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Resume(name, 0); err != nil {
		t.Fatal(err)
	}
	return c, rec
}

// TestReplicationCatchUpAndLiveTail: a follower started against a
// leader with history catches up (bulk segment shipping for the sealed
// prefix) and then tracks the live tail batch by batch, ending with a
// byte-identical record stream and the leader's consumer offsets.
func TestReplicationCatchUpAndLiveTail(t *testing.T) {
	leader, lAddr := startReplServer(t, t.TempDir(), nil)
	c, rec := attachConsumer(t, lAddr, "repl")
	// Phase 1 builds history until the leader has sealed segments for the
	// bulk catch-up to ship. How many records that takes depends on how
	// many share a flush (a batch never splits across segments), so the
	// loop counts segments, not publishes.
	phase1 := 0
	for len(leader.log.SealedSegments()) < 2 {
		if phase1 == 1000 {
			t.Fatalf("%d publishes sealed %d segments, want 2", phase1, len(leader.log.SealedSegments()))
		}
		if err := c.Publish(crashEvent(phase1)); err != nil {
			t.Fatal(err)
		}
		phase1++
		waitFor(t, "phase-1 delivery", func() bool {
			offs, _ := rec.snapshot()
			return len(offs) >= phase1
		})
	}

	follower, _ := startReplServer(t, t.TempDir(), func(s *Server) {
		s.Follow = lAddr
		s.NodeID = "follower-1"
	})
	waitFor(t, "follower catch-up", func() bool {
		return follower.log.NextOffset() == uint64(phase1)
	})
	if n := leader.replSegmentsShipped.Load(); n == 0 {
		t.Fatalf("catch-up over %d records in 512-byte segments shipped no sealed segments", phase1)
	}

	// Live tail: new publishes stream as raw batches.
	const phase2 = 10
	for seq := phase1; seq < phase1+phase2; seq++ {
		if err := c.Publish(crashEvent(seq)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "follower live tail", func() bool {
		return follower.log.NextOffset() == uint64(phase1+phase2)
	})
	if n := leader.replBatchesSent.Load(); n == 0 {
		t.Fatal("live tail shipped no batches")
	}

	// The follower's records are the leader's, verbatim.
	var seqs []int
	err := follower.log.Read(0, func(off uint64, recB []byte) error {
		name, tail, err := decodeConsumerRecord(recB)
		if err != nil {
			return err
		}
		if name != "repl" {
			return nil
		}
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
		seqs = append(seqs, eventSeq(ev))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != phase1+phase2 {
		t.Fatalf("follower log holds %d records, want %d", len(seqs), phase1+phase2)
	}
	for i, s := range seqs {
		if s != i {
			t.Fatalf("follower record %d has seq %d", i, s)
		}
	}

	// Consumer offsets ship too: the client auto-acks, the leader logs
	// offsets batches, the follower folds them as it ingests.
	waitFor(t, "offsets batch shipping", func() bool {
		v, ok := follower.log.Acked("repl")
		return ok && v == uint64(phase1+phase2)
	})
	if lead, foll := leader.Role(), follower.Role(); lead != "leader" || foll != "follower" {
		t.Fatalf("roles = %s/%s, want leader/follower", lead, foll)
	}
	if e := follower.epoch.Load(); e != 0 {
		t.Fatalf("epoch advanced to %d without a failover", e)
	}
}

// TestFollowerRejectsClientOps: a follower closes client connections
// that try to subscribe — without a nack frame, so sessions treat it as
// a transport failure and rotate to the leader.
func TestFollowerRejectsClientOps(t *testing.T) {
	_, lAddr := startReplServer(t, t.TempDir(), nil)
	follower, fAddr := startReplServer(t, t.TempDir(), func(s *Server) { s.Follow = lAddr })
	waitFor(t, "follower attached", func() bool {
		_, ok := follower.log.Replicated()
		_ = ok
		return follower.Role() == "follower"
	})
	nc, err := net.Dial("tcp", fAddr)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClientOpts(nc, ClientOptions{})
	defer cl.Close()
	err = cl.Subscribe(expr.MustNew(1, expr.Eq(1, 1)), func(*expr.Event) {})
	if err == nil {
		t.Fatal("subscribe on a follower succeeded")
	}
	if !isTransportErr(cl, err) {
		t.Fatalf("follower rejected with a nack (%v); must close without one so sessions fail over", err)
	}
}

// TestLeaderRetentionClampedByFollower: an attached follower pins the
// leader's retention floor — segments the follower still needs survive
// even when size retention wants them gone.
func TestLeaderRetentionClampedByFollower(t *testing.T) {
	leader, lAddr := startReplServer(t, t.TempDir(), func(s *Server) {
		s.Log.RetainBytes = 1024 // aggressive: a few 512-byte segments
	})
	// The replica attaches at offset 0 and never acks: a raw connection
	// that handshakes and then sits silent (pinging to stay alive).
	nc, err := net.Dial("tcp", lAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := writeFrame(nc, helloFrame()); err != nil {
		t.Fatal(err)
	}
	hello := appendUvarint([]byte{msgReplHello}, 0)
	hello = appendUvarint(hello, 0)
	hello = append(hello, "pinned"...)
	if err := writeFrame(nc, hello); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "replica attached", func() bool {
		_, ok := leader.log.Replicated()
		return ok
	})
	go func() { // drain leader frames so its outbox never stalls
		var buf []byte
		for {
			frame, err := readFrame(nc, buf)
			if err != nil {
				return
			}
			buf = frame
		}
	}()

	c, rec := attachConsumer(t, lAddr, "pin")
	const total = 60
	for seq := 0; seq < total; seq++ {
		if err := c.Publish(crashEvent(seq)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "delivery", func() bool {
		offs, _ := rec.snapshot()
		return len(offs) >= total
	})
	// Retention would have deleted the oldest segments by now; the
	// unacknowledged replica clamps the floor at 0.
	if first := leader.log.FirstOffset(); first != 0 {
		t.Fatalf("retention deleted up to offset %d despite an attached replica at 0", first)
	}
}

// replDialer wraps the follower's replication dials in faultnet so a
// test can impose an asymmetric partition on the live connection.
type replDialer struct {
	mu  sync.Mutex
	cur *faultnet.Conn
}

func (d *replDialer) dial(addr string) (net.Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	fc := faultnet.Wrap(nc, faultnet.Options{})
	d.mu.Lock()
	d.cur = fc
	d.mu.Unlock()
	return fc, nil
}

func (d *replDialer) conn() *faultnet.Conn {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cur
}

// TestAsymmetricPartitionFencesStaleLeader is the split-brain schedule:
// the leader's frames toward the follower are blackholed while the
// follower→leader direction keeps flowing. The follower promotes on
// silence, and its 'X' fence — which the asymmetry still delivers —
// terminates the stale leader before a second regime can diverge.
func TestAsymmetricPartitionFencesStaleLeader(t *testing.T) {
	leader, lAddr := startReplServer(t, t.TempDir(), nil)
	dialer := &replDialer{}
	follower, _ := startReplServer(t, t.TempDir(), func(s *Server) {
		s.Follow = lAddr
		s.NodeID = "f1"
		s.replDial = dialer.dial
	})
	c, rec := attachConsumer(t, lAddr, "split")
	for seq := 0; seq < 10; seq++ {
		if err := c.Publish(crashEvent(seq)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "replicated to follower", func() bool {
		return follower.log.NextOffset() == 10
	})

	// One-way partition: the follower stops hearing the leader.
	waitFor(t, "repl conn wrapped", func() bool { return dialer.conn() != nil })
	dialer.conn().BlackholeIn()

	waitFor(t, "follower promotion", func() bool { return follower.Role() == "leader" })
	if e := follower.epoch.Load(); e < 1 {
		t.Fatalf("promoted follower at epoch %d, want >= 1", e)
	}
	at, ok := uint64(follower.promotedAt.Load()), follower.promoted.Load()
	if !ok || at != 10 {
		t.Fatalf("promotedAt = %d,%v, want 10,true", at, ok)
	}
	// The fence flows follower→leader, which the partition spares.
	waitFor(t, "stale leader fenced", func() bool { return leader.Role() == "fenced" })
	if le, fe := leader.epoch.Load(), follower.epoch.Load(); le != fe {
		t.Fatalf("fenced leader at epoch %d, promoted follower at %d", le, fe)
	}
	// The fenced node rejects clients exactly like a follower.
	if err := c.Publish(crashEvent(99)); err == nil {
		// Publish is fire-and-forget; the rejection lands as a closed
		// connection on the next read. Wait for the client to notice.
		waitFor(t, "client dropped by fenced leader", func() bool { return c.Err() != nil })
	}
	_ = rec
}

// TestReplFailoverEndToEnd is the acceptance scenario: a -repl-sync
// leader dies mid-stream and a durable consumer on a multi-address
// session resumes on the promoted follower without losing anything it
// was ever delivered or anything committed after failover.
func TestReplFailoverEndToEnd(t *testing.T) {
	leader, lAddr := startReplServer(t, t.TempDir(), func(s *Server) { s.ReplSync = true })
	follower, fAddr := startReplServer(t, t.TempDir(), func(s *Server) {
		s.Follow = lAddr
		s.NodeID = "standby"
	})
	waitFor(t, "follower attached", func() bool {
		_, ok := leader.log.Replicated()
		return ok
	})

	var mu sync.Mutex
	gotSeqs := make(map[int]bool)
	gotOffs := make(map[uint64]bool)
	sess, err := DialSessionMulti([]string{lAddr, fAddr}, SessionConfig{
		Consumer:   "e2e",
		Seed:       1,
		MinBackoff: 10 * time.Millisecond,
		Logf:       t.Logf,
		Client: ClientOptions{OnDurable: func(off uint64, ev *expr.Event) {
			mu.Lock()
			gotSeqs[eventSeq(ev)] = true
			gotOffs[off] = true
			mu.Unlock()
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Subscribe(expr.MustNew(1, expr.Eq(1, 1)), func(*expr.Event) {}); err != nil {
		t.Fatal(err)
	}
	received := func(n int) bool {
		mu.Lock()
		defer mu.Unlock()
		return len(gotSeqs) >= n
	}

	const phase1 = 20
	for seq := 0; seq < phase1; seq++ {
		if err := sess.Publish(crashEvent(seq)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "phase-1 delivery", func() bool { return received(phase1) })
	// -repl-sync: everything delivered is already on the follower.
	repl, ok := leader.log.Replicated()
	if !ok || repl < phase1 {
		t.Fatalf("replicated watermark %d,%v after %d repl-sync deliveries", repl, ok, phase1)
	}

	// Kill the leader mid-stream; the follower promotes and the session
	// rotates to it.
	leader.Close()
	waitFor(t, "promotion", func() bool { return follower.Role() == "leader" })

	const phase2 = 20
	for seq := phase1; seq < phase1+phase2; seq++ {
		if err := sess.Publish(crashEvent(seq)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "phase-2 delivery on the promoted follower", func() bool {
		return received(phase1 + phase2)
	})

	mu.Lock()
	defer mu.Unlock()
	for seq := 0; seq < phase1+phase2; seq++ {
		if !gotSeqs[seq] {
			t.Fatalf("event seq %d lost across failover", seq)
		}
	}
	// Gap-free offsets: the session saw a contiguous offset range (the
	// follower's log is the leader's verbatim prefix plus its own
	// appends, so offsets line up across the failover).
	var max uint64
	for off := range gotOffs {
		if off > max {
			max = off
		}
	}
	for off := uint64(0); off <= max; off++ {
		if !gotOffs[off] {
			t.Fatalf("offset %d missing from the delivered stream (gap across failover)", off)
		}
	}
	if sess.Reconnects() == 0 {
		t.Fatal("session never reconnected; failover did not exercise rotation")
	}
}

// TestReplFailoverResumesAtLastAck: a promoted follower resumes a
// consumer at exactly the last acknowledgement it ingested. The
// leader's heartbeat outlasts the test, so no periodic snapshot could
// carry the ack; only the replicated log does.
func TestReplFailoverResumesAtLastAck(t *testing.T) {
	leader, lAddr := startReplServer(t, t.TempDir(), func(s *Server) { s.ReplHeartbeat = time.Hour })
	follower, fAddr := startReplServer(t, t.TempDir(), func(s *Server) { s.Follow = lAddr })
	waitFor(t, "follower attached", func() bool {
		_, ok := leader.log.Replicated()
		return ok
	})
	c, durables := durableDial(t, lAddr, ClientOptions{DisableAutoAck: true})
	resumedConsumer(t, c, "exact")
	const n, acked = 12, 7
	for seq := 0; seq < n; seq++ {
		if err := c.Publish(crashEvent(seq)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		recvDurable(t, durables)
	}
	if err := c.AckOffset(acked - 1); err != nil {
		t.Fatal(err)
	}
	// Frames on one connection are handled in order, so the ack is
	// logged no later than the flush of the next publish; a publish
	// after that flush reached the follower trails the ack in the log.
	for next := uint64(n + 1); next <= n+2; next++ {
		if err := c.Publish(crashEvent(int(next))); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "follower ingests the publish", func() bool { return follower.log.NextOffset() >= next })
	}
	c.Close()
	leader.Close()
	waitFor(t, "promotion", func() bool { return follower.Role() == "leader" })

	c2, durables2 := durableDial(t, fAddr, ClientOptions{DisableAutoAck: true})
	if err := c2.Subscribe(expr.MustNew(1, expr.Eq(1, 1)), func(*expr.Event) {}); err != nil {
		t.Fatal(err)
	}
	start, err := c2.Resume("exact", 0)
	if err != nil {
		t.Fatal(err)
	}
	if start != acked {
		t.Fatalf("promoted follower resumed the consumer at %d, want its last ack %d", start, acked)
	}
	for want := uint64(acked); want < n+2; want++ {
		if r := recvDurable(t, durables2); r.off != want {
			t.Fatalf("replay delivered offset %d, want %d", r.off, want)
		}
	}
}
