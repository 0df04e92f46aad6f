package broker

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/commitlog"
	"github.com/streammatch/apcm/metrics"
)

// These tests pin the staged durable path: the publisher's read loop
// stages a record and enqueues its 'D' frame at once, and the consumer
// connection's writer holds the frame until the record commits
// (writeDurable), so in-flight publishes share one flush.

// withFailpoint installs fp as the commit log's failpoint hook.
func withFailpoint(fp func(commitlog.FailpointInfo) error) func(*Server) {
	return func(s *Server) { s.Log.Failpoint = fp }
}

// histSnapshot reads one histogram from a registry snapshot.
func histSnapshot(t *testing.T, reg *metrics.Registry, name string) metrics.HistogramSnapshot {
	t.Helper()
	for _, v := range reg.Snapshot() {
		if v.Name == name {
			return v.Hist
		}
	}
	t.Fatalf("histogram %q not registered", name)
	return metrics.HistogramSnapshot{}
}

// resumedConsumer resumes c as consumer name from offset 0 and
// subscribes it to every event with attr 1 = 1.
func resumedConsumer(t *testing.T, c *Client, name string) {
	t.Helper()
	// Resume first: its reply precedes the replay, but the server's read
	// loop finishes the replay and flips the consumer live before it
	// handles the subscribe, so once Subscribe returns every later
	// publish is pushed live (and counted delivered), not replayed.
	if _, err := c.Resume(name, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe(expr.MustNew(1, expr.Eq(1, 1)), func(*expr.Event) {}); err != nil {
		t.Fatal(err)
	}
}

// recordingClient connects a client whose durable deliveries go to a
// recorder; unlike durableDial's channel it never blocks the read loop,
// so it suits streams longer than 64 frames.
func recordingClient(t *testing.T, addr string, opts ClientOptions) (*Client, *crashRecorder) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	rec := &crashRecorder{}
	opts.OnDurable = rec.onDurable
	c := NewClientOpts(nc, opts)
	t.Cleanup(func() { c.Close() })
	return c, rec
}

// dialPublisher connects a plain publishing client.
func dialPublisher(t *testing.T, addr string) *Client {
	t.Helper()
	pub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pub.Close() })
	return pub
}

// TestDurablePublishesShareFlushes is the per-layer evidence for the
// staged commit: with the flusher held on its first batch, all 64
// in-flight publishes to one durable consumer still get staged (the
// read loop never waits for a commit), so the log flushes them in a
// handful of batches — more than one record per flush on average.
func TestDurablePublishesShareFlushes(t *testing.T) {
	const inFlight = 64
	release := make(chan struct{})
	var held atomic.Bool
	srv, addr, reg := startDurableServer(t, t.TempDir(), withFailpoint(func(fi commitlog.FailpointInfo) error {
		if fi.Point == commitlog.FpPreSync && !held.Swap(true) {
			<-release
		}
		return nil
	}))
	c, durables := durableDial(t, addr, ClientOptions{})
	resumedConsumer(t, c, "share")
	pub := dialPublisher(t, addr)
	for seq := 0; seq < inFlight; seq++ {
		if err := pub.Publish(crashEvent(seq)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "every publish staged behind the held flush", func() bool {
		return metricValue(t, reg, "apcm_broker_log_appends_total") == inFlight
	})
	close(release)
	for i := 0; i < inFlight; i++ {
		if r := recvDurable(t, durables); r.off != uint64(i) || eventSeq(r.ev) != i {
			t.Fatalf("delivery %d: offset %d seq %d", i, r.off, eventSeq(r.ev))
		}
	}
	h := histSnapshot(t, reg, "apcm_broker_log_flush_records")
	if h.Count == 0 || h.Mean <= 1 {
		t.Fatalf("%d records took %d flushes (mean %.2f records/flush), want > 1 per flush", inFlight, h.Count, h.Mean)
	}
	waitFor(t, "delivered count", func() bool {
		_, del := srv.Stats()
		return del == inFlight
	})
}

// TestDurableSlowDiskNeverDropsConsumer: frames waiting for their
// commit sit in the consumer's outbox, so a disk stalled past
// SlowConsumerTimeout must block the publisher (the staging bound,
// maxUnsettled) rather than fill the outbox and trip the slow-consumer
// drop. The stream stays gap-free.
func TestDurableSlowDiskNeverDropsConsumer(t *testing.T) {
	const total = 3 * outboxSize
	var stalling atomic.Bool
	stalling.Store(true)
	srv, addr, _ := startDurableServer(t, t.TempDir(), func(s *Server) {
		s.SlowConsumerTimeout = 50 * time.Millisecond
	}, withFailpoint(func(fi commitlog.FailpointInfo) error {
		if fi.Point == commitlog.FpPreSync && stalling.Load() {
			time.Sleep(200 * time.Millisecond) // 4× SlowConsumerTimeout
		}
		return nil
	}))
	c, rec := recordingClient(t, addr, ClientOptions{})
	resumedConsumer(t, c, "slowdisk")
	pub := dialPublisher(t, addr)
	for seq := 0; seq < total; seq++ {
		if err := pub.Publish(crashEvent(seq)); err != nil {
			t.Fatal(err)
		}
	}
	// Keep the disk slow for the first stretch of the stream only, so the
	// test ends in test time.
	waitFor(t, "half the stream delivered", func() bool {
		if n := srv.SlowConsumerDrops(); n != 0 {
			t.Fatalf("a slow disk dropped %d consumer(s)", n)
		}
		return rec.count() >= total/2
	})
	stalling.Store(false)
	waitFor(t, "whole stream delivered", func() bool { return rec.count() >= total })
	if n := srv.SlowConsumerDrops(); n != 0 {
		t.Fatalf("a slow disk dropped %d consumer(s)", n)
	}
	offs, _ := rec.snapshot()
	for i, off := range offs {
		if off != uint64(i) {
			t.Fatalf("delivery %d at offset %d (gap or reorder)", i, off)
		}
	}
	if err := c.Err(); err != nil {
		t.Fatalf("consumer connection failed: %v", err)
	}
}

// TestDurableCommitFailureDropsFrame: a 'D' frame whose commit fails
// (sticky FpWrite) is dropped and not counted delivered, the consumer's
// connection stays up, and Shutdown's drain treats the dropped frame as
// settled instead of waiting for it.
func TestDurableCommitFailureDropsFrame(t *testing.T) {
	var armed atomic.Bool
	boom := errors.New("injected write failure")
	srv, addr, reg := startDurableServer(t, t.TempDir(), withFailpoint(func(fi commitlog.FailpointInfo) error {
		if fi.Point == commitlog.FpWrite && armed.Load() {
			return boom
		}
		return nil
	}))
	c, durables := durableDial(t, addr, ClientOptions{})
	resumedConsumer(t, c, "doomed")
	pub := dialPublisher(t, addr)
	if err := pub.Publish(crashEvent(0)); err != nil {
		t.Fatal(err)
	}
	if r := recvDurable(t, durables); r.off != 0 {
		t.Fatalf("healthy delivery at offset %d, want 0", r.off)
	}
	// writeDurable counts a frame delivered only after writing it, so
	// the client can hold frame 0 before Stats does.
	waitFor(t, "the healthy delivery to be counted", func() bool {
		_, del := srv.Stats()
		return del == 1
	})
	armed.Store(true)
	if err := pub.Publish(crashEvent(1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the commit failure", func() bool {
		return metricValue(t, reg, "apcm_broker_log_append_errors_total") >= 1
	})
	select {
	case r := <-durables:
		t.Fatalf("frame at offset %d delivered although its commit failed", r.off)
	case <-time.After(50 * time.Millisecond):
	}
	if _, del := srv.Stats(); del != 1 {
		t.Fatalf("delivered = %d, want 1 (the failed frame must not count)", del)
	}
	// The writer moved past the dropped frame: a request answered through
	// the same outbox still round-trips.
	if err := c.Subscribe(expr.MustNew(2, expr.Eq(1, 2)), func(*expr.Event) {}); err != nil {
		t.Fatalf("consumer connection unusable after a failed commit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown after a dropped frame: %v", err)
	}
	if srv.drainFlushed.Load() != 1 {
		t.Fatalf("drainFlushed = %d, want 1", srv.drainFlushed.Load())
	}
}

// TestShutdownDrainsStagedFrames: frames staged but not yet committed
// when Shutdown starts are still delivered — the drain waits for their
// commit and their write, not just for an empty outbox.
func TestShutdownDrainsStagedFrames(t *testing.T) {
	const n = 10
	release := make(chan struct{})
	var holding atomic.Bool
	srv, addr, reg := startDurableServer(t, t.TempDir(), withFailpoint(func(fi commitlog.FailpointInfo) error {
		if fi.Point == commitlog.FpPreSync && holding.Load() {
			<-release
		}
		return nil
	}))
	// No acks: an ack written into the connection Shutdown is closing
	// would fail the client before it read every drained frame.
	c, durables := durableDial(t, addr, ClientOptions{DisableAutoAck: true})
	resumedConsumer(t, c, "drain")
	pub := dialPublisher(t, addr)
	holding.Store(true)
	for seq := 0; seq < n; seq++ {
		if err := pub.Publish(crashEvent(seq)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "every publish staged", func() bool {
		return metricValue(t, reg, "apcm_broker_log_appends_total") == n
	})
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned (%v) while staged frames awaited their commit", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for i := 0; i < n; i++ {
		if r := recvDurable(t, durables); r.off != uint64(i) {
			t.Fatalf("drained delivery %d at offset %d", i, r.off)
		}
	}
	if _, del := srv.Stats(); del != n {
		t.Fatalf("delivered = %d, want %d", del, n)
	}
}

// TestResumeDuringStagedPublishes: a consumer resumes while a publisher
// keeps staging records for it behind a slowed flusher, so the
// replay→live flip lands among staged, uncommitted records. Every
// record must arrive exactly once, in offset order: the final replay
// round waits for what was staged before the flip, and everything
// staged after it is pushed live. Run it with -count=20 -race.
func TestResumeDuringStagedPublishes(t *testing.T) {
	const history, live = 20, 300
	_, addr, reg := startDurableServer(t, t.TempDir(), withFailpoint(func(fi commitlog.FailpointInfo) error {
		if fi.Point == commitlog.FpPreSync {
			time.Sleep(time.Millisecond)
		}
		return nil
	}))
	// History the successor must replay: logged, never acknowledged.
	c1, durables1 := durableDial(t, addr, ClientOptions{DisableAutoAck: true})
	resumedConsumer(t, c1, "handoff")
	pub := dialPublisher(t, addr)
	for seq := 0; seq < history; seq++ {
		if err := pub.Publish(crashEvent(seq)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < history; i++ {
		recvDurable(t, durables1)
	}
	c1.Close()
	// Until the server has torn c1 down, a live publish still matches its
	// durable subscription — logged for the consumer, so replayed to c2 —
	// and c2's volatile one too: one event, two frames.
	waitFor(t, "the predecessor's teardown", func() bool {
		return metricValue(t, reg, "apcm_broker_subscriptions") == 0
	})

	var frames atomic.Int64 // every delivery frame, volatile or durable
	c2, rec := recordingClient(t, addr, ClientOptions{})
	if err := c2.Subscribe(expr.MustNew(1, expr.Eq(1, 1)), func(*expr.Event) { frames.Add(1) }); err != nil {
		t.Fatal(err)
	}
	pubDone := make(chan error, 1)
	go func() {
		for seq := history; seq < history+live; seq++ {
			if err := pub.Publish(crashEvent(seq)); err != nil {
				pubDone <- err
				return
			}
		}
		pubDone <- nil
	}()
	waitFor(t, "successor resume", func() bool {
		start, err := c2.Resume("handoff", 0)
		if err == nil && start != 0 {
			t.Fatalf("successor resumed at %d, want 0", start)
		}
		return err == nil
	})
	if err := <-pubDone; err != nil {
		t.Fatal(err)
	}
	// One frame per event: the replayed history plus every live publish,
	// as a volatile 'M' frame before the resume claimed the consumer and
	// a 'D' frame (replayed or pushed) after.
	waitFor(t, "every event delivered", func() bool { return frames.Load() == history+live })
	offs, _ := rec.snapshot()
	for i, off := range offs {
		if off != uint64(i) {
			t.Fatalf("durable delivery %d at offset %d (gap, duplicate or reorder across the flip)", i, off)
		}
	}
	if logged := metricValue(t, reg, "apcm_broker_log_appends_total"); float64(len(offs)) != logged {
		t.Fatalf("%d durable deliveries for %v logged records", len(offs), logged)
	}
	t.Logf("%d of %d live publishes reached the consumer durably", len(offs)-history, live)
}
