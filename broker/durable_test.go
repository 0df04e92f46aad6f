package broker

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/commitlog"
	"github.com/streammatch/apcm/metrics"
)

// startDurableServer runs a broker with durability enabled on dir;
// tune, when given, adjusts the server before Serve.
func startDurableServer(t *testing.T, dir string, tune ...func(*Server)) (*Server, string, *metrics.Registry) {
	t.Helper()
	eng := apcm.MustNew(apcm.Options{Workers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(eng)
	s.Logf = t.Logf
	s.LogDir = dir
	s.Log = commitlog.Config{FlushInterval: 200 * time.Microsecond}
	s.Metrics = metrics.New()
	for _, f := range tune {
		f(s)
	}
	go func() {
		if err := s.Serve(ln); err != nil {
			t.Logf("Serve: %v", err)
		}
	}()
	t.Cleanup(func() { s.Close(); eng.Close() })
	// Wait until Serve has attached metrics and opened the log: the
	// commit log registers its segment gauge as the last startup step
	// before the accept loop.
	waitFor(t, "durable server ready", func() bool {
		for _, v := range s.Metrics.Snapshot() {
			if v.Name == "apcm_broker_log_segments" {
				return true
			}
		}
		return false
	})
	return s, ln.Addr().String(), s.Metrics
}

type durableRec struct {
	off uint64
	ev  *expr.Event
}

// durableDial connects a client that records every durable delivery.
func durableDial(t *testing.T, addr string, opts ClientOptions) (*Client, <-chan durableRec) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan durableRec, 64)
	user := opts.OnDurable
	opts.OnDurable = func(off uint64, ev *expr.Event) {
		ch <- durableRec{off, ev}
		if user != nil {
			user(off, ev)
		}
	}
	c := NewClientOpts(nc, opts)
	t.Cleanup(func() { c.Close() })
	return c, ch
}

func recvDurable(t *testing.T, ch <-chan durableRec) durableRec {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for durable delivery")
		return durableRec{}
	}
}

// TestDurableDeliveryBasics: a resumed consumer's matches arrive as
// durable frames with sequential log offsets, handlers still fire, and
// auto-acks advance the persisted offset.
func TestDurableDeliveryBasics(t *testing.T) {
	dir := t.TempDir()
	_, addr, reg := startDurableServer(t, dir)
	c, durables := durableDial(t, addr, ClientOptions{})
	got := make(chan *expr.Event, 16)
	if err := c.Subscribe(expr.MustNew(1, expr.Eq(1, 1)), func(ev *expr.Event) { got <- ev }); err != nil {
		t.Fatal(err)
	}
	start, err := c.Resume("basics", 0)
	if err != nil {
		t.Fatal(err)
	}
	if start != 0 {
		t.Fatalf("fresh consumer start = %d, want 0", start)
	}
	if v := c.version.Load(); v != ProtocolVersion {
		t.Fatalf("negotiated version %d, want %d", v, ProtocolVersion)
	}
	for i := 0; i < 3; i++ {
		if err := c.Publish(expr.MustEvent(expr.P(1, 1), expr.P(2, expr.Value(i)))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		r := recvDurable(t, durables)
		if r.off != uint64(i) {
			t.Fatalf("delivery %d at offset %d", i, r.off)
		}
		recvEvent(t, got)
	}
	waitFor(t, "offset acks", func() bool {
		return metricValue(t, reg, "apcm_broker_offset_acks_total") >= 3
	})
	if v := metricValue(t, reg, "apcm_broker_resumes_total"); v != 1 {
		t.Fatalf("resumes metric = %v, want 1", v)
	}
	if v := metricValue(t, reg, "apcm_broker_consumers"); v != 1 {
		t.Fatalf("consumers gauge = %v, want 1", v)
	}
}

// TestDurableResumeAfterRestart: acknowledged deliveries stay
// acknowledged across a full broker restart on the same directory — the
// second resume starts past them and replays nothing — while an event
// published after the restart flows durably again.
func TestDurableResumeAfterRestart(t *testing.T) {
	dir := t.TempDir()
	srv1, addr1, reg1 := startDurableServer(t, dir)
	c1, durables1 := durableDial(t, addr1, ClientOptions{})
	if err := c1.Subscribe(expr.MustNew(1, expr.Eq(1, 1)), func(*expr.Event) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Resume("restart", 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := c1.Publish(expr.MustEvent(expr.P(1, 1))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		recvDurable(t, durables1)
	}
	waitFor(t, "acks persisted", func() bool {
		return metricValue(t, reg1, "apcm_broker_offset_acks_total") >= 5
	})
	c1.Close()
	srv1.Close()

	_, addr2, _ := startDurableServer(t, dir)
	c2, durables2 := durableDial(t, addr2, ClientOptions{})
	if err := c2.Subscribe(expr.MustNew(1, expr.Eq(1, 1)), func(*expr.Event) {}); err != nil {
		t.Fatal(err)
	}
	start, err := c2.Resume("restart", 0)
	if err != nil {
		t.Fatal(err)
	}
	if start != 5 {
		t.Fatalf("resume after restart starts at %d, want 5 (all acked)", start)
	}
	select {
	case r := <-durables2:
		t.Fatalf("unexpected replay of offset %d", r.off)
	case <-time.After(50 * time.Millisecond):
	}
	if err := c2.Publish(expr.MustEvent(expr.P(1, 1))); err != nil {
		t.Fatal(err)
	}
	if r := recvDurable(t, durables2); r.off != 5 {
		t.Fatalf("post-restart delivery at offset %d, want 5", r.off)
	}
}

// TestDurableRedeliveryWithoutAck: with auto-ack disabled and no manual
// acks, a successor consumer connection replays everything from the
// requested offset — the unacknowledged deliveries were not lost.
func TestDurableRedeliveryWithoutAck(t *testing.T) {
	dir := t.TempDir()
	_, addr, _ := startDurableServer(t, dir)
	c1, durables1 := durableDial(t, addr, ClientOptions{DisableAutoAck: true})
	if err := c1.Subscribe(expr.MustNew(1, expr.Eq(1, 1)), func(*expr.Event) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Resume("noack", 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := c1.Publish(expr.MustEvent(expr.P(1, 1), expr.P(2, expr.Value(i)))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		recvDurable(t, durables1)
	}
	c1.Close()

	// The successor needs no subscriptions to receive the replay: the
	// log records what was matched, not how to re-match it.
	c2, durables2 := durableDial(t, addr, ClientOptions{DisableAutoAck: true})
	start, err := c2.Resume("noack", 0)
	if err != nil {
		t.Fatal(err)
	}
	if start != 0 {
		t.Fatalf("unacked consumer resumes at %d, want 0", start)
	}
	for i := 0; i < 2; i++ {
		if r := recvDurable(t, durables2); r.off != uint64(i) {
			t.Fatalf("replayed offset %d, want %d", r.off, i)
		}
	}
	// Manual ack through offset 1, then a third connection starts at 2.
	if err := c2.AckOffset(1); err != nil {
		t.Fatal(err)
	}
	c2.Close()
	waitFor(t, "third resume past acked prefix", func() bool {
		c3, _ := durableDial(t, addr, ClientOptions{})
		defer c3.Close()
		start, err := c3.Resume("noack", 0)
		return err == nil && start == 2
	})
}

// TestCheckpointErrors: a Checkpoint that cannot persist its state
// reports the failure and counts it on
// apcm_broker_checkpoint_errors_total.
func TestCheckpointErrors(t *testing.T) {
	dir := t.TempDir()
	srv, _, reg := startDurableServer(t, dir)
	// A path under a regular file is unwritable for the subscription
	// checkpoint.
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := srv.Checkpoint(filepath.Join(blocker, "subs.ckpt")); err == nil {
		t.Fatal("Checkpoint to a path under a file succeeded")
	}
	if v := metricValue(t, reg, "apcm_broker_checkpoint_errors_total"); v < 1 {
		t.Fatalf("checkpoint errors metric = %v, want >= 1", v)
	}
	// A healthy checkpoint succeeds and counts nothing further.
	before := metricValue(t, reg, "apcm_broker_checkpoint_errors_total")
	if err := srv.Checkpoint(filepath.Join(dir, "subs.ckpt")); err != nil {
		t.Fatalf("healthy Checkpoint: %v", err)
	}
	if v := metricValue(t, reg, "apcm_broker_checkpoint_errors_total"); v != before {
		t.Fatalf("healthy Checkpoint moved the error counter %v -> %v", before, v)
	}
}

// TestVersionNegotiatesDown: a client announcing a future version gets
// the server's highest (current ProtocolVersion) and the connection
// works normally.
func TestVersionNegotiatesDown(t *testing.T) {
	_, addr := startServer(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := writeFrame(nc, []byte{msgHello, 99}); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := readFrame(nc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply) != 2 || reply[0] != msgHello || reply[1] != ProtocolVersion {
		t.Fatalf("negotiation reply = %v, want hello version %d", reply, ProtocolVersion)
	}
	if err := writeFrame(nc, []byte{msgPing}); err != nil {
		t.Fatal(err)
	}
	if reply, err = readFrame(nc, nil); err != nil || reply[0] != msgPong {
		t.Fatalf("ping after negotiation: %v %v", reply, err)
	}
}

// TestResumeRejections: resume is nacked — without killing the
// connection — for invalid consumer names, on brokers without
// durability, for a second resume on one connection, and while another
// connection holds the consumer.
func TestResumeRejections(t *testing.T) {
	t.Run("no log dir", func(t *testing.T) {
		_, addr := startServer(t)
		c, _ := durableDial(t, addr, ClientOptions{})
		if _, err := c.Resume("x", 0); err == nil || !strings.Contains(err.Error(), "disabled") {
			t.Fatalf("resume without durability: %v", err)
		}
		if err := c.Publish(expr.MustEvent(expr.P(1, 1))); err != nil {
			t.Fatalf("connection died after nack: %v", err)
		}
	})
	t.Run("invalid names", func(t *testing.T) {
		dir := t.TempDir()
		_, addr, _ := startDurableServer(t, dir)
		c, _ := durableDial(t, addr, ClientOptions{})
		for _, name := range []string{"", ".hidden", "a/b", "has space", strings.Repeat("x", 200)} {
			if _, err := c.Resume(name, 0); err == nil {
				t.Fatalf("resume accepted invalid name %q", name)
			}
		}
	})
	t.Run("double resume and busy", func(t *testing.T) {
		dir := t.TempDir()
		_, addr, _ := startDurableServer(t, dir)
		c1, _ := durableDial(t, addr, ClientOptions{})
		if _, err := c1.Resume("solo", 0); err != nil {
			t.Fatal(err)
		}
		if _, err := c1.Resume("other", 0); err == nil || !strings.Contains(err.Error(), "already resumed") {
			t.Fatalf("second resume on one connection: %v", err)
		}
		c2, _ := durableDial(t, addr, ClientOptions{})
		if _, err := c2.Resume("solo", 0); err == nil || !strings.Contains(err.Error(), "already attached") {
			t.Fatalf("busy consumer resume: %v", err)
		}
		// Once the holder disconnects, the successor attaches.
		c1.Close()
		waitFor(t, "consumer released", func() bool {
			c3, _ := durableDial(t, addr, ClientOptions{})
			defer c3.Close()
			_, err := c3.Resume("solo", 0)
			return err == nil
		})
	})
}

// TestSessionDurableResume: a Session with a Consumer identity rides a
// broker restart — it reconnects, resumes its consumer past everything
// it already saw (no duplicate delivery of offset 0), and new matches
// keep flowing durably with continuous offsets.
func TestSessionDurableResume(t *testing.T) {
	seed := faultSeed(t)
	dir := t.TempDir()
	srv1, addr1, _ := startDurableServer(t, dir)

	var mu sync.Mutex
	var offs []uint64
	var addr addrBox
	addr.store(addr1)
	sess, err := DialSession(addr1, SessionConfig{
		Consumer:   "sess",
		Seed:       seed,
		MinBackoff: 5 * time.Millisecond,
		Dial:       func() (net.Conn, error) { return net.Dial("tcp", addr.load()) },
		Client: ClientOptions{
			OnDurable: func(off uint64, ev *expr.Event) {
				mu.Lock()
				offs = append(offs, off)
				mu.Unlock()
			},
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Subscribe(expr.MustNew(1, expr.Eq(1, 1)), func(*expr.Event) {}); err != nil {
		t.Fatal(err)
	}
	pub, err := Dial(addr1)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(expr.MustEvent(expr.P(1, 1))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first durable delivery", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(offs) >= 1
	})
	pub.Close()
	srv1.Close()

	_, addr2, _ := startDurableServer(t, dir)
	addr.store(addr2)
	// State alone can still read the dead srv1 connection's Connected;
	// a counted reconnect has resubscribed and resumed on srv2.
	waitFor(t, "session reconnected", func() bool {
		return sess.Reconnects() >= 1 && sess.State() == SessionConnected
	})
	pub2, err := Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer pub2.Close()
	if err := pub2.Publish(expr.MustEvent(expr.P(1, 1))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "durable delivery after restart", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(offs) >= 2
	})
	mu.Lock()
	defer mu.Unlock()
	if offs[0] != 0 || offs[len(offs)-1] != 1 {
		t.Fatalf("offsets across restart = %v, want [0 1]", offs)
	}
	if len(offs) != 2 {
		t.Fatalf("duplicate deliveries across restart: %v", offs)
	}
}

// addrBox swaps the dial target between broker incarnations.
type addrBox struct {
	mu sync.Mutex
	v  string
}

func (a *addrBox) store(s string) { a.mu.Lock(); a.v = s; a.mu.Unlock() }
func (a *addrBox) load() string   { a.mu.Lock(); defer a.mu.Unlock(); return a.v }
