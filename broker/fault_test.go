package broker

import (
	"context"
	"errors"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/faultnet"
	"github.com/streammatch/apcm/metrics"
)

// faultSeed is the deterministic seed driving every fault scenario. It
// is logged unconditionally so a failing run names its reproduction;
// override with APCM_FAULT_SEED to replay a specific schedule.
func faultSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(1)
	if env := os.Getenv("APCM_FAULT_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad APCM_FAULT_SEED %q: %v", env, err)
		}
		seed = v
	}
	t.Logf("faultnet seed = %d (override with APCM_FAULT_SEED)", seed)
	return seed
}

// stateRecorder collects session state transitions.
type stateRecorder struct {
	mu     sync.Mutex
	states []SessionState
}

func (r *stateRecorder) record(st SessionState) {
	r.mu.Lock()
	r.states = append(r.states, st)
	r.mu.Unlock()
}

func (r *stateRecorder) saw(want SessionState) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, st := range r.states {
		if st == want {
			return true
		}
	}
	return false
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSessionRecoversAcrossBrokerRestart is the end-to-end recovery
// proof: the broker restarts mid-stream (new engine, same address), the
// session reconnects and resubscribes automatically, an event published
// during the outage is buffered and flushed, and an event published
// after recovery reaches the same handler.
func TestSessionRecoversAcrossBrokerRestart(t *testing.T) {
	seed := faultSeed(t)
	eng1 := apcm.MustNew(apcm.Options{Workers: 1})
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln1.Addr().String()
	srv1 := NewServer(eng1)
	srv1.Logf = t.Logf
	go srv1.Serve(ln1)

	rec := &stateRecorder{}
	reg := metrics.New()
	sess, err := DialSession(addr, SessionConfig{
		MinBackoff:    5 * time.Millisecond,
		MaxBackoff:    100 * time.Millisecond,
		Seed:          seed,
		OnStateChange: rec.record,
		Logf:          t.Logf,
		Metrics:       reg,
		Client:        ClientOptions{PingInterval: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	got := make(chan *expr.Event, 64)
	if err := sess.Subscribe(expr.MustNew(7, expr.Eq(1, 1)), func(ev *expr.Event) { got <- ev }); err != nil {
		t.Fatal(err)
	}
	match := expr.MustEvent(expr.P(1, 1))
	if err := sess.Publish(match); err != nil {
		t.Fatal(err)
	}
	recvEvent(t, got)

	// Broker restart: the first server dies hard, taking all server-side
	// subscription state with it.
	srv1.Close()
	eng1.Close()
	waitFor(t, "session to notice the outage", func() bool { return sess.State() == SessionReconnecting })

	// Published during the outage: must buffer, not error, not block.
	if err := sess.Publish(match); err != nil {
		t.Fatalf("publish during outage: %v", err)
	}

	// Restart on the same address with a fresh engine (no subscriptions).
	eng2 := apcm.MustNew(apcm.Options{Workers: 1})
	defer eng2.Close()
	var ln2 net.Listener
	waitFor(t, "address to rebind", func() bool {
		ln2, err = net.Listen("tcp", addr)
		return err == nil
	})
	srv2 := NewServer(eng2)
	srv2.Logf = t.Logf
	go srv2.Serve(ln2)
	defer srv2.Close()

	waitFor(t, "session to reconnect", func() bool { return sess.State() == SessionConnected })
	if n := sess.Reconnects(); n < 1 {
		t.Fatalf("Reconnects = %d, want >= 1", n)
	}
	// The buffered event flushes through the replayed subscription.
	recvEvent(t, got)
	// And a subsequently published event is delivered to the same handler.
	if err := sess.Publish(match); err != nil {
		t.Fatal(err)
	}
	recvEvent(t, got)

	if !rec.saw(SessionReconnecting) || !rec.saw(SessionConnected) {
		t.Fatalf("state transitions missing reconnecting/connected: %v", rec.states)
	}
	if got := metricValue(t, reg, "apcm_broker_reconnects_total"); got < 1 {
		t.Fatalf("apcm_broker_reconnects_total = %g, want >= 1", got)
	}
	if got := metricValue(t, reg, "apcm_broker_resubscribes_total"); got < 1 {
		t.Fatalf("apcm_broker_resubscribes_total = %g, want >= 1", got)
	}
}

// TestSessionHeartbeatDetectsPartition blackholes the client's link —
// the socket stays open but nothing flows. The client's heartbeat
// timeout must detect the dead link and the session must recover over a
// fresh connection.
func TestSessionHeartbeatDetectsPartition(t *testing.T) {
	seed := faultSeed(t)
	_, addr := startServer(t)

	var mu sync.Mutex
	var conns []*faultnet.Conn
	rec := &stateRecorder{}
	sess, err := DialSession(addr, SessionConfig{
		MinBackoff: 5 * time.Millisecond,
		MaxBackoff: 100 * time.Millisecond,
		Seed:       seed,
		Dial: func() (net.Conn, error) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			fc := faultnet.Wrap(nc, faultnet.Options{Seed: seed})
			mu.Lock()
			conns = append(conns, fc)
			mu.Unlock()
			return fc, nil
		},
		OnStateChange: rec.record,
		Logf:          t.Logf,
		Client: ClientOptions{
			PingInterval: 20 * time.Millisecond,
			PongTimeout:  100 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	got := make(chan *expr.Event, 64)
	if err := sess.Subscribe(expr.MustNew(3, expr.Ge(1, 0)), func(ev *expr.Event) { got <- ev }); err != nil {
		t.Fatal(err)
	}
	if err := sess.Publish(expr.MustEvent(expr.P(1, 5))); err != nil {
		t.Fatal(err)
	}
	recvEvent(t, got)

	// Partition: the first connection silently stops passing traffic.
	mu.Lock()
	conns[0].Blackhole()
	mu.Unlock()

	waitFor(t, "heartbeat timeout to trigger reconnect", func() bool {
		return sess.Reconnects() >= 1 && sess.State() == SessionConnected
	})
	if err := sess.Publish(expr.MustEvent(expr.P(1, 6))); err != nil {
		t.Fatal(err)
	}
	recvEvent(t, got)
	if !rec.saw(SessionReconnecting) {
		t.Fatalf("no reconnecting transition recorded: %v", rec.states)
	}
}

// TestSessionOverSlowChunkedLink runs a session over a degraded link —
// added latency and writes shredded into tiny chunks — and requires
// lossless delivery with no spurious reconnects (heartbeat tuning must
// tolerate slowness that is not death).
func TestSessionOverSlowChunkedLink(t *testing.T) {
	seed := faultSeed(t)
	_, addr := startServer(t)

	sess, err := DialSession(addr, SessionConfig{
		Seed: seed,
		Dial: func() (net.Conn, error) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return faultnet.Wrap(nc, faultnet.Options{
				Seed:     seed,
				Latency:  time.Millisecond,
				Jitter:   500 * time.Microsecond,
				MaxChunk: 5,
			}), nil
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	var delivered atomic.Int64
	if err := sess.Subscribe(expr.MustNew(1, expr.Ge(1, 0)), func(*expr.Event) { delivered.Add(1) }); err != nil {
		t.Fatal(err)
	}
	const total = 30
	for i := 0; i < total; i++ {
		if err := sess.Publish(expr.MustEvent(expr.P(1, expr.Value(i)))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all events over the slow link", func() bool { return delivered.Load() == total })
	if n := sess.Reconnects(); n != 0 {
		t.Fatalf("slow link caused %d spurious reconnects", n)
	}
}

// TestSessionRecoversFromMidFrameResets hard-closes the link after a
// byte budget — typically mid-frame — on every connection the session
// makes. The session must keep cycling: reconnect, resubscribe, resume
// delivery, including retrying the publish frame that was in flight
// when the cut happened.
func TestSessionRecoversFromMidFrameResets(t *testing.T) {
	seed := faultSeed(t)
	_, addr := startServer(t)

	sess, err := DialSession(addr, SessionConfig{
		MinBackoff: 2 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
		Seed:       seed,
		Dial: func() (net.Conn, error) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return faultnet.Wrap(nc, faultnet.Options{Seed: seed, ResetAfterBytes: 160}), nil
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	var delivered atomic.Int64
	if err := sess.Subscribe(expr.MustNew(1, expr.Ge(1, 0)), func(*expr.Event) { delivered.Add(1) }); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for delivered.Load() < 20 || sess.Reconnects() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("stalled: delivered=%d reconnects=%d", delivered.Load(), sess.Reconnects())
		}
		if err := sess.Publish(expr.MustEvent(expr.P(1, 1))); err != nil && !errors.Is(err, ErrBufferFull) {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSessionRecoversFromCorruption flips a byte in every Nth write.
// Sooner or later a corrupted frame desynchronizes or fails to decode,
// the server terminates the connection, and the session must recover
// and keep delivering.
func TestSessionRecoversFromCorruption(t *testing.T) {
	seed := faultSeed(t)
	_, addr := startServer(t)

	sess, err := DialSession(addr, SessionConfig{
		MinBackoff: 2 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
		Seed:       seed,
		Dial: func() (net.Conn, error) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return faultnet.Wrap(nc, faultnet.Options{Seed: seed, CorruptEveryN: 7}), nil
		},
		Logf: t.Logf,
		Client: ClientOptions{
			// Corruption can desynchronize framing in ways that stall
			// rather than error; a tight pong timeout converts any such
			// stall into a reconnect.
			PingInterval: 20 * time.Millisecond,
			PongTimeout:  200 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	var delivered atomic.Int64
	if err := sess.Subscribe(expr.MustNew(1, expr.Ge(1, 0)), func(*expr.Event) { delivered.Add(1) }); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for delivered.Load() < 20 || sess.Reconnects() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("stalled: delivered=%d reconnects=%d", delivered.Load(), sess.Reconnects())
		}
		if err := sess.Publish(expr.MustEvent(expr.P(1, 1))); err != nil && !errors.Is(err, ErrBufferFull) {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestShutdownDrainsSlowConsumer is the graceful-drain acceptance test:
// a consumer that reads slowly (but is alive) has a deep outbox when
// Shutdown begins. Every queued match frame must reach it before the
// server closes, and new work must be nacked while the drain runs.
func TestShutdownDrainsSlowConsumer(t *testing.T) {
	eng := apcm.MustNew(apcm.Options{Workers: 1})
	defer eng.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	srv := NewServer(eng)
	srv.Logf = t.Logf
	srv.SlowConsumerTimeout = 30 * time.Second // slow is not dead: no drops
	srv.Metrics = reg
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()

	// The slow consumer: subscribes to everything, then reads one frame
	// every few milliseconds. Small socket buffers keep the backlog in
	// the server's outbox where Shutdown can see it.
	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	slow.(*net.TCPConn).SetReadBuffer(4096)
	rawHello(t, slow)
	sub := expr.MustNew(1, expr.Ge(1, 0))
	if err := writeFrame(slow, expr.AppendExpression([]byte{msgSubscribe}, sub)); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(slow, nil); err != nil { // subscribe ack
		t.Fatal(err)
	}
	var sc *conn
	waitFor(t, "slow conn to register", func() bool {
		srv.mu.RLock()
		defer srv.mu.RUnlock()
		for c := range srv.conns {
			if c.nc.RemoteAddr().String() == slow.LocalAddr().String() {
				sc = c
				return true
			}
		}
		return false
	})
	sc.nc.(*net.TCPConn).SetWriteBuffer(4096)

	frames := make(chan int, 1)
	go func() {
		n := 0
		var buf []byte
		for {
			f, err := readFrame(slow, buf)
			if err != nil {
				frames <- n
				return
			}
			buf = f
			if f[0] == msgMatch {
				n++
			}
			time.Sleep(3 * time.Millisecond)
		}
	}()

	// Publish padded events so a handful saturate the socket buffers.
	pub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	pairs := make([]expr.Pair, 0, 64)
	for a := expr.AttrID(1); a <= 64; a++ {
		pairs = append(pairs, expr.P(a, expr.Value(a)))
	}
	ev := expr.MustEvent(pairs...)
	const total = 150
	for i := 0; i < total; i++ {
		if err := pub.Publish(ev); err != nil {
			t.Fatal(err)
		}
	}
	// Barrier: an acked request on the same connection proves the server
	// processed (matched and enqueued) every publish above.
	if err := pub.Unsubscribe(999); err == nil {
		t.Fatal("barrier unsubscribe unexpectedly succeeded")
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()
	waitFor(t, "drain to start", func() bool { return srv.draining.Load() })

	// New work during the drain is nacked.
	if err := pub.Subscribe(expr.MustNew(50, expr.Eq(1, 1)), func(*expr.Event) {}); err == nil {
		t.Fatal("subscribe during drain succeeded")
	}

	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := <-frames; got != total {
		t.Fatalf("slow consumer received %d of %d frames across the drain", got, total)
	}
	if srv.drainFlushed.Load() != 1 || srv.drainExpired.Load() != 0 {
		t.Fatalf("drain counters: flushed=%d expired=%d", srv.drainFlushed.Load(), srv.drainExpired.Load())
	}
	if got := metricValue(t, reg, "apcm_broker_drain_flushed_total"); got != 1 {
		t.Fatalf("apcm_broker_drain_flushed_total = %g, want 1", got)
	}
}

// TestShutdownDeadlineHardCloses: a consumer that never drains keeps
// its outbox non-empty forever; Shutdown must give up when its context
// expires, hard-close, and report it.
func TestShutdownDeadlineHardCloses(t *testing.T) {
	eng := apcm.MustNew(apcm.Options{Workers: 1})
	defer eng.Close()
	srv := NewServer(eng)
	srv.Logf = t.Logf
	srv.SlowConsumerTimeout = 30 * time.Second
	srv.metOnce.Do(srv.attachMetrics)

	// A synthetic stalled connection: frames enqueued, no writer draining
	// them (the writeLoop is deliberately not started).
	a, b := net.Pipe()
	defer b.Close()
	c := &conn{s: srv, nc: a, outbox: make(chan outFrame, 4), done: make(chan struct{}), byClient: make(map[uint64]expr.ID)}
	srv.mu.Lock()
	srv.conns[c] = struct{}{}
	srv.mu.Unlock()
	if !c.send([]byte{msgPong}) {
		t.Fatal("seed frame not enqueued")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := srv.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("Shutdown took %v after a 100ms deadline", elapsed)
	}
	if srv.drainExpired.Load() != 1 {
		t.Fatalf("drainExpired = %d, want 1", srv.drainExpired.Load())
	}
	select {
	case <-c.done:
	default:
		t.Fatal("stalled conn not hard-closed after deadline")
	}
}

// TestHeartbeatReapsSilentConnection: a connection that completes the
// handshake and then goes mute is reaped after the heartbeat deadline,
// while a pinging client on the same server stays connected.
func TestHeartbeatReapsSilentConnection(t *testing.T) {
	eng := apcm.MustNew(apcm.Options{Workers: 1})
	defer eng.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	srv := NewServer(eng)
	srv.Logf = t.Logf
	srv.HeartbeatInterval = 30 * time.Millisecond
	srv.MissedHeartbeats = 2
	srv.Metrics = reg
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()

	// The live client pings well inside the 60ms reap deadline.
	live, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	alive := NewClientOpts(live, ClientOptions{PingInterval: 15 * time.Millisecond})
	defer alive.Close()

	// The mute connection: hello, then nothing.
	mute, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	rawHello(t, mute)

	mute.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := readFrame(mute, nil); err == nil {
		t.Fatal("mute connection survived past the heartbeat deadline")
	}
	waitFor(t, "heartbeat timeout to be counted", func() bool { return srv.heartbeatTimeouts.Load() >= 1 })
	if got := metricValue(t, reg, "apcm_broker_heartbeat_timeouts_total"); got < 1 {
		t.Fatalf("apcm_broker_heartbeat_timeouts_total = %g, want >= 1", got)
	}
	// The pinging client is still healthy: a round-trip works.
	if err := alive.Subscribe(expr.MustNew(1, expr.Eq(1, 1)), func(*expr.Event) {}); err != nil {
		t.Fatalf("live client broken after mute client reaped: %v", err)
	}
	if err := alive.Err(); err != nil {
		t.Fatalf("live client failed: %v", err)
	}
}

// TestVersionMismatchRejected: a hello below MinProtocolVersion gets an
// explanatory error frame, then the connection is closed. Every version
// under the floor is refused, including the retired 1 and 2. (Versions
// above ProtocolVersion negotiate down instead; see
// TestVersionNegotiatesDown.)
func TestVersionMismatchRejected(t *testing.T) {
	_, addr := startServer(t)
	for v := byte(0); v < MinProtocolVersion; v++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(nc, []byte{msgHello, v}); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		reply, err := readFrame(nc, nil)
		if err != nil {
			t.Fatalf("version %d: no error frame before close: %v", v, err)
		}
		if reply[0] != msgErr {
			t.Fatalf("version %d: reply type %q, want error frame", v, reply[0])
		}
		if _, err := readFrame(nc, nil); err == nil {
			t.Fatalf("version %d: connection survived version mismatch", v)
		}
		nc.Close()
	}
}

// TestSessionGivesUpAfterMaxAttempts: with a bounded retry budget and
// no broker to reach, the session transitions to gave-up and fails
// operations instead of retrying forever.
func TestSessionGivesUpAfterMaxAttempts(t *testing.T) {
	seed := faultSeed(t)
	eng := apcm.MustNew(apcm.Options{Workers: 1})
	defer eng.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := NewServer(eng)
	srv.Logf = t.Logf
	go srv.Serve(ln)

	rec := &stateRecorder{}
	sess, err := DialSession(addr, SessionConfig{
		MinBackoff:    time.Millisecond,
		MaxBackoff:    5 * time.Millisecond,
		Seed:          seed,
		MaxAttempts:   3,
		OnStateChange: rec.record,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	srv.Close() // and never comes back
	waitFor(t, "session to give up", func() bool { return sess.State() == SessionGaveUp })
	if err := sess.Publish(expr.MustEvent(expr.P(1, 1))); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Publish after give-up = %v, want ErrSessionClosed", err)
	}
	if !rec.saw(SessionGaveUp) {
		t.Fatalf("gave-up transition not reported: %v", rec.states)
	}
}

// TestSessionPublishBufferBounds: with the broker gone, the publish
// buffer absorbs exactly PublishBuffer events and then rejects with
// ErrBufferFull instead of blocking.
func TestSessionPublishBufferBounds(t *testing.T) {
	seed := faultSeed(t)
	eng := apcm.MustNew(apcm.Options{Workers: 1})
	defer eng.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := NewServer(eng)
	srv.Logf = t.Logf
	go srv.Serve(ln)

	const buffer = 8
	sess, err := DialSession(addr, SessionConfig{
		MinBackoff:    50 * time.Millisecond,
		MaxBackoff:    time.Second,
		Seed:          seed,
		PublishBuffer: buffer,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	srv.Close()
	waitFor(t, "outage detection", func() bool { return sess.State() == SessionReconnecting })

	ev := expr.MustEvent(expr.P(1, 1))
	accepted := 0
	var full bool
	// The pump may hold one frame in flight beyond the channel's
	// capacity, so allow buffer+1 acceptances before demanding
	// ErrBufferFull.
	for i := 0; i < buffer+8; i++ {
		err := sess.Publish(ev)
		if err == nil {
			accepted++
			continue
		}
		if !errors.Is(err, ErrBufferFull) {
			t.Fatalf("Publish = %v, want ErrBufferFull", err)
		}
		full = true
		break
	}
	if !full {
		t.Fatalf("buffer never reported full after %d accepted publishes", accepted)
	}
	if accepted > buffer+1 {
		t.Fatalf("accepted %d publishes into a %d-frame buffer", accepted, buffer)
	}
}
