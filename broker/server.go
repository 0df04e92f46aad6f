package broker

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/commitlog"
	"github.com/streammatch/apcm/metrics"
)

// Matcher is the engine surface the broker runs against: subscription
// lifecycle, matching, and checkpointing. Both a single *apcm.Engine
// and a sharded *shard.Group satisfy it, so a broker scales from one
// matching engine to a partitioned tier without protocol or handler
// changes (cmd/apcm-broker selects with -shards).
type Matcher interface {
	NewID() expr.ID
	Subscribe(*expr.Expression) error
	Unsubscribe(expr.ID) bool
	Match(*expr.Event) []expr.ID
	Len() int
	CheckpointSubscriptions(path string) error
}

// Server fronts a Matcher over TCP. Create with NewServer, start with
// Serve, stop with Close (immediate) or Shutdown (graceful drain).
type Server struct {
	eng Matcher
	// Logf receives connection-level diagnostics; defaults to log.Printf.
	// Set before Serve.
	Logf func(format string, args ...any)
	// SlowConsumerTimeout bounds how long a delivery may wait on a full
	// client outbox before the connection is dropped. Within the
	// timeout, backpressure propagates to the publisher. Defaults to 2s;
	// set before Serve.
	SlowConsumerTimeout time.Duration
	// HeartbeatInterval is the keepalive cadence the server assumes of
	// its clients. A connection that stays completely silent for
	// HeartbeatInterval × MissedHeartbeats is reaped as dead. Defaults
	// to 5s; negative disables reaping. Set before Serve.
	HeartbeatInterval time.Duration
	// MissedHeartbeats is how many heartbeat intervals of silence the
	// server tolerates before reaping a connection. Defaults to 3.
	MissedHeartbeats int
	// WriteTimeout bounds each frame write to a client socket, so a
	// wedged peer (accepting TCP but never draining) can never pin a
	// writer goroutine. Defaults to 10s; negative disables. Set before
	// Serve.
	WriteTimeout time.Duration
	// Metrics, when non-nil, receives broker instrumentation
	// (connections, outbox depth, slow-consumer drops, publish fan-out
	// latency, heartbeat/drain counters). Set before Serve.
	Metrics *metrics.Registry
	// LogDir, when non-empty, enables durable delivery: matched events
	// for resumed consumers are committed to a segmented log under this
	// directory before they count as delivered, and per-consumer
	// acknowledged offsets ride the same log across restarts. Set
	// before Serve.
	LogDir string
	// Log tunes the commit log (segment size, flush policy, retention)
	// when LogDir is set. Zero fields take commitlog defaults; Metrics
	// is inherited from Server.Metrics when unset. Set before Serve.
	Log commitlog.Config
	// NodeID names this broker in the replication handshake and logs.
	// Set before Serve.
	NodeID string
	// Follow, when non-empty, starts this server as a follower of the
	// leader at that address: it replicates the leader's commit log,
	// consumer offsets included, rejects client operations (connections
	// fail over to the leader), and promotes itself to leader when the
	// leader stays silent past ReplTimeout. Requires LogDir. Set before
	// Serve.
	Follow string
	// ReplSync, on the leader, tightens durable delivery to
	// delivered ⊆ committed ⊆ replicated: a durable frame is pushed
	// only after the attached follower acknowledged the record. With no
	// follower attached, delivery degrades to single-node durability
	// (counted by apcm_broker_repl_sync_degraded_total) rather than
	// blocking. Set before Serve.
	ReplSync bool
	// ReplHeartbeat is the follower's ping cadence toward the leader.
	// Defaults to 250ms. Set before Serve.
	ReplHeartbeat time.Duration
	// ReplTimeout is how long a follower tolerates total leader
	// silence (no frames on the replication connection, dial failures
	// included) before promoting itself to leader. Defaults to 3s. Set
	// before Serve.
	ReplTimeout time.Duration
	// replDial, when non-nil, replaces net.Dial("tcp", Follow) for the
	// replication connection — the fault-injection hook the partition
	// schedules use. Set before Serve.
	replDial func(addr string) (net.Conn, error)

	mu        sync.RWMutex            //apcm:lockrank=1
	subs      map[expr.ID]*subscriber // engine id -> owner
	conns     map[*conn]struct{}
	consumers map[string]*consumerState
	closed    bool
	ln        net.Listener

	log *commitlog.Log // nil without LogDir

	draining          atomic.Bool
	published         atomic.Int64
	delivered         atomic.Int64
	slowDrops         atomic.Int64
	heartbeatTimeouts atomic.Int64
	drainStarted      atomic.Int64
	drainFlushed      atomic.Int64
	drainExpired      atomic.Int64
	drainRejects      atomic.Int64
	resumes           atomic.Int64
	resumeReplayed    atomic.Int64
	offsetAcks        atomic.Int64
	logAppendErrs     atomic.Int64
	checkpointErrs    atomic.Int64
	attachedConsumers atomic.Int64
	metOnce           sync.Once
	publishLat        *metrics.Histogram // nil without a registry (nil-safe)

	// Replication state. role/epoch are atomics because the frame
	// dispatcher gates on them per frame; replica (the attached
	// follower's connection, nil when none) is guarded by mu.
	// promotedAt is the log offset at which this server promoted itself
	// from follower to leader, valid once promoted is set: offsets below
	// it were ingested from the old leader, offsets at or above it are
	// its own appends (the boundary the crash matrix's prefix oracle
	// checks).
	role       atomic.Int32
	epoch      atomic.Uint64
	promoted   atomic.Bool
	promotedAt atomic.Int64
	replica    *conn
	replStop   chan struct{} // non-nil on followers; closed by Close
	replDone   chan struct{} // closed when the replicator goroutine exits

	fenced              atomic.Int64
	promotions          atomic.Int64
	replBatchesSent     atomic.Int64
	replSegmentsShipped atomic.Int64
	replAcks            atomic.Int64
	replIngested        atomic.Int64
	replSyncWaits       atomic.Int64
	replSyncDegraded    atomic.Int64
}

type subscriber struct {
	c        *conn
	clientID uint64
}

// outboxSize is every connection's outbox capacity in frames.
const outboxSize = 256

// outFrame is one outbox entry. nsubs > 0 marks a live durable
// delivery: the writer holds it until the record at off is committed
// (writeDurable) and only then writes it and counts nsubs delivered.
type outFrame struct {
	b     []byte
	off   uint64
	nsubs int
}

// conn is one client connection. Outbound frames go through a bounded
// outbox drained by a writer goroutine; a full outbox applies
// backpressure to the publisher first and terminates the connection
// only after SlowConsumerTimeout.
type conn struct {
	s      *Server
	nc     net.Conn
	outbox chan outFrame
	done   chan struct{}
	closeO sync.Once
	// hello flips after a valid version handshake. Only the read loop
	// touches it.
	hello bool
	// enqueued/written frame counts, a frame dropped after a failed
	// commit counting as written; their equality is the drain condition
	// in Shutdown (an empty outbox alone would miss the frame the writer
	// currently holds in flight or waits on the commit for).
	enqueued atomic.Int64
	written  atomic.Int64
	// engine ids owned by this connection, keyed by client id, plus the
	// consumer identity this connection resumed as (nil before resume).
	mu       sync.Mutex //apcm:lockrank=2
	byClient map[uint64]expr.ID
	consumer *consumerState
	// isRepl flips when this connection completes a repl-hello and
	// becomes the attached follower's replication channel.
	isRepl bool
}

// NewServer wraps eng. The server takes no ownership: closing the server
// does not close the engine.
func NewServer(eng Matcher) *Server {
	return &Server{
		eng:       eng,
		Logf:      log.Printf,
		subs:      make(map[expr.ID]*subscriber),
		conns:     make(map[*conn]struct{}),
		consumers: make(map[string]*consumerState),
	}
}

// Stats reports cumulative publish/delivery counts.
func (s *Server) Stats() (published, delivered int64) {
	return s.published.Load(), s.delivered.Load()
}

// SlowConsumerDrops reports how many connections were terminated for
// stalling past SlowConsumerTimeout.
func (s *Server) SlowConsumerDrops() int64 { return s.slowDrops.Load() }

// readDeadline is the per-frame read deadline: HeartbeatInterval ×
// MissedHeartbeats, or 0 (no deadline) when reaping is disabled.
func (s *Server) readDeadline() time.Duration {
	iv := s.HeartbeatInterval
	if iv < 0 {
		return 0
	}
	if iv == 0 {
		iv = 5 * time.Second
	}
	missed := s.MissedHeartbeats
	if missed <= 0 {
		missed = 3
	}
	return iv * time.Duration(missed)
}

func (s *Server) writeTimeout() time.Duration {
	switch {
	case s.WriteTimeout < 0:
		return 0
	case s.WriteTimeout == 0:
		return 10 * time.Second
	}
	return s.WriteTimeout
}

// attachMetrics registers the broker's instruments on s.Metrics. The
// cumulative counts stay on the server's own atomics (Stats predates
// the registry) and are exported as read-time functions.
func (s *Server) attachMetrics() {
	reg := s.Metrics
	if reg == nil {
		return
	}
	s.publishLat = reg.Histogram("apcm_broker_publish_latency_ns",
		"publish handling latency: decode, match and fan-out enqueue")
	reg.CounterFunc("apcm_broker_published_total", "events received from clients",
		func() float64 { return float64(s.published.Load()) })
	reg.CounterFunc("apcm_broker_delivered_total", "match notifications delivered: enqueued (volatile) or written once committed (durable)",
		func() float64 { return float64(s.delivered.Load()) })
	reg.CounterFunc("apcm_broker_slow_consumer_drops_total", "connections dropped for stalling past SlowConsumerTimeout",
		func() float64 { return float64(s.slowDrops.Load()) })
	reg.CounterFunc("apcm_broker_heartbeat_timeouts_total", "connections reaped for missing their heartbeat deadline",
		func() float64 { return float64(s.heartbeatTimeouts.Load()) })
	reg.CounterFunc("apcm_broker_drain_started_total", "graceful Shutdown drains begun",
		func() float64 { return float64(s.drainStarted.Load()) })
	reg.CounterFunc("apcm_broker_drain_flushed_total", "drains that flushed every outbox before closing",
		func() float64 { return float64(s.drainFlushed.Load()) })
	reg.CounterFunc("apcm_broker_drain_expired_total", "drains cut short by the Shutdown context deadline",
		func() float64 { return float64(s.drainExpired.Load()) })
	reg.CounterFunc("apcm_broker_drain_rejected_total", "subscribe/unsubscribe requests nacked while draining",
		func() float64 { return float64(s.drainRejects.Load()) })
	reg.GaugeFunc("apcm_broker_draining", "1 while a graceful drain is in progress", func() float64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("apcm_broker_connections", "currently connected clients", func() float64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return float64(len(s.conns))
	})
	reg.GaugeFunc("apcm_broker_subscriptions", "live broker-owned subscriptions", func() float64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return float64(len(s.subs))
	})
	reg.GaugeFunc("apcm_broker_outbox_depth", "frames queued across all client outboxes", func() float64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		var n int
		for c := range s.conns {
			n += len(c.outbox)
		}
		return float64(n)
	})
	reg.CounterFunc("apcm_broker_resumes_total", "consumer resume requests accepted",
		func() float64 { return float64(s.resumes.Load()) })
	reg.CounterFunc("apcm_broker_resume_replayed_total", "logged records replayed to resuming consumers",
		func() float64 { return float64(s.resumeReplayed.Load()) })
	reg.CounterFunc("apcm_broker_offset_acks_total", "offset acknowledgements received from consumers",
		func() float64 { return float64(s.offsetAcks.Load()) })
	reg.CounterFunc("apcm_broker_log_append_errors_total", "durable deliveries lost to commit-log append failures",
		func() float64 { return float64(s.logAppendErrs.Load()) })
	reg.CounterFunc("apcm_broker_checkpoint_errors_total", "Checkpoint calls that failed to persist state",
		func() float64 { return float64(s.checkpointErrs.Load()) })
	reg.GaugeFunc("apcm_broker_consumers", "consumers currently attached for durable delivery",
		func() float64 { return float64(s.attachedConsumers.Load()) })
	reg.GaugeFunc("apcm_broker_repl_epoch", "current replication epoch",
		func() float64 { return float64(s.epoch.Load()) })
	reg.GaugeFunc("apcm_broker_repl_role", "replication role: 0 leader, 1 follower, 2 fenced",
		func() float64 { return float64(s.role.Load()) })
	reg.GaugeFunc("apcm_broker_repl_lag", "records committed on the leader but not yet acknowledged by the attached follower", func() float64 {
		s.mu.RLock()
		l := s.log
		s.mu.RUnlock()
		if l == nil {
			return 0
		}
		repl, ok := l.Replicated()
		if !ok {
			return 0
		}
		if next := l.NextOffset(); next > repl {
			return float64(next - repl)
		}
		return 0
	})
	reg.CounterFunc("apcm_broker_repl_batches_sent_total", "commit-log batches streamed to the follower",
		func() float64 { return float64(s.replBatchesSent.Load()) })
	reg.CounterFunc("apcm_broker_repl_segments_shipped_total", "sealed segments bulk-shipped to the follower",
		func() float64 { return float64(s.replSegmentsShipped.Load()) })
	reg.CounterFunc("apcm_broker_repl_acks_total", "replication acknowledgements received from the follower",
		func() float64 { return float64(s.replAcks.Load()) })
	reg.CounterFunc("apcm_broker_repl_ingested_total", "segments and batches ingested from the leader",
		func() float64 { return float64(s.replIngested.Load()) })
	reg.CounterFunc("apcm_broker_repl_fences_total", "times this node fenced itself on seeing a higher epoch",
		func() float64 { return float64(s.fenced.Load()) })
	reg.CounterFunc("apcm_broker_repl_promotions_total", "follower-to-leader promotions",
		func() float64 { return float64(s.promotions.Load()) })
	reg.CounterFunc("apcm_broker_repl_sync_waits_total", "durable deliveries gated on follower acknowledgement",
		func() float64 { return float64(s.replSyncWaits.Load()) })
	reg.CounterFunc("apcm_broker_repl_sync_degraded_total", "repl-sync deliveries that proceeded without an attached follower",
		func() float64 { return float64(s.replSyncDegraded.Load()) })
}

// Serve accepts connections on ln until Close or Shutdown. It returns
// nil after either, or the listener error otherwise. On a server already
// closed it closes ln, resetting any connection queued on it, and
// returns an error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("broker: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.metOnce.Do(s.attachMetrics)
	if err := s.openLog(); err != nil {
		return err
	}
	if s.Follow != "" {
		if s.log == nil {
			return errors.New("broker: Follow requires LogDir")
		}
		s.mu.Lock()
		if s.replStop == nil {
			s.role.Store(roleFollower)
			s.replStop = make(chan struct{})
			s.replDone = make(chan struct{})
			go s.runReplicator()
		}
		s.mu.Unlock()
	}
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.RLock()
			closed := s.closed
			s.mu.RUnlock()
			if closed || s.draining.Load() {
				return nil
			}
			return err
		}
		c := &conn{
			s:        s,
			nc:       nc,
			outbox:   make(chan outFrame, outboxSize),
			done:     make(chan struct{}),
			byClient: make(map[uint64]expr.ID),
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go c.writeLoop()
		go c.readLoop()
	}
}

// Close stops accepting, drops every connection and unregisters their
// subscriptions. Queued match notifications are discarded; use Shutdown
// to flush them first.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln, l := s.ln, s.log
	replStop, replDone := s.replStop, s.replDone
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	if replStop != nil {
		close(replStop)
		<-replDone
	}
	for _, c := range conns {
		c.shutdown()
	}
	if l != nil {
		l.Close() // flushes staged records and pending acks
	}
}

// Shutdown drains the server gracefully: it stops accepting, nacks new
// subscribe/unsubscribe work and ignores new publishes, then waits for
// every connection's outbox to flush to its socket before closing. When
// ctx expires first the remaining connections are hard-closed and
// ctx.Err is returned. Stalled consumers do not pin the drain: the
// slow-consumer and write-deadline reapers keep running and a dropped
// connection no longer counts toward the flush condition.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	already := s.draining.Swap(true)
	ln := s.ln
	s.mu.Unlock()
	if !already {
		s.drainStarted.Add(1)
		if ln != nil {
			ln.Close() // Serve sees draining and returns nil
		}
	}
	ticker := time.NewTicker(2 * time.Millisecond)
	defer ticker.Stop()
	for !s.outboxesFlushed() {
		select {
		case <-ctx.Done():
			s.drainExpired.Add(1)
			s.Close()
			return ctx.Err()
		case <-ticker.C:
		}
	}
	s.drainFlushed.Add(1)
	s.Close()
	return nil
}

// outboxesFlushed reports whether every live connection has written all
// frames it ever enqueued. Reading enqueued before written keeps the
// check conservative: a frame enqueued between the two loads can make
// the counts look unequal, never prematurely equal.
func (s *Server) outboxesFlushed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for c := range s.conns {
		if c.enqueued.Load() != c.written.Load() {
			return false
		}
	}
	return true
}

func (c *conn) writeLoop() {
	for {
		select {
		case f := <-c.outbox:
			var err error
			if f.nsubs > 0 {
				err = c.writeDurable(f)
			} else {
				err = c.write(f.b)
			}
			if err != nil {
				c.shutdown()
				return
			}
			c.written.Add(1)
		case <-c.done:
			return
		}
	}
}

// write puts one frame on the socket under the write deadline.
func (c *conn) write(frame []byte) error {
	if timeout := c.s.writeTimeout(); timeout > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(timeout))
	}
	return writeFrame(c.nc, frame)
}

// send enqueues a frame and reports whether it was accepted. A full
// outbox first applies backpressure (the sending publisher blocks,
// bounding its ingestion rate to the consumer's drain rate, as pub/sub
// flow control should); only a consumer that stays stalled past
// SlowConsumerTimeout is dropped. Callers that count deliveries must
// only count frames send accepted — a dropped frame never reaches the
// wire.
func (c *conn) send(frame []byte) bool {
	return c.push(outFrame{b: frame})
}

// push is send for any outbox entry, live durable deliveries included.
//
//apcm:emits
func (c *conn) push(f outFrame) bool {
	select {
	case c.outbox <- f:
		c.enqueued.Add(1)
		return true
	case <-c.done:
		return false
	default:
	}
	timeout := c.s.SlowConsumerTimeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case c.outbox <- f:
		c.enqueued.Add(1)
		return true
	case <-c.done:
		return false
	case <-t.C:
		c.s.slowDrops.Add(1)
		c.s.Logf("broker: dropping slow consumer %v (stalled %v)", c.nc.RemoteAddr(), timeout)
		c.abort()
		return false
	}
}

// dead reports whether the connection is gone. Commit and replication
// waits poll it at every wakeup; unregister wakes the log's waiters
// once it flips.
func (c *conn) dead() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

func (c *conn) shutdown() {
	c.closeO.Do(func() {
		close(c.done)
		c.nc.Close()
		c.unregister()
	})
}

// abort is shutdown for callers that may hold delivery locks: the
// connection is dead when it returns — c.done closed, so every
// in-flight send unblocks and later sends fail — but the lock-taking
// unregistration runs on a fresh goroutine. send's slow-consumer drop
// fires with consumerState.mu held on the durable-delivery and
// resume-replay paths, and unregister re-enters that mutex via detach;
// synchronously that is a self-deadlock (Go mutexes are not
// reentrant).
func (c *conn) abort() {
	c.closeO.Do(func() {
		close(c.done)
		c.nc.Close()
		//apcm:detached short-lived teardown; the connection is already dead, nothing joins it
		go c.unregister()
	})
}

// unregister removes this connection's subscriptions and detaches its
// consumer identity so a successor connection can resume it. Called
// exactly once per connection, by whichever of shutdown/abort won the
// closeO race.
func (c *conn) unregister() {
	c.mu.Lock()
	ids := make([]expr.ID, 0, len(c.byClient))
	for _, id := range c.byClient {
		ids = append(ids, id)
	}
	c.byClient = make(map[uint64]expr.ID)
	cs := c.consumer
	c.consumer = nil
	c.mu.Unlock()
	if cs != nil {
		cs.detach(c)
	}
	c.s.detachReplica(c)
	c.s.mu.Lock()
	for _, id := range ids {
		delete(c.s.subs, id)
	}
	delete(c.s.conns, c)
	c.s.mu.Unlock()
	for _, id := range ids {
		c.s.eng.Unsubscribe(id)
	}
	if c.s.log != nil {
		// This connection's writer or a publisher delivering to it may be
		// parked in a commit or replication wait; wake the log's waiters
		// so their cancellation check runs.
		c.s.log.Wake()
	}
}

func (c *conn) readLoop() {
	defer c.shutdown()
	deadline := c.s.readDeadline()
	var buf []byte
	for {
		if deadline > 0 {
			c.nc.SetReadDeadline(time.Now().Add(deadline))
		}
		frame, err := readFrame(c.nc, buf)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				c.s.heartbeatTimeouts.Add(1)
				c.s.Logf("broker: reaping %v (silent past %v)", c.nc.RemoteAddr(), deadline)
			}
			return
		}
		buf = frame
		if err := c.handle(frame); err != nil {
			c.s.Logf("broker: %v: %v", c.nc.RemoteAddr(), err)
			return
		}
	}
}

func (c *conn) handle(frame []byte) error {
	if !c.hello {
		if frame[0] != msgHello {
			return fmt.Errorf("expected hello, got %q", frame[0])
		}
		return c.handleHello(frame[1:])
	}
	switch frame[0] {
	case msgSubscribe, msgUnsubscribe, msgPublish, msgResume, msgOffsetAck:
		// Followers and fenced nodes reject client operations by closing
		// the connection with no nack frame: Session.replay permanently
		// drops a subscription on a nack, whereas a transport-style
		// failure makes the session retry — against the next address for
		// multi-address sessions, which is exactly failover.
		if r := c.s.role.Load(); r != roleLeader {
			return fmt.Errorf("%q frame rejected: node is %s", frame[0], roleName(r))
		}
	}
	switch frame[0] {
	case msgSubscribe:
		return c.handleSubscribe(frame[1:])
	case msgUnsubscribe:
		return c.handleUnsubscribe(frame[1:])
	case msgPublish:
		return c.handlePublish(frame[1:])
	case msgPing:
		c.send([]byte{msgPong})
		return nil
	case msgResume:
		return c.handleResume(frame[1:])
	case msgOffsetAck:
		return c.handleOffsetAck(frame[1:])
	case msgReplHello:
		return c.handleReplHello(frame[1:])
	case msgReplAck:
		return c.handleReplAck(frame[1:])
	case msgFence:
		return c.handleFence(frame[1:])
	default:
		return fmt.Errorf("unknown message type %q", frame[0])
	}
}

func (c *conn) handleHello(body []byte) error {
	if len(body) != 1 {
		return fmt.Errorf("bad hello: %d-byte payload", len(body))
	}
	if v := body[0]; v < MinProtocolVersion {
		// Written synchronously, not via the outbox: the connection is
		// about to close and would race the writer goroutine out of
		// delivering the explanation. No frame can be in flight before the
		// handshake, so the direct write cannot interleave.
		frame := appendUvarint([]byte{msgErr}, 0)
		frame = append(frame, fmt.Sprintf("unsupported protocol version %d (server speaks %d-%d)", v, MinProtocolVersion, ProtocolVersion)...)
		if timeout := c.s.writeTimeout(); timeout > 0 {
			c.nc.SetWriteDeadline(time.Now().Add(timeout))
		}
		writeFrame(c.nc, frame)
		return fmt.Errorf("client speaks protocol %d, want at least %d", body[0], MinProtocolVersion)
	}
	// Negotiate down to the highest revision both sides speak, which the
	// floor makes ProtocolVersion.
	c.hello = true
	c.send(helloFrame())
	return nil
}

func (c *conn) ack(clientID uint64) {
	c.send(appendUvarint([]byte{msgAck}, clientID))
}

func (c *conn) nack(clientID uint64, err error) {
	frame := appendUvarint([]byte{msgErr}, clientID)
	c.send(append(frame, err.Error()...))
}

func (c *conn) handleSubscribe(body []byte) error {
	x, n, err := expr.DecodeExpression(body)
	if err != nil {
		return fmt.Errorf("bad subscribe: %w", err)
	}
	if n != len(body) {
		return fmt.Errorf("trailing bytes after subscribe")
	}
	clientID := uint64(x.ID)
	if c.s.draining.Load() {
		c.s.drainRejects.Add(1)
		c.nack(clientID, errors.New("broker draining"))
		return nil
	}
	c.mu.Lock()
	_, dup := c.byClient[clientID]
	c.mu.Unlock()
	if dup {
		c.nack(clientID, fmt.Errorf("duplicate subscription id %d", clientID))
		return nil
	}
	// Re-key the expression under an engine-allocated id, so broker
	// subscriptions never collide with ids the embedding application
	// registered directly on the shared engine.
	engID := c.s.eng.NewID()
	rekeyed := &expr.Expression{ID: engID, Preds: x.Preds}
	if err := c.s.eng.Subscribe(rekeyed); err != nil {
		c.nack(clientID, err)
		return nil
	}
	c.s.mu.Lock()
	c.s.subs[engID] = &subscriber{c: c, clientID: clientID}
	c.s.mu.Unlock()
	c.mu.Lock()
	c.byClient[clientID] = engID
	c.mu.Unlock()
	c.ack(clientID)
	return nil
}

func (c *conn) handleUnsubscribe(body []byte) error {
	clientID, rest, err := readUvarint(body)
	if err != nil || len(rest) != 0 {
		return fmt.Errorf("bad unsubscribe")
	}
	if c.s.draining.Load() {
		c.s.drainRejects.Add(1)
		c.nack(clientID, errors.New("broker draining"))
		return nil
	}
	c.mu.Lock()
	engID, ok := c.byClient[clientID]
	if ok {
		delete(c.byClient, clientID)
	}
	c.mu.Unlock()
	if !ok {
		c.nack(clientID, fmt.Errorf("unknown subscription id %d", clientID))
		return nil
	}
	c.s.mu.Lock()
	delete(c.s.subs, engID)
	c.s.mu.Unlock()
	c.s.eng.Unsubscribe(engID)
	c.ack(clientID)
	return nil
}

func (c *conn) handlePublish(body []byte) error {
	var start time.Time
	if c.s.publishLat != nil {
		start = time.Now()
		defer func() { c.s.publishLat.ObserveDuration(time.Since(start)) }()
	}
	ev, n, err := expr.DecodeEvent(body)
	if err != nil {
		return fmt.Errorf("bad publish: %w", err)
	}
	if n != len(body) {
		return fmt.Errorf("trailing bytes after publish")
	}
	if c.s.draining.Load() {
		// Publish is fire-and-forget: there is no id to nack, and the
		// drain contract is to flush already-matched work, not take more.
		return nil
	}
	c.s.published.Add(1)
	matches := c.s.eng.Match(ev)
	if len(matches) == 0 {
		return nil
	}
	// Group matched subscriptions by owning connection.
	byConn := make(map[*conn][]uint64)
	c.s.mu.RLock()
	for _, engID := range matches {
		if sub, ok := c.s.subs[engID]; ok {
			byConn[sub.c] = append(byConn[sub.c], sub.clientID)
		}
	}
	c.s.mu.RUnlock()
	for target, clientIDs := range byConn {
		// tail = uvarint n, n×uvarint ids, event — shared by the legacy
		// match frame, the logged record and the durable frame. It is
		// built behind frameRoom spare bytes, where the frame header goes.
		buf := make([]byte, frameRoom, frameRoom+binary.MaxVarintLen64*(1+len(clientIDs))+len(body))
		buf = appendUvarint(buf, uint64(len(clientIDs)))
		for _, id := range clientIDs {
			buf = appendUvarint(buf, id)
		}
		buf = expr.AppendEvent(buf, ev)
		target.mu.Lock()
		cs := target.consumer
		target.mu.Unlock()
		if cs != nil {
			c.s.deliverDurable(target, cs, buf, len(clientIDs))
			continue
		}
		if target.send(framed(buf, msgMatch, nil)) {
			c.s.delivered.Add(int64(len(clientIDs)))
		}
	}
	return nil
}
