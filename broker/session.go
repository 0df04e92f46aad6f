package broker

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/metrics"
)

// SessionState is the connectivity state a Session reports through
// SessionConfig.OnStateChange and State.
type SessionState int32

const (
	// SessionConnected: a live connection exists and every registered
	// subscription has been replayed onto it.
	SessionConnected SessionState = iota
	// SessionReconnecting: the connection failed; the session is
	// backing off and retrying. Publishes buffer (up to PublishBuffer).
	SessionReconnecting
	// SessionGaveUp: MaxAttempts consecutive reconnect attempts failed;
	// the session is terminally closed.
	SessionGaveUp
	// SessionClosed: Close was called.
	SessionClosed
)

func (s SessionState) String() string {
	switch s {
	case SessionConnected:
		return "connected"
	case SessionReconnecting:
		return "reconnecting"
	case SessionGaveUp:
		return "gave-up"
	case SessionClosed:
		return "closed"
	}
	return fmt.Sprintf("SessionState(%d)", int32(s))
}

// Errors returned by Session operations.
var (
	// ErrBufferFull: the publish buffer is at capacity (the broker has
	// been unreachable longer than the buffer absorbs). The event was
	// NOT queued; the caller chooses whether to drop, retry or degrade.
	ErrBufferFull = errors.New("broker: session publish buffer full")
	// ErrSessionClosed: the session was closed, or gave up reconnecting.
	ErrSessionClosed = errors.New("broker: session closed")
)

// SessionConfig tunes DialSession. The zero value is usable: retry
// forever with 50ms..5s jittered exponential backoff and a 256-frame
// publish buffer.
type SessionConfig struct {
	// Dial, when non-nil, replaces net.Dial("tcp", addr) — the hook for
	// TLS, proxies or fault injection in tests. It always targets the
	// session's single address; multi-address sessions use DialAddr.
	Dial func() (net.Conn, error)
	// DialAddr, when non-nil, replaces net.Dial("tcp", addr) for
	// multi-address sessions (DialSessionMulti), receiving the address
	// the session currently targets. Ignored when Dial is set.
	DialAddr func(addr string) (net.Conn, error)
	// MinBackoff/MaxBackoff bound the delay between reconnect attempts:
	// the delay starts at MinBackoff (default 50ms), doubles per failed
	// attempt up to MaxBackoff (default 5s), and is jittered uniformly
	// over [d/2, d) so reconnect storms decorrelate.
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// Seed seeds the backoff jitter; 0 derives one from the clock.
	// Fixing it makes reconnect schedules reproducible in tests.
	Seed int64
	// MaxAttempts is the number of consecutive failed reconnect
	// attempts after which the session gives up (state SessionGaveUp).
	// 0 retries forever.
	MaxAttempts int
	// PublishBuffer is the number of encoded publish frames buffered
	// while disconnected (and between the caller and the socket while
	// connected). Default 256. When full, Publish returns ErrBufferFull
	// instead of blocking.
	PublishBuffer int
	// Client carries per-connection liveness knobs (ping cadence, pong
	// timeout, write deadline) applied to every connection the session
	// establishes.
	Client ClientOptions
	// Consumer, when non-empty, names a durable consumer identity: every
	// connection the session establishes resumes it, so deliveries
	// committed to the broker's log while the session was disconnected
	// are replayed on reconnect and acknowledged offsets carry across
	// both session and broker restarts. Requires a broker with
	// durability enabled; the session tracks the highest acknowledged
	// offset and resumes past it, with Client.OnDurable still observing
	// every delivery.
	Consumer string
	// OnStateChange, when non-nil, observes every state transition. It
	// is called synchronously from session goroutines — keep it short
	// or hand off.
	OnStateChange func(SessionState)
	// Logf receives reconnect diagnostics; nil discards them.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, receives session instrumentation
	// (reconnects, resubscribes, buffer-full rejections).
	Metrics *metrics.Registry
}

func (c *SessionConfig) fillDefaults() {
	if c.MinBackoff <= 0 {
		c.MinBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.PublishBuffer <= 0 {
		c.PublishBuffer = 256
	}
	if c.Seed == 0 {
		c.Seed = time.Now().UnixNano()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	c.Client.fillDefaults()
}

type sessionSub struct {
	x       *expr.Expression
	handler Handler
}

// Session is a fault-tolerant broker client: it maintains one live
// Client underneath, reconnects with jittered exponential backoff when
// the connection fails, replays its subscription table onto every new
// connection, and buffers publishes across outages. Safe for concurrent
// use.
type Session struct {
	cfg SessionConfig

	// addrs is the failover set; addr is the element currently targeted
	// (addrs[addrIdx % len]). Both are touched only by the goroutine
	// driving connects (DialSession's caller first, then the supervisor).
	addrs   []string
	addrIdx int
	addr    string
	rng     *rand.Rand // reconnect-loop goroutine only

	pubq   chan []byte
	closed chan struct{}
	closeO sync.Once

	state      atomic.Int32
	reconnects atomic.Int64
	// nextResume is the offset the next resume asks for: one past the
	// highest durable delivery seen on any connection so far.
	nextResume atomic.Uint64

	mu   sync.Mutex
	cur  *Client // nil while disconnected
	subs map[uint64]sessionSub
	err  error // terminal error, set on close/give-up

	mReconnects *metrics.Counter
	mResubs     *metrics.Counter
	mBufferFull *metrics.Counter
	mBuffered   *metrics.Gauge
	mResumes    *metrics.Counter
	mResumeRej  *metrics.Counter
}

// DialSession connects to a broker at addr and keeps the connection
// alive across failures. The initial connection is synchronous: if the
// broker is unreachable now, DialSession fails fast and no session is
// created. After that, transport failures are absorbed: the session
// transitions to SessionReconnecting, retries with backoff, resubscribes
// everything, and flushes buffered publishes.
func DialSession(addr string, cfg SessionConfig) (*Session, error) {
	return dialSession([]string{addr}, cfg)
}

// DialSessionMulti is DialSession over a failover set: the session
// targets one address at a time and rotates to the next on every failed
// connection attempt — including attempts a non-leader broker rejects
// by closing the connection — so a session pointed at a replicated pair
// follows whichever node currently leads. With a durable Consumer the
// handoff is gap-free under -repl-sync: everything the old leader
// delivered is on the promoted follower's log, and the resume replay
// redelivers anything unacknowledged (at-least-once, as always).
func DialSessionMulti(addrs []string, cfg SessionConfig) (*Session, error) {
	if len(addrs) == 0 {
		return nil, errors.New("broker: DialSessionMulti needs at least one address")
	}
	return dialSession(addrs, cfg)
}

func dialSession(addrs []string, cfg SessionConfig) (*Session, error) {
	cfg.fillDefaults()
	s := &Session{
		cfg:    cfg,
		addrs:  addrs,
		addr:   addrs[0],
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		pubq:   make(chan []byte, cfg.PublishBuffer),
		closed: make(chan struct{}),
		subs:   make(map[uint64]sessionSub),
	}
	if reg := cfg.Metrics; reg != nil {
		s.mReconnects = reg.Counter("apcm_broker_reconnects_total",
			"session reconnects that reached connected state")
		s.mResubs = reg.Counter("apcm_broker_resubscribes_total",
			"subscriptions replayed onto fresh connections after reconnect")
		s.mBufferFull = reg.Counter("apcm_broker_publish_buffer_full_total",
			"publishes rejected with ErrBufferFull")
		s.mBuffered = reg.Gauge("apcm_broker_publish_buffered",
			"publish frames waiting in the session buffer")
		s.mResumes = reg.Counter("apcm_broker_session_resumes_total",
			"durable consumer resumes completed on fresh connections")
		s.mResumeRej = reg.Counter("apcm_broker_session_resume_rejected_total",
			"durable consumer resumes the broker rejected")
	}
	if cfg.Consumer != "" {
		// Chain the offset tracker in front of the application's
		// OnDurable so every delivery advances the next resume point.
		user := s.cfg.Client.OnDurable
		s.cfg.Client.OnDurable = func(off uint64, ev *expr.Event) {
			for {
				cur := s.nextResume.Load()
				if off+1 <= cur || s.nextResume.CompareAndSwap(cur, off+1) {
					break
				}
			}
			if user != nil {
				user(off, ev)
			}
		}
	}
	// The initial connection is synchronous and tries every address
	// once, so a session dialed against a pair whose first node is the
	// follower still comes up on the leader.
	var cl *Client
	var err error
	for range s.addrs {
		if cl, err = s.connect(); err == nil {
			break
		}
		s.rotateAddr()
	}
	if err != nil {
		return nil, err
	}
	s.install(cl)
	go s.run(cl)
	return s, nil
}

// rotateAddr advances to the next address in the failover set after a
// failed connection attempt. Single-address sessions are unaffected.
func (s *Session) rotateAddr() {
	if len(s.addrs) > 1 {
		s.addrIdx++
		s.addr = s.addrs[s.addrIdx%len(s.addrs)]
	}
}

// install publishes cl as the current connection and re-replays to
// catch subscriptions registered between connect's replay pass and now
// (those landed on the table but raced past the dying previous client).
func (s *Session) install(cl *Client) {
	s.setClient(cl)
	s.setState(SessionConnected)
	if err := s.replay(cl); err != nil {
		// The brand-new connection already died; the supervisor's pump
		// will observe Done and reconnect. Nothing to do here.
		s.cfg.Logf("broker session: connection died during replay: %v", err)
	}
}

func (s *Session) dial() (net.Conn, error) {
	if s.cfg.Dial != nil {
		return s.cfg.Dial()
	}
	if s.cfg.DialAddr != nil {
		return s.cfg.DialAddr(s.addr)
	}
	return net.Dial("tcp", s.addr)
}

// connect establishes one connection and replays the current
// subscription table onto it.
func (s *Session) connect() (*Client, error) {
	nc, err := s.dial()
	if err != nil {
		return nil, err
	}
	cl := NewClientOpts(nc, s.cfg.Client)
	if err := s.replay(cl); err != nil {
		cl.Close()
		return nil, err
	}
	if s.cfg.Consumer != "" {
		if _, err := cl.Resume(s.cfg.Consumer, s.nextResume.Load()); err != nil {
			// A rejection (busy: the broker has not yet reaped our previous
			// connection; disabled durability; bad name) fails this attempt
			// like a transport error — the backoff loop retries it.
			if !isTransportErr(cl, err) {
				s.mResumeRej.Inc()
				s.cfg.Logf("broker session: resume %q rejected: %v", s.cfg.Consumer, err)
			}
			cl.Close()
			return nil, err
		}
		s.mResumes.Inc()
	}
	return cl, nil
}

// replay subscribes every registered subscription not yet installed on
// cl. A transport error aborts (the caller retries the whole
// connection); a server rejection of an individual subscription is
// logged and that subscription dropped from the table — retrying it
// forever would wedge every future reconnect. It is called once on the
// fresh client and once more after the client is published as current,
// to catch subscriptions registered concurrently with the first pass.
func (s *Session) replay(cl *Client) error {
	s.mu.Lock()
	subs := make(map[uint64]sessionSub, len(s.subs))
	for id, sub := range s.subs {
		subs[id] = sub
	}
	s.mu.Unlock()
	for id, sub := range subs {
		if cl.hasHandler(id) {
			continue // installed directly by a concurrent Subscribe
		}
		err := cl.Subscribe(sub.x, sub.handler)
		if err == nil {
			s.mResubs.Inc()
			continue
		}
		if isTransportErr(cl, err) {
			return err
		}
		if cl.hasHandler(id) {
			continue // lost a benign race with a concurrent Subscribe
		}
		s.cfg.Logf("broker session: dropping subscription %d: broker rejected replay: %v", id, err)
		s.mu.Lock()
		delete(s.subs, id)
		s.mu.Unlock()
	}
	return nil
}

// isTransportErr distinguishes a dead connection from a server that
// answered with a rejection: after a transport failure the client is
// terminally failed (Err non-nil), while a nack leaves it healthy.
func isTransportErr(cl *Client, err error) bool {
	return errors.Is(err, ErrClientClosed) || cl.Err() != nil
}

// run is the session's supervisor: it pumps buffered publishes into the
// live connection, and when that connection dies, reconnects and
// resumes. One goroutine per session.
func (s *Session) run(cl *Client) {
	var pending []byte // frame that failed mid-write; retried first
	for {
		pending = s.pump(cl, pending)
		cl.Close()
		select {
		case <-s.closed:
			return
		default:
		}
		s.setState(SessionReconnecting)
		next := s.reconnect()
		if next == nil {
			return // gave up or closed; state already set
		}
		cl = next
	}
}

// pump forwards publish frames to cl until the connection or session
// dies. It returns the frame that was in flight when the connection
// failed (so it is not lost), or nil.
func (s *Session) pump(cl *Client, pending []byte) []byte {
	for {
		frame := pending
		if frame == nil {
			select {
			case frame = <-s.pubq:
				s.mBuffered.Add(-1)
			case <-cl.Done():
				return nil
			case <-s.closed:
				return nil
			}
		}
		if err := cl.write(frame); err != nil {
			return frame
		}
		pending = nil
	}
}

// reconnect dials with jittered exponential backoff until a connection
// is established and replayed, the session is closed, or MaxAttempts
// consecutive attempts failed.
func (s *Session) reconnect() *Client {
	backoff := s.cfg.MinBackoff
	for attempt := 1; ; attempt++ {
		select {
		case <-s.closed:
			return nil
		default:
		}
		cl, err := s.connect()
		if err == nil {
			s.reconnects.Add(1)
			s.mReconnects.Inc()
			s.install(cl)
			s.cfg.Logf("broker session: reconnected to %s (attempt %d)", s.addr, attempt)
			return cl
		}
		s.cfg.Logf("broker session: reconnect attempt %d (%s): %v", attempt, s.addr, err)
		// Rotate through the failover set: a follower rejects client
		// operations by closing the connection, which lands here as a
		// failed attempt and moves the session to the next candidate.
		s.rotateAddr()
		if s.cfg.MaxAttempts > 0 && attempt >= s.cfg.MaxAttempts {
			s.giveUp(fmt.Errorf("%w: gave up after %d attempts, last error: %v", ErrSessionClosed, attempt, err))
			return nil
		}
		// Jitter uniformly over [backoff/2, backoff): full backoff is
		// the ceiling, half of it the floor, so retries from many
		// clients spread out instead of thundering together.
		d := backoff
		if half := backoff / 2; half > 0 {
			d = half + time.Duration(s.rng.Int63n(int64(half)))
		}
		select {
		case <-time.After(d):
		case <-s.closed:
			return nil
		}
		if backoff *= 2; backoff > s.cfg.MaxBackoff {
			backoff = s.cfg.MaxBackoff
		}
	}
}

func (s *Session) setClient(cl *Client) {
	s.mu.Lock()
	s.cur = cl
	s.mu.Unlock()
}

func (s *Session) client() *Client {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

// setState transitions the session state and fires OnStateChange.
// Terminal states (closed, gave-up) win: once reached, later
// non-terminal transitions from racing goroutines are discarded.
func (s *Session) setState(st SessionState) {
	for {
		old := SessionState(s.state.Load())
		if old == st || old == SessionClosed || old == SessionGaveUp {
			return
		}
		if s.state.CompareAndSwap(int32(old), int32(st)) {
			if f := s.cfg.OnStateChange; f != nil {
				f(st)
			}
			return
		}
	}
}

// State reports the session's current connectivity state.
func (s *Session) State() SessionState { return SessionState(s.state.Load()) }

// Reconnects reports how many times the session has re-established a
// connection after a failure.
func (s *Session) Reconnects() int64 { return s.reconnects.Load() }

// Err returns the terminal error after the session closed or gave up.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *Session) giveUp(err error) {
	s.closeO.Do(func() {
		s.mu.Lock()
		s.err = err
		cl := s.cur
		s.cur = nil
		s.mu.Unlock()
		close(s.closed)
		if cl != nil {
			cl.Close()
		}
		s.setState(SessionGaveUp)
	})
}

// Subscribe registers x and routes matching events to handler, now and
// on every future connection (the session resubscribes automatically
// after reconnect). A rejection by the broker (duplicate id, bad
// expression) is returned and the subscription is not retained; a
// transport failure during the request returns nil — the subscription
// stays registered and is installed by the reconnect replay.
func (s *Session) Subscribe(x *expr.Expression, handler Handler) error {
	if handler == nil {
		return errors.New("broker: nil handler")
	}
	select {
	case <-s.closed:
		return s.closedErr()
	default:
	}
	id := uint64(x.ID)
	s.mu.Lock()
	if _, dup := s.subs[id]; dup {
		s.mu.Unlock()
		return fmt.Errorf("broker: duplicate subscription id %d", x.ID)
	}
	s.subs[id] = sessionSub{x: x, handler: handler}
	cl := s.cur
	s.mu.Unlock()
	if cl == nil {
		return nil // disconnected: replay installs it on reconnect
	}
	err := cl.Subscribe(x, handler)
	if err == nil || isTransportErr(cl, err) {
		return nil
	}
	s.mu.Lock()
	delete(s.subs, id)
	s.mu.Unlock()
	return err
}

// Unsubscribe removes the subscription with the given id from the
// session (and, if connected, from the broker). Transport failures are
// absorbed: the subscription is gone from the replay table either way,
// and broker restarts forget server-side state.
func (s *Session) Unsubscribe(id expr.ID) error {
	s.mu.Lock()
	_, ok := s.subs[uint64(id)]
	delete(s.subs, uint64(id))
	cl := s.cur
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("broker: unknown subscription id %d", id)
	}
	if cl == nil {
		return nil
	}
	if err := cl.Unsubscribe(id); err != nil && !isTransportErr(cl, err) {
		return err
	}
	return nil
}

// Publish enqueues an event for delivery to the broker. While
// connected, the buffer drains continuously; during an outage it
// absorbs up to PublishBuffer events and the rest are rejected with
// ErrBufferFull — never by blocking the caller indefinitely.
func (s *Session) Publish(ev *expr.Event) error {
	select {
	case <-s.closed:
		return s.closedErr()
	default:
	}
	frame := expr.AppendEvent([]byte{msgPublish}, ev)
	select {
	case s.pubq <- frame:
		s.mBuffered.Add(1)
		return nil
	default:
		s.mBufferFull.Inc()
		return ErrBufferFull
	}
}

func (s *Session) closedErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return ErrSessionClosed
}

// Close terminates the session and its connection. Buffered,
// not-yet-written publishes are discarded.
func (s *Session) Close() error {
	s.closeO.Do(func() {
		s.mu.Lock()
		s.err = ErrSessionClosed
		cl := s.cur
		s.cur = nil
		s.mu.Unlock()
		close(s.closed)
		if cl != nil {
			cl.Close()
		}
		s.setState(SessionClosed)
	})
	return nil
}
