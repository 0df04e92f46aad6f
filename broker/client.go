package broker

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/streammatch/apcm/expr"
)

// Handler receives events matching a subscription. Handlers run on the
// client's read loop: keep them short or hand off to a channel.
type Handler func(ev *expr.Event)

// ClientOptions tunes a single connection's liveness behaviour. The
// zero value uses the defaults documented on each field.
type ClientOptions struct {
	// PingInterval is the keepalive cadence: the client sends an 'H'
	// ping this often so the server's idle reaper sees it alive even
	// when no application traffic flows. Defaults to 2s (well inside
	// the server's default 15s reap deadline); negative disables pings
	// and liveness detection.
	PingInterval time.Duration
	// PongTimeout fails the connection when nothing at all (pong, ack
	// or match) has been read for this long, so a blackholed link is
	// detected instead of blocking forever. Defaults to 3×PingInterval.
	PongTimeout time.Duration
	// WriteTimeout bounds each frame write. Defaults to 10s; negative
	// disables.
	WriteTimeout time.Duration
	// OnDurable, when non-nil, observes every durable delivery after its
	// subscription handlers ran: the commit-log offset and the event. It
	// runs on the read loop, before the automatic acknowledgement.
	OnDurable func(offset uint64, ev *expr.Event)
	// DisableAutoAck turns off the automatic offset acknowledgement sent
	// after each durable delivery's handlers return. The application then
	// owns calling AckOffset — until it does, a broker restart redelivers
	// from the last acknowledged offset.
	DisableAutoAck bool
}

func (o *ClientOptions) fillDefaults() {
	if o.PingInterval == 0 {
		o.PingInterval = 2 * time.Second
	}
	if o.PongTimeout == 0 {
		o.PongTimeout = 3 * o.PingInterval
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = 10 * time.Second
	}
}

// Client is a broker connection. Safe for concurrent use; Subscribe and
// Unsubscribe are serialised (one outstanding acknowledged request at a
// time), Publish is fire-and-forget. A Client does not reconnect: once
// its connection fails it stays failed (Err reports why). For sessions
// that survive broker restarts, use DialSession.
type Client struct {
	nc   net.Conn
	opts ClientOptions

	writeMu sync.Mutex // frame writes
	reqMu   sync.Mutex // one outstanding ack'd request

	// lastRead is the UnixNano timestamp of the most recent frame from
	// the server; the ping loop fails the connection when it goes stale
	// past PongTimeout.
	lastRead atomic.Int64

	// version is the negotiated protocol revision (0 until the server's
	// hello arrives; helloCh closes when it does).
	version   atomic.Uint32
	helloCh   chan struct{}
	helloOnce sync.Once

	mu       sync.Mutex
	handlers map[uint64]Handler
	acks     chan ackResult
	closed   bool
	readErr  error
	done     chan struct{}
}

type ackResult struct {
	id  uint64
	off uint64 // resume-ok start offset; 0 otherwise
	err error
}

// Dial connects to a broker at addr.
func Dial(addr string) (*Client, error) {
	return DialOpts(addr, ClientOptions{})
}

// DialOpts connects to a broker at addr with explicit options.
func DialOpts(addr string, opts ClientOptions) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClientOpts(nc, opts), nil
}

// NewClientOpts wraps an established connection. It sends the protocol
// hello immediately; the server's answer is verified asynchronously by
// the read loop, and a version mismatch fails the connection (visible
// to the first request and through Err).
func NewClientOpts(nc net.Conn, opts ClientOptions) *Client {
	opts.fillDefaults()
	c := &Client{
		nc:       nc,
		opts:     opts,
		handlers: make(map[uint64]Handler),
		acks:     make(chan ackResult, 1),
		helloCh:  make(chan struct{}),
		done:     make(chan struct{}),
	}
	c.lastRead.Store(time.Now().UnixNano())
	if err := c.write(helloFrame()); err != nil {
		c.fail(fmt.Errorf("broker: hello: %w", err))
	}
	go c.readLoop()
	if opts.PingInterval > 0 {
		go c.pingLoop()
	}
	return c
}

// ErrClientClosed is returned by operations on a closed client.
var ErrClientClosed = errors.New("broker: client closed")

// ErrHeartbeatTimeout is the terminal error of a connection that went
// silent: nothing was read from the server within PongTimeout.
var ErrHeartbeatTimeout = errors.New("broker: heartbeat timeout")

func (c *Client) pingLoop() {
	t := time.NewTicker(c.opts.PingInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			idle := time.Since(time.Unix(0, c.lastRead.Load()))
			if idle > c.opts.PongTimeout {
				c.fail(fmt.Errorf("%w: nothing read for %v", ErrHeartbeatTimeout, idle.Round(time.Millisecond)))
				return
			}
			if err := c.write([]byte{msgPing}); err != nil {
				if !errors.Is(err, ErrClientClosed) {
					c.fail(fmt.Errorf("broker: ping: %w", err))
				}
				return
			}
		case <-c.done:
			return
		}
	}
}

func (c *Client) readLoop() {
	var buf []byte
	for {
		frame, err := readFrame(c.nc, buf)
		if err != nil {
			c.fail(err)
			return
		}
		buf = frame
		c.lastRead.Store(time.Now().UnixNano())
		switch frame[0] {
		case msgHello:
			// The server answers with the negotiated version: at most what
			// we offered (ProtocolVersion), at least MinProtocolVersion.
			if len(frame) != 2 || frame[1] < MinProtocolVersion || frame[1] > ProtocolVersion {
				c.fail(fmt.Errorf("broker: server hello %v, want version %d-%d", frame[1:], MinProtocolVersion, ProtocolVersion))
				return
			}
			c.version.Store(uint32(frame[1]))
			c.helloOnce.Do(func() { close(c.helloCh) })
		case msgPong:
			// lastRead already refreshed; nothing else to do.
		case msgAck:
			id, _, err := readUvarint(frame[1:])
			if err != nil {
				c.fail(err)
				return
			}
			c.deliverAck(ackResult{id: id})
		case msgErr:
			id, rest, err := readUvarint(frame[1:])
			if err != nil {
				c.fail(err)
				return
			}
			c.deliverAck(ackResult{id: id, err: fmt.Errorf("broker: %s", rest)})
		case msgMatch:
			if err := c.handleMatch(frame[1:]); err != nil {
				c.fail(err)
				return
			}
		case msgResumeOK:
			id, rest, err := readUvarint(frame[1:])
			if err != nil {
				c.fail(err)
				return
			}
			start, _, err := readUvarint(rest)
			if err != nil {
				c.fail(err)
				return
			}
			c.deliverAck(ackResult{id: id, off: start})
		case msgDurable:
			if err := c.handleDurable(frame[1:]); err != nil {
				c.fail(err)
				return
			}
		default:
			c.fail(fmt.Errorf("broker: unknown server message %q", frame[0]))
			return
		}
	}
}

func (c *Client) deliverAck(r ackResult) {
	select {
	case c.acks <- r:
	default:
		// No request outstanding: a protocol violation by the server;
		// drop the stray ack rather than deadlocking.
	}
}

func (c *Client) handleMatch(body []byte) error {
	_, err := c.dispatch(body)
	return err
}

// handleDurable dispatches one durable delivery: subscription handlers,
// then the OnDurable observer, then — unless DisableAutoAck — the
// offset acknowledgement. Acking after the handlers ran means a crash
// mid-handler leaves the offset unacknowledged and the event is
// redelivered on the next resume: at-least-once, never silently lost.
func (c *Client) handleDurable(body []byte) error {
	off, rest, err := readUvarint(body)
	if err != nil {
		return err
	}
	ev, err := c.dispatch(rest)
	if err != nil {
		return err
	}
	if f := c.opts.OnDurable; f != nil {
		f(off, ev)
	}
	if !c.opts.DisableAutoAck {
		return c.AckOffset(off)
	}
	return nil
}

// dispatch decodes the delivery body shared by 'M' and 'D' frames — the
// matched subscription ids, then the event, with no trailing bytes —
// and runs the handler of every id this client still holds.
func (c *Client) dispatch(body []byte) (*expr.Event, error) {
	n, rest, err := readUvarint(body)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(rest)) {
		return nil, fmt.Errorf("broker: delivery names %d ids in %d bytes", n, len(rest))
	}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i], rest, err = readUvarint(rest)
		if err != nil {
			return nil, err
		}
	}
	ev, used, err := expr.DecodeEvent(rest)
	if err != nil {
		return nil, err
	}
	if used != len(rest) {
		return nil, fmt.Errorf("broker: trailing bytes in delivery frame")
	}
	c.mu.Lock()
	hs := make([]Handler, 0, len(ids))
	for _, id := range ids {
		if h, ok := c.handlers[id]; ok {
			hs = append(hs, h)
		}
	}
	c.mu.Unlock()
	for _, h := range hs {
		h(ev)
	}
	return ev, nil
}

// waitHello blocks until the version handshake completes (or the
// connection fails), so callers can gate on the negotiated version.
func (c *Client) waitHello() error {
	select {
	case <-c.helloCh:
		return nil
	case <-c.done:
		err := c.Err()
		if err == nil {
			err = ErrClientClosed
		}
		return err
	}
}

// Resume attaches this connection to the named durable consumer. The
// broker replays every logged delivery for the consumer from
// max(from, last acknowledged offset, retention floor) — returned as
// the effective start offset — and then streams live matches durably:
// each is committed to the broker's log before delivery and carries its
// offset. Requires a broker with durability enabled.
func (c *Client) Resume(consumer string, from uint64) (uint64, error) {
	if err := c.waitHello(); err != nil {
		return 0, err
	}
	frame := appendUvarint([]byte{msgResume}, 0)
	frame = appendUvarint(frame, from)
	frame = append(frame, consumer...)
	r, err := c.requestAck(frame, 0)
	if err != nil {
		return 0, err
	}
	return r.off, nil
}

// AckOffset acknowledges durable delivery through off (cumulative): the
// broker persists it and a later resume starts after off.
func (c *Client) AckOffset(off uint64) error {
	return c.write(appendUvarint([]byte{msgOffsetAck}, off))
}

func (c *Client) fail(err error) {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		c.readErr = err
		close(c.done)
	}
	c.mu.Unlock()
	c.nc.Close()
}

func (c *Client) write(frame []byte) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClientClosed
	}
	c.mu.Unlock()
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.opts.WriteTimeout > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(c.opts.WriteTimeout))
	}
	return writeFrame(c.nc, frame)
}

// request sends a frame and waits for its acknowledgement. An
// acknowledgement for any other id means client and server disagree
// about which request is outstanding — every later ack would be
// attributed to the wrong request — so the connection is failed rather
// than left permanently desynchronized.
func (c *Client) request(frame []byte, wantID uint64) error {
	_, err := c.requestAck(frame, wantID)
	return err
}

func (c *Client) requestAck(frame []byte, wantID uint64) (ackResult, error) {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	if err := c.write(frame); err != nil {
		return ackResult{}, err
	}
	select {
	case r := <-c.acks:
		if r.id != wantID {
			err := fmt.Errorf("broker: acknowledgement for %d, expected %d: ack stream desynchronized", r.id, wantID)
			c.fail(err)
			return ackResult{}, err
		}
		return r, r.err
	case <-c.done:
		return ackResult{}, c.readErr
	}
}

// Subscribe registers x with the broker and routes matching events to
// handler. The expression's ID scopes the subscription within this
// client and must be unique among its live subscriptions.
func (c *Client) Subscribe(x *expr.Expression, handler Handler) error {
	if handler == nil {
		return errors.New("broker: nil handler")
	}
	c.mu.Lock()
	if _, dup := c.handlers[uint64(x.ID)]; dup {
		c.mu.Unlock()
		return fmt.Errorf("broker: duplicate subscription id %d", x.ID)
	}
	c.handlers[uint64(x.ID)] = handler
	c.mu.Unlock()

	frame := expr.AppendExpression([]byte{msgSubscribe}, x)
	if err := c.request(frame, uint64(x.ID)); err != nil {
		c.mu.Lock()
		delete(c.handlers, uint64(x.ID))
		c.mu.Unlock()
		return err
	}
	return nil
}

// Unsubscribe removes the subscription with the given id.
func (c *Client) Unsubscribe(id expr.ID) error {
	frame := appendUvarint([]byte{msgUnsubscribe}, uint64(id))
	if err := c.request(frame, uint64(id)); err != nil {
		return err
	}
	c.mu.Lock()
	delete(c.handlers, uint64(id))
	c.mu.Unlock()
	return nil
}

// Publish sends an event to the broker (fire-and-forget).
func (c *Client) Publish(ev *expr.Event) error {
	return c.write(expr.AppendEvent([]byte{msgPublish}, ev))
}

// hasHandler reports whether a subscription id is registered on this
// client (used by Session replay to skip already-installed entries).
func (c *Client) hasHandler(id uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.handlers[id]
	return ok
}

// Err returns the terminal read-loop error, if the connection has
// failed.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.readErr
}

// Done returns a channel closed when the connection has failed or been
// closed; Err reports why.
func (c *Client) Done() <-chan struct{} { return c.done }

// Close terminates the connection. Blocked requests are released.
func (c *Client) Close() error {
	c.fail(ErrClientClosed)
	return nil
}
