package broker

import (
	"net"
	"strings"
	"testing"
	"time"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
)

// newTestConn registers a synthetic connection on srv with a bounded
// outbox and no writer goroutine, so outbox occupancy is fully under
// the test's control.
func newTestConn(t *testing.T, srv *Server, outboxCap int) *conn {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	c := &conn{
		s:        srv,
		nc:       a,
		outbox:   make(chan outFrame, outboxCap),
		done:     make(chan struct{}),
		byClient: make(map[uint64]expr.ID),
	}
	srv.mu.Lock()
	srv.conns[c] = struct{}{}
	srv.mu.Unlock()
	return c
}

// subscribeDirect installs an engine subscription owned by c, the way
// handleSubscribe would.
func subscribeDirect(t *testing.T, eng *apcm.Engine, srv *Server, c *conn, clientID uint64) {
	t.Helper()
	engID := eng.NewID()
	x := expr.MustNew(expr.ID(engID), expr.Ge(1, 0))
	if err := eng.Subscribe(x); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	srv.subs[engID] = &subscriber{c: c, clientID: clientID}
	srv.mu.Unlock()
}

// TestDeliveredCountsOnlyEnqueuedFrames is the regression test for the
// delivered-count inflation bug: handlePublish used to increment the
// delivered counter before knowing whether the frame was accepted, so
// frames dropped on a stalled consumer were still counted as delivered.
func TestDeliveredCountsOnlyEnqueuedFrames(t *testing.T) {
	eng := apcm.MustNew(apcm.Options{Workers: 1})
	defer eng.Close()
	srv := NewServer(eng)
	srv.Logf = t.Logf
	srv.SlowConsumerTimeout = 50 * time.Millisecond

	// The stalled consumer: outbox capacity 1, already full, nothing
	// draining it.
	stalled := newTestConn(t, srv, 1)
	if !stalled.send([]byte{msgPong}) {
		t.Fatal("seed frame not enqueued into an empty outbox")
	}
	subscribeDirect(t, eng, srv, stalled, 1)

	pub := newTestConn(t, srv, 4)
	body := expr.AppendEvent(nil, expr.MustEvent(expr.P(1, 2)))
	if err := pub.handlePublish(body); err != nil {
		t.Fatal(err)
	}

	// The frame was dropped (consumer stalled past the timeout): it must
	// not be counted as delivered.
	if _, del := srv.Stats(); del != 0 {
		t.Fatalf("delivered = %d for a frame that never reached the outbox, want 0", del)
	}
	if srv.SlowConsumerDrops() != 1 {
		t.Fatalf("SlowConsumerDrops = %d, want 1", srv.SlowConsumerDrops())
	}
	select {
	case <-stalled.done:
	default:
		t.Fatal("stalled consumer not shut down after the drop")
	}
	// And send reports the drop to its caller.
	if stalled.send([]byte{msgPong}) {
		t.Fatal("send on a dropped connection reported the frame enqueued")
	}
}

// TestDeliveredCountsEnqueuedFrames is the positive control: a frame
// that does fit the outbox is counted.
func TestDeliveredCountsEnqueuedFrames(t *testing.T) {
	eng := apcm.MustNew(apcm.Options{Workers: 1})
	defer eng.Close()
	srv := NewServer(eng)
	srv.Logf = t.Logf

	healthy := newTestConn(t, srv, 4)
	subscribeDirect(t, eng, srv, healthy, 1)
	pub := newTestConn(t, srv, 4)
	body := expr.AppendEvent(nil, expr.MustEvent(expr.P(1, 2)))
	if err := pub.handlePublish(body); err != nil {
		t.Fatal(err)
	}
	if _, del := srv.Stats(); del != 1 {
		t.Fatalf("delivered = %d, want 1", del)
	}
	select {
	case f := <-healthy.outbox:
		if f.b[0] != msgMatch {
			t.Fatalf("outbox holds %q frame, want match", f.b[0])
		}
	default:
		t.Fatal("no frame enqueued for the healthy consumer")
	}
}

// TestClientFailsOnAckIDMismatch is the regression test for the ack
// desync bug: an acknowledgement carrying the wrong id used to be
// returned as the current request's answer, silently attributing every
// later ack to the wrong request. The connection must fail instead.
func TestClientFailsOnAckIDMismatch(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()

	srvDone := make(chan struct{})
	go func() {
		defer close(srvDone)
		f, err := readFrame(b, nil)
		if err != nil || f[0] != msgHello {
			t.Errorf("expected client hello, got %v (%v)", f, err)
			return
		}
		if err := writeFrame(b, helloFrame()); err != nil {
			t.Errorf("hello reply: %v", err)
			return
		}
		f, err = readFrame(b, f)
		if err != nil || f[0] != msgSubscribe {
			t.Errorf("expected subscribe, got %v (%v)", f, err)
			return
		}
		// Acknowledge an id the client never asked about.
		writeFrame(b, appendUvarint([]byte{msgAck}, 99))
	}()

	c := NewClientOpts(a, ClientOptions{PingInterval: -1})
	defer c.Close()
	err := c.Subscribe(expr.MustNew(5, expr.Eq(1, 1)), func(*expr.Event) {})
	if err == nil {
		t.Fatal("mismatched acknowledgement accepted as the request's answer")
	}
	if !strings.Contains(err.Error(), "desynchronized") {
		t.Fatalf("error %q does not name the desync", err)
	}
	// The connection is terminally failed, not limping along.
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("connection not failed after ack desync")
	}
	if c.Err() == nil {
		t.Fatal("Err() nil after ack desync")
	}
	if err := c.Publish(expr.MustEvent(expr.P(1, 1))); err == nil {
		t.Fatal("publish succeeded on a desynchronized connection")
	}
	<-srvDone
}
