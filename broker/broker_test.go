package broker

import (
	"encoding/binary"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/expr"
)

// startServer returns a running broker on loopback and its address.
func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	eng := apcm.MustNew(apcm.Options{Workers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(eng)
	s.Logf = t.Logf
	go func() {
		if err := s.Serve(ln); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(func() { s.Close(); eng.Close() })
	return s, ln.Addr().String()
}

// rawHello performs the client side of the version handshake on a raw
// connection: sends hello, consumes the server's hello reply.
func rawHello(t *testing.T, nc net.Conn) {
	t.Helper()
	if err := writeFrame(nc, helloFrame()); err != nil {
		t.Fatal(err)
	}
	reply, err := readFrame(nc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply) != 2 || reply[0] != msgHello || reply[1] != ProtocolVersion {
		t.Fatalf("server hello = %v", reply)
	}
}

// recvEvent waits for one event on ch.
func recvEvent(t *testing.T, ch <-chan *expr.Event) *expr.Event {
	t.Helper()
	select {
	case ev := <-ch:
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for delivery")
		return nil
	}
}

func TestSubscribePublishDeliver(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	got := make(chan *expr.Event, 16)
	sub := expr.MustNew(1, expr.Le(1, 100), expr.Eq(2, 7))
	if err := c.Subscribe(sub, func(ev *expr.Event) { got <- ev }); err != nil {
		t.Fatal(err)
	}

	match := expr.MustEvent(expr.P(1, 50), expr.P(2, 7))
	miss := expr.MustEvent(expr.P(1, 500), expr.P(2, 7))
	if err := c.Publish(miss); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(match); err != nil {
		t.Fatal(err)
	}
	ev := recvEvent(t, got)
	if ev.String() != match.String() {
		t.Fatalf("delivered %s, want %s", ev, match)
	}
	select {
	case ev := <-got:
		t.Fatalf("unexpected extra delivery %s", ev)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestCrossClientDelivery(t *testing.T) {
	s, addr := startServer(t)
	subC, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer subC.Close()
	pubC, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pubC.Close()

	got := make(chan *expr.Event, 16)
	if err := subC.Subscribe(expr.MustNew(9, expr.Eq(1, 1)), func(ev *expr.Event) { got <- ev }); err != nil {
		t.Fatal(err)
	}
	if err := pubC.Publish(expr.MustEvent(expr.P(1, 1))); err != nil {
		t.Fatal(err)
	}
	recvEvent(t, got)
	// The writer counts a frame delivered only after writing it, so the
	// subscriber can hold the event before Stats does.
	waitFor(t, "the delivery to be counted", func() bool {
		_, del := s.Stats()
		return del >= 1
	})
	pub, del := s.Stats()
	if pub != 1 || del != 1 {
		t.Fatalf("Stats = %d published, %d delivered", pub, del)
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := make(chan *expr.Event, 16)
	if err := c.Subscribe(expr.MustNew(3, expr.Eq(1, 1)), func(ev *expr.Event) { got <- ev }); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(expr.MustEvent(expr.P(1, 1))); err != nil {
		t.Fatal(err)
	}
	recvEvent(t, got)
	if err := c.Unsubscribe(3); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(expr.MustEvent(expr.P(1, 1))); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
		t.Fatal("delivery after unsubscribe")
	case <-time.After(100 * time.Millisecond):
	}
}

func TestUnsubscribeUnknownErrors(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Unsubscribe(42); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("expected unknown-id error, got %v", err)
	}
}

func TestDuplicateClientIDRejected(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h := func(*expr.Event) {}
	if err := c.Subscribe(expr.MustNew(5, expr.Eq(1, 1)), h); err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe(expr.MustNew(5, expr.Eq(1, 2)), h); err == nil {
		t.Fatal("duplicate client id accepted")
	}
	if err := c.Subscribe(expr.MustNew(6, expr.Eq(1, 2)), nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestDisconnectCleansUpSubscriptions(t *testing.T) {
	s, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe(expr.MustNew(1, expr.Eq(1, 1)), func(*expr.Event) {}); err != nil {
		t.Fatal(err)
	}
	if s.eng.Len() != 1 {
		t.Fatalf("engine Len = %d", s.eng.Len())
	}
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for s.eng.Len() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s.eng.Len() != 0 {
		t.Fatal("subscriptions not cleaned up after disconnect")
	}
}

func TestMalformedFramesDropConnection(t *testing.T) {
	cases := []struct {
		name  string
		frame []byte
	}{
		{"unknown type", []byte{'Z', 1, 2, 3}},
		{"truncated subscribe", []byte{msgSubscribe, 0xff}},
		{"truncated publish", []byte{msgPublish, 0x05}},
		{"empty publish", []byte{msgPublish}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, addr := startServer(t)
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			rawHello(t, nc)
			if err := writeFrame(nc, tc.frame); err != nil {
				t.Fatal(err)
			}
			// The server must close the connection: the next read returns EOF.
			nc.SetReadDeadline(time.Now().Add(5 * time.Second))
			buf := make([]byte, 1)
			if _, err := nc.Read(buf); err == nil {
				t.Fatal("connection survived malformed frame")
			}
		})
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	_, addr := startServer(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := nc.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("connection survived oversize frame header")
	}
}

func TestZeroLengthFrameRejected(t *testing.T) {
	_, addr := startServer(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("connection survived zero-length frame")
	}
}

func TestManySubscribersFanout(t *testing.T) {
	_, addr := startServer(t)
	const n = 8
	var wg sync.WaitGroup
	clients := make([]*Client, n)
	received := make([]chan *expr.Event, n)
	for i := 0; i < n; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
		received[i] = make(chan *expr.Event, 4)
		ch := received[i]
		if err := c.Subscribe(expr.MustNew(1, expr.Ge(1, 0)), func(ev *expr.Event) { ch <- ev }); err != nil {
			t.Fatal(err)
		}
	}
	if err := clients[0].Publish(expr.MustEvent(expr.P(1, 5))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recvEvent(t, received[i])
		}(i)
	}
	wg.Wait()
}

func TestPublishAfterClientClose(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Publish(expr.MustEvent(expr.P(1, 1))); err == nil {
		t.Fatal("publish after close succeeded")
	}
	if err := c.Subscribe(expr.MustNew(1, expr.Eq(1, 1)), func(*expr.Event) {}); err == nil {
		t.Fatal("subscribe after close succeeded")
	}
}

func TestServerCloseReleasesClients(t *testing.T) {
	s, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Subscribe(expr.MustNew(1, expr.Eq(1, 1)), func(*expr.Event) {}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// The client's read loop should observe the close promptly; a
	// subsequent request must not hang.
	done := make(chan error, 1)
	go func() { done <- c.Unsubscribe(1) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("request succeeded against closed server")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request hung after server close")
	}
}
