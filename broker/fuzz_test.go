package broker

import (
	"encoding/binary"
	"net"
	"testing"
	"time"

	"github.com/streammatch/apcm/expr"
)

// FuzzClientFrame feeds one arbitrary server frame to a client that has
// completed a valid handshake, over an in-memory pipe. Whatever the
// frame, the client must neither panic nor hang. A 'M' match or 'D'
// durable frame is additionally checked against the wire format: a
// well-formed one leaves the connection usable (a sentinel match sent
// after it is delivered), a malformed one fails the client with a
// non-nil Err. Continuous fuzzing:
//
//	go test -run '^$' -fuzz FuzzClientFrame ./broker/
func FuzzClientFrame(f *testing.F) {
	ev := expr.MustEvent(expr.P(1, 5), expr.P(2, -3))
	match := func(typ byte, prefix []byte, ids ...uint64) []byte {
		b := append([]byte{typ}, prefix...)
		b = binary.AppendUvarint(b, uint64(len(ids)))
		for _, id := range ids {
			b = binary.AppendUvarint(b, id)
		}
		return expr.AppendEvent(b, ev)
	}
	f.Add(match(msgMatch, nil, 1))
	f.Add(match(msgMatch, nil, 1, 2, 7))
	f.Add(match(msgDurable, []byte{42}, 1))
	f.Add(append(match(msgMatch, nil, 1), 0))                               // trailing byte
	f.Add(append(match(msgDurable, []byte{0}, 2), 9))                       // trailing byte
	f.Add([]byte{msgMatch, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // huge id count
	f.Add([]byte{msgDurable, 3})
	f.Add([]byte{msgAck, 1})
	f.Add([]byte{msgErr, 0, 'n', 'o'})
	f.Add([]byte{msgResumeOK, 0, 5})
	f.Add([]byte{msgHello, ProtocolVersion})
	f.Add([]byte{msgHello, 1})
	f.Add([]byte{msgPong})
	f.Add([]byte{'Z'})

	sentinel := match(msgMatch, nil, 99)
	f.Fuzz(func(t *testing.T, frame []byte) {
		if len(frame) == 0 || len(frame) > MaxFrame {
			return // not a frame: writeFrame refuses these
		}
		srv, cli := net.Pipe()
		defer srv.Close()
		// Drain everything the client writes (hello, acks) so its
		// synchronous pipe writes never block.
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			var buf []byte
			for {
				b, err := readFrame(srv, buf)
				if err != nil {
					return
				}
				buf = b
			}
		}()
		c := NewClientOpts(cli, ClientOptions{PingInterval: -1, WriteTimeout: time.Second})
		defer func() {
			c.Close()
			srv.Close()
			<-drained
		}()
		delivered := make(chan struct{}, 1)
		c.mu.Lock()
		for _, id := range []uint64{1, 2, 7} {
			c.handlers[id] = func(*expr.Event) {}
		}
		c.handlers[99] = func(*expr.Event) {
			select {
			case delivered <- struct{}{}:
			default:
			}
		}
		c.mu.Unlock()

		if err := writeFrame(srv, helloFrame()); err != nil {
			t.Fatalf("hello: %v", err)
		}
		// Either write fails only because the client closed its end
		// after rejecting the fuzzed frame.
		_ = writeFrame(srv, frame)
		_ = writeFrame(srv, sentinel)

		survived := false
		select {
		case <-delivered:
			survived = true
		case <-c.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("client hung on frame %q", frame)
		}
		switch frame[0] {
		case msgMatch, msgDurable:
			wellFormed := validDelivery(frame)
			if wellFormed && !survived {
				t.Fatalf("well-formed %q frame failed the client: %v", frame[0], c.Err())
			}
			if !wellFormed && (survived || c.Err() == nil) {
				t.Fatalf("malformed %q frame %x accepted", frame[0], frame)
			}
		}
	})
}

// validDelivery reports whether a 'M' or 'D' frame follows the wire
// format: for 'D' a uvarint offset, then a uvarint id count, that many
// uvarint ids, and one encoded event filling the rest of the frame.
func validDelivery(frame []byte) bool {
	b := frame[1:]
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, false
		}
		b = b[n:]
		return v, true
	}
	if frame[0] == msgDurable {
		if _, ok := next(); !ok {
			return false
		}
	}
	n, ok := next()
	if !ok {
		return false
	}
	for i := uint64(0); i < n; i++ {
		if _, ok := next(); !ok {
			return false
		}
	}
	_, used, err := expr.DecodeEvent(b)
	return err == nil && used == len(b)
}
