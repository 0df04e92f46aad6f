package broker

import (
	"fmt"
	"hash/crc32"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/streammatch/apcm/internal/commitlog"
)

// maxReplTransfer bounds a reassembled 'G' segment or 'b' batch
// transfer on the follower; anything larger indicates a corrupt or
// misconfigured leader (segments are SegmentBytes-sized).
const maxReplTransfer = 1 << 28

// replicator is the follower side of replication: a goroutine that
// dials the leader named by Server.Follow, handshakes with 'F', ingests
// the shipped log verbatim, acknowledges with 'B', and promotes this
// server to leader when the leader stays silent past ReplTimeout.
//
// It deliberately speaks raw frames on its own net.Conn instead of
// reusing Client: replication frames are chunked bulk transfers with
// their own liveness rules, and a follower must never interpret leader
// loss as anything but a promotion trigger.
type replicator struct {
	s *Server
	// lastContact is the UnixNano of the last frame received from the
	// leader; dial failures and silent-but-open connections both count
	// against it, so the promotion clock measures leader usefulness,
	// not TCP reachability.
	lastContact atomic.Int64
	// promoteMu serializes promotion attempts from the liveness
	// monitor, the dial loop and the stale-leader handshake path.
	promoteMu sync.Mutex
}

func (r *replicator) touch()             { r.lastContact.Store(time.Now().UnixNano()) }
func (r *replicator) contact() time.Time { return time.Unix(0, r.lastContact.Load()) }

// runReplicator is the follower supervisor: dial, follow until the
// connection dies, promote when the leader has been silent too long.
// Exits when the server closes or this node stops being a follower.
func (s *Server) runReplicator() {
	defer close(s.replDone)
	r := &replicator{s: s}
	r.touch()
	hb, timeout := s.replHeartbeat(), s.replTimeout()
	for s.role.Load() == roleFollower {
		select {
		case <-s.replStop:
			return
		default:
		}
		nc, err := s.dialLeader()
		if err != nil {
			if time.Since(r.contact()) > timeout {
				r.promoteAndFence(nil, fmt.Sprintf("leader unreachable: %v", err))
				return
			}
			select {
			case <-s.replStop:
				return
			case <-time.After(hb):
			}
			continue
		}
		r.followOnce(nc)
		nc.Close()
		if s.role.Load() != roleFollower {
			return
		}
		if time.Since(r.contact()) > timeout {
			r.promoteAndFence(nil, "leader connection lost and silent past timeout")
			return
		}
		select {
		case <-s.replStop:
			return
		case <-time.After(hb):
		}
	}
}

func (s *Server) dialLeader() (net.Conn, error) {
	if s.replDial != nil {
		return s.replDial(s.Follow)
	}
	return net.DialTimeout("tcp", s.Follow, s.replTimeout())
}

// adoptEpoch durably adopts a higher epoch observed from the leader,
// persisting before the in-memory bump so a crash cannot resurrect the
// old epoch. Reports whether the epoch is now current.
func (r *replicator) adoptEpoch(e uint64) bool {
	s := r.s
	if e <= s.epoch.Load() {
		return true
	}
	if err := commitlog.StoreEpoch(s.LogDir, e); err != nil {
		s.Logf("broker: persisting epoch %d: %v", e, err)
		return false
	}
	s.epoch.Store(e)
	return true
}

// promote turns this follower into the leader: the bumped epoch is
// persisted first (the fencing invariant — acting on an unpersisted
// epoch could resurrect a duplicate leader after a crash), then the
// promotion offset is recorded and the role flips, at which point the
// frame dispatcher starts accepting client operations.
func (r *replicator) promote(reason string) bool {
	r.promoteMu.Lock()
	defer r.promoteMu.Unlock()
	s := r.s
	if s.role.Load() != roleFollower {
		return false
	}
	newEpoch := s.epoch.Load() + 1
	if err := commitlog.StoreEpoch(s.LogDir, newEpoch); err != nil {
		s.Logf("broker: promotion aborted: persisting epoch %d: %v", newEpoch, err)
		return false
	}
	s.epoch.Store(newEpoch)
	s.promotedAt.Store(int64(s.log.NextOffset()))
	s.promoted.Store(true)
	s.promotions.Add(1)
	s.role.Store(roleLeader)
	s.Logf("broker: promoted to leader at epoch %d, offset %d (%s)", newEpoch, s.log.NextOffset(), reason)
	return true
}

// promoteAndFence promotes and, when a connection to the old leader is
// still open, sends a best-effort 'X' fence carrying the new epoch.
// Under an asymmetric partition (leader's frames blackholed toward us)
// the follower→leader direction may still flow, which is exactly what
// fences the stale leader before it diverges further.
func (r *replicator) promoteAndFence(writeF func([]byte) error, reason string) {
	if !r.promote(reason) {
		return
	}
	if writeF == nil {
		return
	}
	if err := writeF(appendUvarint([]byte{msgFence}, r.s.epoch.Load())); err != nil {
		return
	}
	// Linger one heartbeat before the caller closes the connection. The
	// fence may still be sitting in the stale leader's receive queue, and
	// closing immediately races its read loop against its write loop: a
	// pong or batch frame hitting our closed socket errors the
	// connection on its side and tears down its reader before the 'X' is
	// dequeued. The fence is best-effort, but losing it to our own close
	// is avoidable; once the leader processes it, fenceSelf closes the
	// connection from its end and the linger just runs out quietly.
	time.Sleep(r.s.replHeartbeat())
}

// followOnce runs one replication connection to completion: handshake,
// ingest loop, liveness monitor. Returns when the connection dies for
// any reason; the supervisor decides whether to re-dial or promote.
func (r *replicator) followOnce(nc net.Conn) {
	s := r.s
	hb, timeout := s.replHeartbeat(), s.replTimeout()
	var wmu sync.Mutex
	writeF := func(frame []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		nc.SetWriteDeadline(time.Now().Add(timeout))
		return writeFrame(nc, frame)
	}
	// Version hello and repl-hello are pipelined: the server processes
	// frames in order, so the 'F' is handled on a fully negotiated
	// connection; the server's hello reply arrives in the read loop.
	if err := writeF(helloFrame()); err != nil {
		return
	}
	tail := s.log.Tail()
	hello := appendUvarint([]byte{msgReplHello}, s.epoch.Load())
	hello = appendUvarint(hello, tail.Off)
	hello = appendUvarint(hello, uint64(tail.Acks))
	hello = append(hello, s.NodeID...)
	if err := writeF(hello); err != nil {
		return
	}

	// Liveness monitor and pinger: promote when the leader goes silent
	// past the timeout even though the connection is still open (the
	// asymmetric-partition case — our reads are blackholed while our
	// writes flow), and unblock the read loop on server close.
	stopMon := make(chan struct{})
	defer close(stopMon)
	go func() {
		t := time.NewTicker(hb)
		defer t.Stop()
		for {
			select {
			case <-s.replStop:
				nc.Close()
				return
			case <-stopMon:
				return
			case <-t.C:
				if time.Since(r.contact()) > timeout {
					r.promoteAndFence(writeF, "leader silent past timeout")
					nc.Close()
					return
				}
				writeF([]byte{msgPing})
			}
		}
	}()

	var buf []byte
	var segBuf, batchBuf []byte
	welcomed := false
	for {
		frame, err := readFrame(nc, buf)
		if err != nil {
			return
		}
		buf = frame
		r.touch()
		switch frame[0] {
		case msgHello:
			if len(frame) != 2 || frame[1] < ProtocolVersion {
				s.Logf("broker: replication needs protocol %d, leader %s negotiated %v", ProtocolVersion, s.Follow, frame[1:])
				return
			}
		case msgReplWelcome:
			e, rest, err := readUvarint(frame[1:])
			if err != nil {
				s.Logf("broker: bad repl-welcome from %s", s.Follow)
				return
			}
			leaderNext, rest, err := readUvarint(rest)
			if err != nil {
				s.Logf("broker: bad repl-welcome from %s", s.Follow)
				return
			}
			start, _, err := readUvarint(rest)
			if err != nil {
				s.Logf("broker: bad repl-welcome from %s", s.Follow)
				return
			}
			if ours := s.epoch.Load(); e < ours {
				// The "leader" is behind our persisted epoch: a stale
				// leader from before our last promotion-adjacent epoch
				// bump. Take over and fence it.
				r.promoteAndFence(writeF, fmt.Sprintf("leader at stale epoch %d (ours %d)", e, ours))
				return
			} else if e > ours && !r.adoptEpoch(e) {
				return
			}
			next := s.log.NextOffset()
			if start > next {
				// The leader retained away everything below start; a
				// pristine follower bootstraps there.
				if err := s.log.ResetTo(start); err != nil {
					s.Logf("broker: cannot bootstrap at offset %d (leader retained past our log): %v", start, err)
					return
				}
			} else if start < next {
				s.Logf("broker: leader offered start %d below our next offset %d", start, next)
				return
			}
			welcomed = true
			s.Logf("broker: following %s from offset %d (leader next %d, epoch %d)", s.Follow, start, leaderNext, s.epoch.Load())
		case msgReplSegment, msgReplBatch:
			if !welcomed {
				s.Logf("broker: repl transfer before welcome from %s", s.Follow)
				return
			}
			flags, rest, err := readUvarint(frame[1:])
			if err != nil {
				s.Logf("broker: bad repl chunk from %s", s.Follow)
				return
			}
			tgt := &segBuf
			if frame[0] == msgReplBatch {
				tgt = &batchBuf
			}
			*tgt = append(*tgt, rest...)
			if len(*tgt) > maxReplTransfer {
				s.Logf("broker: repl transfer from %s exceeds %d bytes", s.Follow, maxReplTransfer)
				return
			}
			if flags&chunkFinal != 0 && frame[0] == msgReplBatch {
				next, err := s.log.IngestBatch(batchBuf)
				if err != nil {
					s.Logf("broker: ingesting batch from %s: %v", s.Follow, err)
					return
				}
				batchBuf = batchBuf[:0]
				s.replIngested.Add(1)
				if err := writeF(appendUvarint([]byte{msgReplAck}, next)); err != nil {
					return
				}
			}
		case msgReplSegEnd:
			base, rest, err := readUvarint(frame[1:])
			if err != nil {
				s.Logf("broker: bad segment-end from %s", s.Follow)
				return
			}
			end, rest, err := readUvarint(rest)
			if err != nil {
				s.Logf("broker: bad segment-end from %s", s.Follow)
				return
			}
			sum, _, err := readUvarint(rest)
			if err != nil {
				s.Logf("broker: bad segment-end from %s", s.Follow)
				return
			}
			if !welcomed {
				s.Logf("broker: segment-end before welcome from %s", s.Follow)
				return
			}
			if got := crc32.ChecksumIEEE(segBuf); got != uint32(sum) {
				s.Logf("broker: segment [%d,%d) from %s failed checksum", base, end, s.Follow)
				return
			}
			if next := s.log.NextOffset(); base != next {
				s.Logf("broker: segment base %d from %s, expected %d", base, s.Follow, next)
				return
			}
			if err := s.log.InstallSegment(segBuf); err != nil {
				s.Logf("broker: installing segment [%d,%d) from %s: %v", base, end, s.Follow, err)
				return
			}
			if got := s.log.NextOffset(); got != end {
				s.Logf("broker: segment from %s installed to offset %d, expected %d", s.Follow, got, end)
				return
			}
			segBuf = segBuf[:0]
			s.replIngested.Add(1)
			if err := writeF(appendUvarint([]byte{msgReplAck}, end)); err != nil {
				return
			}
		case msgPong:
			// Contact already counted; nothing else to do.
		case msgFence:
			e, _, err := readUvarint(frame[1:])
			if err != nil {
				s.Logf("broker: bad fence from %s", s.Follow)
				return
			}
			if e > s.epoch.Load() {
				// A follower hearing a higher epoch stays a follower: it
				// adopts the epoch and keeps trying the configured leader
				// address, which the new regime now answers for.
				if r.adoptEpoch(e) {
					s.Logf("broker: adopted epoch %d from fence by %s", e, s.Follow)
				}
			}
			return
		case msgErr:
			_, msg, err := readUvarint(frame[1:])
			if err != nil {
				return
			}
			s.Logf("broker: leader %s rejected replication: %s", s.Follow, msg)
			return
		default:
			s.Logf("broker: unexpected %q frame on replication connection to %s", frame[0], s.Follow)
			return
		}
	}
}
