package broker

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"github.com/streammatch/apcm/internal/commitlog"
)

// Server roles. A server starts as the leader, or as a follower when
// Follow names a leader address; a follower promotes itself to leader
// on leader-liveness loss, and any node that hears an epoch above its
// own fences itself — terminally for the process; an operator restarts
// it in a valid role.
const (
	roleLeader int32 = iota
	roleFollower
	roleFenced
)

// roleName names a role for logs and metrics.
func roleName(r int32) string {
	switch r {
	case roleLeader:
		return "leader"
	case roleFollower:
		return "follower"
	case roleFenced:
		return "fenced"
	}
	return fmt.Sprintf("role(%d)", r)
}

// Role reports the server's current replication role: "leader",
// "follower", or "fenced".
func (s *Server) Role() string { return roleName(s.role.Load()) }

// replHeartbeat is the follower→leader ping cadence.
func (s *Server) replHeartbeat() time.Duration {
	if s.ReplHeartbeat > 0 {
		return s.ReplHeartbeat
	}
	return 250 * time.Millisecond
}

// replTimeout is how long a follower tolerates total leader silence
// before promoting itself.
func (s *Server) replTimeout() time.Duration {
	if s.ReplTimeout > 0 {
		return s.ReplTimeout
	}
	return 3 * time.Second
}

// fenceSelf durably adopts epoch and fences this server: the epoch is
// persisted first (a crash must never resurrect the old epoch), then
// every connection is aborted and client operations are rejected from
// here on. Called when any peer demonstrates an epoch above our own —
// the cluster has moved on without us.
func (s *Server) fenceSelf(epoch uint64) {
	for {
		cur := s.epoch.Load()
		if epoch <= cur {
			break
		}
		if s.epoch.CompareAndSwap(cur, epoch) {
			if s.LogDir != "" {
				if err := commitlog.StoreEpoch(s.LogDir, epoch); err != nil {
					s.Logf("broker: persisting fenced epoch %d: %v", epoch, err)
				}
			}
			break
		}
	}
	if s.role.Swap(roleFenced) == roleFenced {
		return
	}
	s.fenced.Add(1)
	s.Logf("broker: fenced at epoch %d; rejecting client operations", epoch)
	s.mu.Lock()
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.abort()
	}
	if s.log != nil {
		s.log.DetachReplica()
	}
}

// detachReplica clears c's replica registration if it still holds it,
// releasing the retention clamp and any -repl-sync waiters.
func (s *Server) detachReplica(c *conn) {
	s.mu.Lock()
	was := s.replica == c
	if was {
		s.replica = nil
	}
	s.mu.Unlock()
	if was && s.log != nil {
		s.log.DetachReplica()
	}
}

// sendChunked streams data as typ frames of at most replChunk bytes,
// the last one flagged final. Reports whether every chunk was accepted
// by the outbox.
func (c *conn) sendChunked(typ byte, data []byte) bool {
	for len(data) > 0 {
		n := len(data)
		flags := uint64(chunkFinal)
		if n > replChunk {
			n = replChunk
			flags = 0
		}
		frame := appendUvarint([]byte{typ}, flags)
		frame = append(frame, data[:n]...)
		if !c.send(frame) {
			return false
		}
		data = data[n:]
	}
	return true
}

// handleReplHello is the leader half of the replication handshake: it
// validates the follower's epoch, registers the connection as the
// replica (stealing a dead predecessor's slot, like consumer claims),
// answers with the effective start offset, and starts the sender. The
// read loop keeps running to consume the follower's acks and pings.
func (c *conn) handleReplHello(body []byte) error {
	s := c.s
	peerEpoch, rest, err := readUvarint(body)
	if err != nil {
		return errors.New("bad repl-hello")
	}
	next, rest, err := readUvarint(rest)
	if err != nil {
		return errors.New("bad repl-hello")
	}
	acks, rest, err := readUvarint(rest)
	if err != nil || acks > math.MaxUint32 {
		return errors.New("bad repl-hello")
	}
	node := string(rest)
	if s.log == nil {
		return errors.New("repl-hello without durability enabled")
	}
	if ours := s.epoch.Load(); peerEpoch > ours {
		// The peer has seen a newer epoch than we have: the cluster
		// moved on while we thought we were current. Fence ourselves;
		// the best-effort 'X' tells the peer why before the abort lands.
		c.send(appendUvarint([]byte{msgFence}, peerEpoch))
		s.fenceSelf(peerEpoch)
		return fmt.Errorf("fenced by repl-hello from %q at epoch %d", node, peerEpoch)
	}
	if s.role.Load() != roleLeader {
		c.send(appendUvarint([]byte{msgFence}, s.epoch.Load()))
		return fmt.Errorf("repl-hello from %q but this node is %s", node, s.Role())
	}
	s.mu.Lock()
	if prev := s.replica; prev != nil {
		select {
		case <-prev.done:
			// Dead replica that raced past its own unregister; steal.
		default:
			s.mu.Unlock()
			return fmt.Errorf("repl-hello from %q but a replica is already attached", node)
		}
	}
	s.replica = c
	s.mu.Unlock()
	c.mu.Lock()
	c.isRepl = true
	c.mu.Unlock()

	// Clamp the start forward past retention; a pristine follower
	// bootstraps at the first retained offset via ResetTo.
	start := commitlog.Pos{Off: next, Acks: uint32(acks)}
	if first := s.log.FirstOffset(); first > start.Off {
		start = commitlog.Pos{Off: first}
	}
	s.log.AttachReplica(start.Off)
	welcome := appendUvarint([]byte{msgReplWelcome}, s.epoch.Load())
	welcome = appendUvarint(welcome, s.log.NextOffset())
	welcome = appendUvarint(welcome, start.Off)
	if !c.send(welcome) {
		return errors.New("connection closed during repl handshake")
	}
	s.Logf("broker: replica %q attached at offset %d (epoch %d)", node, start.Off, s.epoch.Load())
	go c.replSender(start)
	return nil
}

// replSender streams the log to the attached follower from position
// next onward: whole sealed segments (CRC-finalized 'G'/'g' chunk
// transfers) while the position aligns with a segment's start, raw
// batches ('b') otherwise — offsets batches included, so the follower
// tracks every consumer's acknowledged offset exactly — parking on the
// committed tail when caught up. One goroutine per attached replica;
// exits when the connection dies.
//
// It carries no //apcm:durable annotation although it emits the frames
// a follower's durability is built from: it never commits anything
// itself, so its sends cannot be dominated by a same-function
// Append/Sync. Commit ordering is inherited instead: ReadBatches and
// WaitTail only ever surface batches behind the committed tail, so the
// shipped stream never outruns the leader's fsync.
// The replication crash matrix (make fault-repl) checks that
// dynamically.
func (c *conn) replSender(next commitlog.Pos) {
	s := c.s
	for !c.dead() {
		if shipped, ok := c.shipAlignedSegment(&next); !ok {
			return
		} else if shipped {
			continue
		}
		sent := false
		err := s.log.ReadBatches(next, func(raw []byte, end commitlog.Pos) error {
			if c.dead() {
				return errStopReplay
			}
			if !c.sendChunked(msgReplBatch, raw) {
				return errStopReplay
			}
			s.replBatchesSent.Add(1)
			next = end
			sent = true
			// Break out between batches if a rotation just sealed a
			// segment we could bulk-ship instead.
			return nil
		})
		if err != nil && !errors.Is(err, errStopReplay) {
			s.Logf("broker: repl sender stopping at offset %d: %v", next.Off, err)
			c.abort()
			return
		}
		if c.dead() {
			return
		}
		if !sent {
			if _, err := s.log.WaitTail(next, c.dead); err != nil {
				return
			}
		}
	}
}

// shipAlignedSegment bulk-ships one sealed segment when *next sits
// exactly on its start, advancing *next past it. ok=false means the
// connection died.
func (c *conn) shipAlignedSegment(next *commitlog.Pos) (shipped, ok bool) {
	s := c.s
	for _, si := range s.log.SealedSegments() {
		if si.Start != *next {
			continue
		}
		data, info, err := s.log.ReadSegment(si.Start.Off)
		if err != nil {
			// Raced retention or disk trouble; the batch path re-reads.
			return false, true
		}
		if !c.sendChunked(msgReplSegment, data) {
			return false, false
		}
		end := appendUvarint([]byte{msgReplSegEnd}, info.Start.Off)
		end = appendUvarint(end, info.End.Off)
		end = appendUvarint(end, uint64(crc32.ChecksumIEEE(data)))
		if !c.send(end) {
			return false, false
		}
		s.replSegmentsShipped.Add(1)
		*next = info.End
		return true, true
	}
	return false, true
}

// handleReplAck advances the replicated watermark from a follower 'B'
// frame.
func (c *conn) handleReplAck(body []byte) error {
	next, rest, err := readUvarint(body)
	if err != nil || len(rest) != 0 {
		return errors.New("bad repl-ack")
	}
	c.mu.Lock()
	isRepl := c.isRepl
	c.mu.Unlock()
	if !isRepl {
		return errors.New("repl-ack before repl-hello")
	}
	c.s.replAcks.Add(1)
	c.s.log.SetReplicated(next)
	return nil
}

// handleFence reacts to an 'X' frame: an epoch above our own fences
// this server (the canonical stale-leader path — the promoted follower
// sends it on the dying replication connection); anything else is
// stale noise from a healed partition and is dropped.
func (c *conn) handleFence(body []byte) error {
	epoch, rest, err := readUvarint(body)
	if err != nil || len(rest) != 0 {
		return errors.New("bad fence")
	}
	if epoch > c.s.epoch.Load() {
		c.s.fenceSelf(epoch)
		return fmt.Errorf("fenced at epoch %d", epoch)
	}
	c.s.Logf("broker: ignoring stale fence at epoch %d (ours %d)", epoch, c.s.epoch.Load())
	return nil
}
