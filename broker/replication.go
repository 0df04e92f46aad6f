package broker

import (
	"errors"
	"fmt"
	"hash/crc32"
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

// replHeartbeat is the follower→leader ping cadence and the leader's
// offset-journal shipping cadence.
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
// answers with the effective start offset, and starts the sender and
// offset-journal goroutines. The read loop keeps running to consume
// the follower's acks and pings.
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
	start := next
	if first := s.log.FirstOffset(); first > start {
		start = first
	}
	s.log.AttachReplica(start)
	welcome := appendUvarint([]byte{msgReplWelcome}, s.epoch.Load())
	welcome = appendUvarint(welcome, s.log.NextOffset())
	welcome = appendUvarint(welcome, start)
	if !c.send(welcome) {
		return errors.New("connection closed during repl handshake")
	}
	s.Logf("broker: replica %q attached at offset %d (epoch %d)", node, start, s.epoch.Load())
	go c.replSender(start)
	go c.replJournalLoop()
	return nil
}

// replSender streams the log to the attached follower from offset next
// onward: whole sealed segments (CRC-finalized 'G'/'g' chunk
// transfers) while the position aligns with a segment boundary, raw
// batches ('b') otherwise, parking on the group-commit watermark when
// caught up. One goroutine per attached replica; exits when the
// connection dies.
//
// It carries no //apcm:durable annotation although it emits the frames
// a follower's durability is built from: it never commits anything
// itself, so its sends cannot be dominated by a same-function
// Append/Sync. Commit ordering is inherited instead: ReadBatches and
// WaitCommitted only ever surface records below the committed
// watermark, so the shipped stream never outruns the leader's fsync.
// The replication crash matrix (make fault-repl) checks that
// dynamically.
func (c *conn) replSender(next uint64) {
	s := c.s
	for !c.dead() {
		if shipped, ok := c.shipAlignedSegment(&next); !ok {
			return
		} else if shipped {
			continue
		}
		sent := false
		err := s.log.ReadBatches(next, func(base uint64, count uint32, raw []byte) error {
			if c.dead() {
				return errStopReplay
			}
			if !c.sendChunked(msgReplBatch, raw) {
				return errStopReplay
			}
			s.replBatchesSent.Add(1)
			next = base + uint64(count)
			sent = true
			// Break out between batches if a rotation just sealed a
			// segment we could bulk-ship instead.
			return nil
		})
		if err != nil && !errors.Is(err, errStopReplay) {
			s.Logf("broker: repl sender stopping at offset %d: %v", next, err)
			c.abort()
			return
		}
		if c.dead() {
			return
		}
		if !sent {
			if _, err := s.log.WaitCommitted(next, c.dead); err != nil {
				return
			}
		}
	}
}

// shipAlignedSegment bulk-ships one sealed segment when *next sits
// exactly on its base, advancing *next past it. ok=false means the
// connection died.
func (c *conn) shipAlignedSegment(next *uint64) (shipped, ok bool) {
	s := c.s
	for _, si := range s.log.SealedSegments() {
		if si.Base != *next {
			continue
		}
		data, info, err := s.log.ReadSegment(si.Base)
		if err != nil {
			// Raced retention or disk trouble; the batch path re-reads.
			return false, true
		}
		if !c.sendChunked(msgReplSegment, data) {
			return false, false
		}
		end := appendUvarint([]byte{msgReplSegEnd}, info.Base)
		end = appendUvarint(end, info.End)
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

// replJournalLoop periodically ships every consumer's acknowledged
// offset to the follower, so a promotion resumes consumers near where
// the leader left off (acks between ships are redelivered —
// at-least-once, as everywhere else). Exits with the connection.
func (c *conn) replJournalLoop() {
	s := c.s
	t := time.NewTicker(s.replHeartbeat())
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
		}
		frame := []byte{msgReplOffsets}
		for _, name := range s.offsets.Names() {
			next, ok := s.offsets.Get(name)
			if !ok {
				continue
			}
			frame = appendUvarint(frame, uint64(len(name)))
			frame = append(frame, name...)
			frame = appendUvarint(frame, next)
			if len(frame) > 32<<10 {
				if !c.send(frame) {
					return
				}
				frame = []byte{msgReplOffsets}
			}
		}
		if len(frame) > 1 {
			if !c.send(frame) {
				return
			}
			s.replJournalShips.Add(1)
		}
	}
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
