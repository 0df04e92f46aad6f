package broker

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"github.com/streammatch/apcm/internal/commitlog"
)

// consumerState is one durable consumer identity: a name that outlives
// any single connection. At most one connection is attached at a time;
// its matched events are committed to the log before delivery, and its
// acknowledged offset rides the same log so the next attachment resumes
// where the last one stopped.
//
// Attachment protocol: a resuming connection claims cs.c first, replays
// logged history, and only then flips cs.live. Publishers stage every
// matched record under cs.mu but push it to the connection only while
// live — records staged mid-replay are picked up by the replay's final
// round, which runs under cs.mu and first waits for them to commit, so
// the replay/live handoff neither loses nor needs to deduplicate
// deliveries.
type consumerState struct {
	s    *Server
	name string

	mu   sync.Mutex //apcm:lockrank=3
	c    *conn      // claiming connection; nil when offline
	live bool       // replay finished; publishers deliver directly
}

// detach releases the consumer if c still holds it.
func (cs *consumerState) detach(c *conn) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.c == c {
		cs.c = nil
		if cs.live {
			cs.live = false
			cs.s.attachedConsumers.Add(-1)
		}
	}
}

// openLog opens the commit log, which holds the consumer offsets too,
// when LogDir is set. Called from Serve before the accept loop, so
// every connection goroutine observes the field fully initialised; it
// is never reassigned afterwards (Close closes it in place). Readers
// outside the connection goroutines (metric funcs) take s.mu.
func (s *Server) openLog() error {
	if s.LogDir == "" {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log != nil || s.closed {
		return nil
	}
	cfg := s.Log
	if cfg.Metrics == nil {
		cfg.Metrics = s.Metrics
	}
	l, err := commitlog.Open(s.LogDir, cfg)
	if err != nil {
		return fmt.Errorf("broker: opening commit log: %w", err)
	}
	epoch, err := commitlog.LoadEpoch(s.LogDir)
	if err != nil {
		l.Close()
		return fmt.Errorf("broker: loading replication epoch: %w", err)
	}
	s.epoch.Store(epoch)
	s.log = l
	return nil
}

// Checkpoint persists restart state: the engine's subscription table
// (when path is non-empty) and the commit log's staged tail, every
// consumer's acknowledged offset included. Each failing component
// counts toward apcm_broker_checkpoint_errors_total; the first error is
// returned.
func (s *Server) Checkpoint(path string) error {
	var first error
	record := func(err error) {
		if err != nil {
			s.checkpointErrs.Add(1)
			if first == nil {
				first = err
			}
		}
	}
	if path != "" {
		record(s.eng.CheckpointSubscriptions(path))
	}
	if s.log != nil {
		record(s.log.Sync())
	}
	return first
}

// stageConsumerRecord encodes and stages one delivery record: uvarint
// name length, name, then tail (uvarint n, n×uvarint client ids,
// event) — the same tail bytes the durable frame carries.
func (s *Server) stageConsumerRecord(name string, tail []byte) (uint64, error) {
	rec := make([]byte, 0, binary.MaxVarintLen64+len(name)+len(tail))
	rec = appendUvarint(rec, uint64(len(name)))
	rec = append(rec, name...)
	rec = append(rec, tail...)
	return s.log.Stage(rec)
}

// decodeConsumerRecord splits a logged record into its consumer name
// and delivery tail.
func decodeConsumerRecord(rec []byte) (name string, tail []byte, err error) {
	nlen, rest, err := readUvarint(rec)
	if err != nil || uint64(len(rest)) < nlen {
		return "", nil, errors.New("broker: malformed consumer record")
	}
	return string(rest[:nlen]), rest[nlen:], nil
}

// maxUnsettled bounds how far staging may run ahead of the commit (and,
// on a -repl-sync leader, of the follower): fewer durable frames than
// the outbox holds can be waiting for their record, so a stalled disk
// or follower backpressures the publisher and send's slow-consumer
// timer keeps measuring the socket alone.
const maxUnsettled = outboxSize / 2

// deliverDurable stages one matched delivery for cs and, if a live
// connection is attached, enqueues it as a durable frame at once; the
// connection's writer holds the frame until the record commits
// (writeDurable), so the publisher's read loop never waits for the
// fsync and the records of in-flight publishes share it. Staging
// happens under cs.mu so it is ordered against the resume replay:
// whatever is staged before the replay's final round is replayed,
// whatever after is delivered here. buf holds the delivery tail behind
// frameRoom spare bytes (handlePublish).
func (s *Server) deliverDurable(target *conn, cs *consumerState, buf []byte, nsubs int) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	off, err := s.stageConsumerRecord(cs.name, buf[frameRoom:])
	if err != nil {
		s.logAppendErrs.Add(1)
		s.Logf("broker: durable delivery for %q lost: %v", cs.name, err)
		return
	}
	if !cs.live || cs.c != target {
		return
	}
	if off >= maxUnsettled {
		// Errors are the writer's to report, frame by frame; this wait
		// only paces the publisher.
		_, _ = s.log.WaitCommitted(off-maxUnsettled, target.dead)
		if s.replSyncLeader() {
			_ = s.log.WaitReplicated(off-maxUnsettled, target.dead)
		}
	}
	var hdr [binary.MaxVarintLen64]byte
	frame := framed(buf, msgDurable, hdr[:binary.PutUvarint(hdr[:], off)])
	target.push(outFrame{b: frame, off: off, nsubs: nsubs})
}

// writeDurable is the writer's half of a live durable delivery: it
// holds the frame until its record is committed and, on a -repl-sync
// leader, acknowledged by the follower, then writes it and counts its
// deliveries — delivered ⊆ committed at the socket. A frame whose
// commit fails is dropped uncounted and the connection stays up; the
// log's sticky failure fails every later delivery the same way.
//
//apcm:durable
func (c *conn) writeDurable(f outFrame) error {
	s := c.s
	committed, err := s.log.WaitCommitted(f.off, c.dead)
	if err != nil {
		s.logAppendErrs.Add(1)
		s.Logf("broker: durable delivery at offset %d lost: %v", f.off, err)
		return nil
	}
	if committed <= f.off {
		return nil // the connection died mid-wait
	}
	if s.replSyncLeader() {
		// delivered ⊆ committed ⊆ replicated. With no follower attached
		// the wait degrades to single-node durability rather than
		// blocking — counted, so operators can alert on it.
		s.replSyncWaits.Add(1)
		if _, attached := s.log.Replicated(); !attached {
			s.replSyncDegraded.Add(1)
		} else if err := s.log.WaitReplicated(f.off, c.dead); err != nil {
			s.Logf("broker: repl-sync wait at offset %d: %v", f.off, err)
		}
	}
	if err := c.write(f.b); err != nil {
		return err
	}
	s.delivered.Add(int64(f.nsubs))
	return nil
}

// replSyncLeader reports whether durable delivery waits for the
// follower's acknowledgement.
func (s *Server) replSyncLeader() bool {
	return s.ReplSync && s.role.Load() == roleLeader
}

func (c *conn) handleResume(body []byte) error {
	id, rest, err := readUvarint(body)
	if err != nil {
		return errors.New("bad resume")
	}
	from, rest, err := readUvarint(rest)
	if err != nil {
		return errors.New("bad resume")
	}
	name := string(rest)
	s := c.s
	if s.log == nil {
		c.nack(id, errors.New("durable delivery disabled (broker has no log dir)"))
		return nil
	}
	if !commitlog.ValidName(name) {
		c.nack(id, fmt.Errorf("invalid consumer name %q", name))
		return nil
	}
	s.mu.Lock()
	cs := s.consumers[name]
	if cs == nil {
		cs = &consumerState{s: s, name: name}
		s.consumers[name] = cs
	}
	s.mu.Unlock()
	// Publish c.consumer before claiming cs.c: shutdown reads c.consumer
	// to detach, so the claim must never outlive its visibility there.
	c.mu.Lock()
	if c.consumer != nil {
		c.mu.Unlock()
		c.nack(id, errors.New("connection already resumed a consumer"))
		return nil
	}
	c.consumer = cs
	c.mu.Unlock()
	cs.mu.Lock()
	if prev := cs.c; prev != nil {
		// A claim by a dead connection that raced past its own detach is
		// stale, not busy: steal it so the consumer can never wedge.
		select {
		case <-prev.done:
			cs.c = nil
			if cs.live {
				cs.live = false
				s.attachedConsumers.Add(-1)
			}
		default:
			cs.mu.Unlock()
			c.mu.Lock()
			c.consumer = nil
			c.mu.Unlock()
			c.nack(id, fmt.Errorf("consumer %q already attached", name))
			return nil
		}
	}
	cs.c = c
	cs.mu.Unlock()

	// Effective start: the client's request, clamped forward by the
	// logged acknowledged offset and by retention.
	start := from
	if acked, ok := s.log.Acked(name); ok && acked > start {
		start = acked
	}
	if first := s.log.FirstOffset(); first > start {
		start = first
	}
	s.resumes.Add(1)
	// Reply before replaying so the client learns its start offset
	// before the first durable frame.
	ok := appendUvarint([]byte{msgResumeOK}, id)
	ok = appendUvarint(ok, start)
	if !c.send(ok) {
		return errors.New("connection closed during resume")
	}
	return c.replayConsumer(cs, start)
}

// replayConsumer streams cs's logged records from start to the present
// and attaches the connection for live delivery. Catch-up rounds run
// unlocked (history can be long); the final round holds cs.mu so that,
// combined with publishers staging under cs.mu, the handoff boundary
// is exact: every record staged before the flip is committed and
// replayed here, every record staged after it is pushed live.
func (c *conn) replayConsumer(cs *consumerState, start uint64) error {
	s := c.s
	pos := start
	for round := 0; round < 3; round++ {
		committed := s.log.Committed()
		if pos >= committed {
			break
		}
		if err := c.replayRange(cs.name, pos, committed); err != nil {
			return err
		}
		pos = committed
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.c != c {
		return errors.New("consumer detached during resume replay")
	}
	// Records staged for cs but not yet committed would otherwise be
	// neither replayed (beyond Committed) nor pushed (not live yet). A
	// failed log commits nothing more, so Committed is final either way.
	_ = s.log.Sync()
	if committed := s.log.Committed(); pos < committed {
		if err := c.replayRange(cs.name, pos, committed); err != nil {
			return err
		}
	}
	cs.live = true
	s.attachedConsumers.Add(1)
	return nil
}

// errStopReplay bounds a replay round at the commit frontier it was
// started with.
var errStopReplay = errors.New("stop replay")

func (c *conn) replayRange(name string, from, to uint64) error {
	var sendErr error
	err := c.s.log.Read(from, func(off uint64, rec []byte) error {
		if off >= to {
			return errStopReplay
		}
		rname, tail, err := decodeConsumerRecord(rec)
		if err != nil {
			return fmt.Errorf("record %d: %w", off, err)
		}
		if rname != name {
			return nil
		}
		frame := appendUvarint([]byte{msgDurable}, off)
		frame = append(frame, tail...)
		if !c.send(frame) {
			sendErr = errors.New("connection closed during resume replay")
			return errStopReplay
		}
		c.s.resumeReplayed.Add(1)
		return nil
	})
	if sendErr != nil {
		return sendErr
	}
	if err != nil && !errors.Is(err, errStopReplay) {
		return err
	}
	return nil
}

func (c *conn) handleOffsetAck(body []byte) error {
	off, rest, err := readUvarint(body)
	if err != nil || len(rest) != 0 {
		return errors.New("bad offset-ack")
	}
	c.mu.Lock()
	cs := c.consumer
	c.mu.Unlock()
	if cs == nil {
		return errors.New("offset-ack before resume")
	}
	c.s.offsetAcks.Add(1)
	// The table is monotone, so replayed or reordered acks regress
	// nothing; the next flush logs it.
	c.s.log.Ack(cs.name, off+1)
	return nil
}
