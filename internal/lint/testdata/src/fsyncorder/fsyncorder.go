package fsyncorder

// Log mirrors commitlog.Log by name, which is how the analyzer matches
// commit calls, exactly as metricname matches Registry.
type Log struct{}

func (l *Log) Append(b []byte) (int64, error) { return 0, nil }
func (l *Log) Sync() error                    { return nil }
func (l *Log) Stage(b []byte) (uint64, error) { return 0, nil }

func (l *Log) WaitCommitted(after uint64, cancelled func() bool) (uint64, error) {
	return after + 1, nil
}

type conn struct{}

func (c *conn) send(frame []byte) bool { return true }

// writeFrame mirrors the broker's package-level frame writer: an
// unqualified call by an emitter name is an emission too.
func writeFrame(frame []byte) error { return nil }

type state struct {
	log *Log
}

// deliver is the sanctioned write-through shape: append, check, send.
//
//apcm:durable
func (s *state) deliver(c *conn, frame []byte) error {
	if _, err := s.log.Append(frame); err != nil {
		return err
	}
	c.send(frame)
	return nil
}

// synced commits via Sync before emitting.
//
//apcm:durable
func (s *state) synced(c *conn, frame []byte) error {
	if err := s.log.Sync(); err != nil {
		return err
	}
	c.send(frame)
	return nil
}

// leaky emits before committing: a crash between the two loses a frame
// a consumer already saw.
//
//apcm:durable
func (s *state) leaky(c *conn, frame []byte) error {
	c.send(frame) // want `not dominated by a commitlog Append/Sync`
	_, err := s.log.Append(frame)
	return err
}

// branchy commits on one path only; the emission is reachable without
// it.
//
//apcm:durable
func (s *state) branchy(c *conn, frame []byte, fastAck bool) {
	if !fastAck {
		s.log.Append(frame)
	}
	c.send(frame) // want `not dominated by a commitlog Append/Sync`
}

// viaHelper commits through a same-package helper: the dominator is
// the helper call.
//
//apcm:durable
func (s *state) viaHelper(c *conn, frame []byte) {
	s.commit(frame)
	c.send(frame)
}

func (s *state) commit(frame []byte) {
	s.log.Append(frame)
}

// viaEmitter emits through an annotated forwarding helper.
//
//apcm:durable
func (s *state) viaEmitter(c *conn, frame []byte) {
	s.pushFrame(c, frame) // want `not dominated by a commitlog Append/Sync`
}

// pushFrame forwards a frame to the wire.
//
//apcm:emits
func (s *state) pushFrame(c *conn, frame []byte) {
	c.send(frame)
}

// stagedOnly emits after Stage alone: the offset exists but the record
// is not on disk yet, so a crash can un-happen a delivered frame.
//
//apcm:durable
func (s *state) stagedOnly(c *conn, frame []byte) error {
	if _, err := s.log.Stage(frame); err != nil {
		return err
	}
	c.send(frame) // want `not dominated by a commitlog Append/Sync`
	return nil
}

// waited is the staged-commit shape: stage, then hold the frame until
// the commit wait for its offset returns.
//
//apcm:durable
func (s *state) waited(frame []byte, off uint64) error {
	if _, err := s.log.WaitCommitted(off, nil); err != nil {
		return nil
	}
	return writeFrame(frame)
}

// cachedWait skips the commit wait when a cached watermark says the
// offset is already committed; the emission is then reachable without
// a commit on this path, which the analyzer cannot see is safe.
//
//apcm:durable
func (s *state) cachedWait(frame []byte, off uint64, committed *uint64) error {
	if off >= *committed {
		c, err := s.log.WaitCommitted(off, nil)
		if err != nil {
			return err
		}
		*committed = c
	}
	return writeFrame(frame) // want `not dominated by a commitlog Append/Sync`
}

// bestEffort is not annotated: non-durable delivery may emit freely.
func (s *state) bestEffort(c *conn, frame []byte) {
	c.send(frame)
}
