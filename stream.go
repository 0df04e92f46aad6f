package apcm

import (
	"sync"
	"time"

	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/osr"
)

// StreamOptions configures a Stream.
type StreamOptions struct {
	// Window is the online stream re-ordering window: events are
	// buffered, reordered by index locality, and matched as a batch once
	// Window events accumulate. A window of 0 or 1 disables re-ordering
	// (every event is matched immediately).
	Window int
	// MaxDelay bounds the extra latency re-ordering may add: a partial
	// window is flushed this long after its first event. 0 means 10ms.
	// Ignored when Window disables buffering.
	MaxDelay time.Duration
}

func (o *StreamOptions) sanitize() {
	if o.MaxDelay <= 0 {
		o.MaxDelay = 10 * time.Millisecond
	}
}

// Stream is the engine's streaming front end with online stream
// re-ordering (OSR). Events enter via Publish; matches leave via the
// deliver callback, which runs on the publishing goroutine (on window
// flushes) or on the stream's deadline goroutine (on deadline flushes) —
// it must be safe for that and should not block for long. The matches
// slice passed to deliver is only valid for the duration of the call
// (its backing storage is recycled); callers that retain it must copy.
// deliver must not call Close on its own stream (Close waits for
// in-flight deliveries and would deadlock).
//
// Deadline flushes are driven by one long-lived goroutine per stream
// with a reusable timer, so the steady state arms no fresh runtime
// timers. Races are resolved by a generation counter: every arm or
// cancel bumps the generation, and a deadline that fires with a stale
// generation (its window was already flushed by Publish, Flush or Close)
// is a no-op instead of flushing a newer partial window early. Close
// waits for in-flight deliveries, so no deliver call is running or will
// run after Close returns.
type Stream struct {
	eng     *Engine
	opts    StreamOptions
	deliver func(*expr.Event, []expr.ID)

	mu       sync.Mutex
	buf      *osr.Buffer
	timerOn  bool // a deadline is armed for the current window
	timerGen uint64
	closed   bool
	// inflight counts started-but-unfinished process() calls; every
	// Add(1) happens under mu strictly before closed is set, so Close's
	// Wait covers exactly the deliveries that were admitted.
	inflight sync.WaitGroup

	// armCh carries deadline requests to the timer goroutine. Capacity 1
	// with drain-before-send under mu coalesces re-arms; nil when the
	// window disables buffering (no goroutine is started).
	armCh     chan timerArm
	timerDone sync.WaitGroup
}

// timerArm asks the deadline goroutine to fire at `at` for window
// generation `gen`.
type timerArm struct {
	gen uint64
	at  time.Time
}

// NewStream creates a streaming front end over the engine.
func (e *Engine) NewStream(opts StreamOptions, deliver func(ev *expr.Event, matches []expr.ID)) *Stream {
	opts.sanitize()
	s := &Stream{
		eng:     e,
		opts:    opts,
		deliver: deliver,
		buf:     osr.NewBuffer(opts.Window),
	}
	if e.met != nil {
		s.buf.TrackDistance(true)
	}
	if opts.Window > 1 {
		s.armCh = make(chan timerArm, 1)
		s.timerDone.Add(1)
		go s.timerLoop()
	}
	return s
}

// timerLoop owns the stream's single deadline timer. It re-arms on
// requests from armCh and calls deadlineFlush when the timer fires; a
// stale generation makes that a no-op. Exits when armCh closes.
func (s *Stream) timerLoop() {
	defer s.timerDone.Done()
	t := time.NewTimer(time.Hour)
	if !t.Stop() {
		<-t.C
	}
	armed := false // timer running and its channel not yet drained here
	var gen uint64
	for {
		select {
		case a, ok := <-s.armCh:
			if armed && !t.Stop() {
				<-t.C
			}
			armed = false
			if !ok {
				return
			}
			t.Reset(time.Until(a.at))
			armed = true
			gen = a.gen
		case <-t.C:
			armed = false
			s.deadlineFlush(gen)
		}
	}
}

// Publish submits an event. It may synchronously flush a full window
// (invoking deliver for every event in it, in locality order).
func (s *Stream) Publish(ev *expr.Event) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	m := s.eng.met
	if m != nil {
		m.streamEvents.Inc()
	}
	batch := s.buf.Add(ev)
	var dist int
	if batch != nil {
		if m != nil {
			m.streamFlushFull.Inc()
			dist = s.buf.LastDistance()
		}
		s.stopTimer()
		s.inflight.Add(1)
	} else if !s.timerOn && s.buf.Pending() > 0 {
		// Covers both a fresh window and one whose deadline was
		// invalidated before it could flush.
		s.armTimer()
	}
	s.mu.Unlock()
	if batch != nil {
		s.process(batch, dist)
		s.inflight.Done()
	}
}

// armTimer schedules a deadline flush; the caller holds s.mu. The drain
// before the send keeps the capacity-1 channel from ever blocking: all
// senders hold s.mu, and the timer goroutine only receives.
func (s *Stream) armTimer() {
	if s.armCh == nil {
		return
	}
	s.timerGen++
	s.timerOn = true
	select {
	case <-s.armCh:
	default:
	}
	s.armCh <- timerArm{gen: s.timerGen, at: time.Now().Add(s.opts.MaxDelay)}
}

// stopTimer cancels a pending deadline flush; the caller holds s.mu.
// Bumping the generation also neutralises a deadline that has already
// fired but not yet acquired the lock.
func (s *Stream) stopTimer() {
	s.timerGen++
	s.timerOn = false
	if s.armCh != nil {
		select {
		case <-s.armCh:
		default:
		}
	}
}

// deadlineFlush runs on the timer goroutine for window generation gen.
func (s *Stream) deadlineFlush(gen uint64) {
	s.mu.Lock()
	if s.closed || gen != s.timerGen {
		// The window this deadline belonged to was already flushed (or
		// the stream closed); flushing now would release a newer partial
		// window before its own deadline.
		s.mu.Unlock()
		return
	}
	s.timerOn = false
	s.timerGen++
	batch := s.buf.Flush()
	var dist int
	if batch != nil {
		if m := s.eng.met; m != nil {
			m.streamFlushDeadline.Inc()
			dist = s.buf.LastDistance()
		}
		s.inflight.Add(1)
	}
	s.mu.Unlock()
	if batch != nil {
		s.process(batch, dist)
		s.inflight.Done()
	}
}

// Flush matches and delivers any buffered events immediately.
func (s *Stream) Flush() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	batch, dist := s.flushLocked()
	s.mu.Unlock()
	if batch != nil {
		s.process(batch, dist)
		s.inflight.Done()
	}
}

// flushLocked drains the buffer and accounts a manual flush; the caller
// holds s.mu and must process the batch then Done the inflight count.
func (s *Stream) flushLocked() ([]*expr.Event, int) {
	s.stopTimer()
	batch := s.buf.Flush()
	var dist int
	if batch != nil {
		if m := s.eng.met; m != nil {
			m.streamFlushManual.Inc()
			dist = s.buf.LastDistance()
		}
		s.inflight.Add(1)
	}
	return batch, dist
}

func (s *Stream) process(batch []*expr.Event, dist int) {
	m := s.eng.met
	var start time.Time
	if m != nil {
		start = time.Now()
		if w := s.buf.Window(); w > 1 {
			m.streamFill.Observe(float64(len(batch)) / float64(w) * 100)
		}
		m.streamReorder.Observe(float64(dist))
	}
	r := batchResults.Get().(*BatchResult)
	s.eng.MatchBatchInto(batch, r)
	for i, ev := range batch {
		s.deliver(ev, r.For(i))
	}
	if m != nil {
		m.streamFlushLatency.ObserveDuration(time.Since(start))
	}
	batchResults.Put(r)
	s.buf.Recycle(batch)
}

// Pending returns the number of buffered, not-yet-matched events.
func (s *Stream) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Pending()
}

// Close flushes buffered events, stops the stream (including its
// deadline goroutine) and waits for every in-flight delivery (including
// deadline flushes racing with it) to finish: after Close returns,
// deliver will not be invoked again. Publishes after Close are dropped.
// Close is idempotent, and concurrent Closes all wait.
func (s *Stream) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.inflight.Wait()
		s.timerDone.Wait()
		return
	}
	batch, dist := s.flushLocked()
	s.closed = true
	s.mu.Unlock()
	if batch != nil {
		s.process(batch, dist)
		s.inflight.Done()
	}
	// closed is set: no further sends on armCh can be admitted, so the
	// first closer may close it to stop the timer goroutine.
	if s.armCh != nil {
		close(s.armCh)
	}
	s.inflight.Wait()
	s.timerDone.Wait()
}
