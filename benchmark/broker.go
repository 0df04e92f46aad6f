package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	apcm "github.com/streammatch/apcm"
	"github.com/streammatch/apcm/broker"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/trace"
)

const (
	// inFlight bounds the closed-loop phase: the publisher keeps this many
	// events between publish and delivery.
	inFlight = 64
	// dueRing holds the due time of every event not yet delivered; an
	// open-loop backlog beyond it counts as failed publishes.
	dueRing = 1 << 16
	// tick is the open-loop generator's pacing step: every tick it
	// publishes the events that fell due in it, each timed from the tick.
	tick = time.Millisecond
	// deliveryTimeout is how long a phase waits for its last publishes to
	// be delivered before counting them failed.
	deliveryTimeout = 5 * time.Second
	consumerName    = "bench"
)

// brokerRig is one in-process broker on a loopback listener with one
// subscriber connection and one publisher connection.
type brokerRig struct {
	r       *run
	durable bool
	xs      []*expr.Expression
	pool    []*expr.Event

	eng    *apcm.Engine
	srv    *broker.Server
	served chan error
	sub    *broker.Client
	pub    *broker.Client
	logDir string

	origin      time.Time
	due         [dueRing]atomic.Int64 // ns since origin, by event sequence number
	published   int64                 // events published so far (publisher goroutine)
	subscribeNs int64                 // the last set-up's wire-subscribe loop

	// Delivery state, touched by the subscriber client's read loop only,
	// except the atomics, which the publisher side polls.
	last       *expr.Event
	frames     atomic.Int64 // delivery frames received == events delivered
	calls      atomic.Int64 // handler calls == subscription ids delivered
	mismatched int64        // delivered events that are not the published one
	nextOffset uint64       // durable: the offset the next frame must carry
	gaps       int64
	phase      atomic.Pointer[phase]
}

// phase is one stretch of publishing whose deliveries are measured
// together. It is installed and removed only while nothing is in flight.
type phase struct {
	w      *slicer
	tokens chan struct{} // closed loop: one token per event in flight; nil in open loop
	tr     *tracer       // the read loop's own tracer, nil when untraced
	pubTr  *tracer       // the publisher's tracer, nil when untraced
	parent int32
	over   chan struct{} // closed by the read loop when w closes
	isOver bool
	first  int64       // sequence number of the phase's first event
	ids    [][]expr.ID // when non-nil, the ids delivered for each of the phase's events
}

func (b *brokerRig) handler(id expr.ID) broker.Handler {
	return func(ev *expr.Event) { b.delivered(id, ev) }
}

// delivered runs once per matched subscription id of a delivery frame.
// The client decodes one Event per frame and hands the same pointer to
// every handler of that frame, and b.last keeps the previous frame's
// Event alive, so a changed pointer is exactly a new frame. Frames arrive
// in publish order (one publisher connection, one subscriber connection),
// so the k-th frame is the k-th publish.
func (b *brokerRig) delivered(id expr.ID, ev *expr.Event) {
	b.calls.Add(1)
	ph := b.phase.Load()
	if ev == b.last {
		if ph != nil && ph.ids != nil {
			k := b.frames.Load() - 1 - ph.first
			ph.ids[k] = append(ph.ids[k], id)
		}
		return
	}
	b.last = ev
	seq := b.frames.Load()
	if !ev.Equal(b.pool[seq%int64(len(b.pool))]) {
		b.mismatched++
	}
	if ph != nil {
		now := time.Now()
		due := b.due[seq%dueRing].Load()
		if ph.tokens != nil {
			<-ph.tokens
		}
		ph.tr.add(spanEvent, ph.parent, seq, b.origin.Add(time.Duration(due)), now)
		if ph.ids != nil && seq-ph.first < int64(len(ph.ids)) {
			ph.ids[seq-ph.first] = append(ph.ids[seq-ph.first], id)
		}
		if !ph.w.add(now, int64(now.Sub(b.origin))-due, 1) && !ph.isOver {
			ph.isOver = true
			close(ph.over)
		}
	}
	b.frames.Add(1)
}

// durableDelivered checks that durable offsets are gap-free.
func (b *brokerRig) durableDelivered(off uint64, _ *expr.Event) {
	if off != b.nextOffset {
		b.gaps++
	}
	b.nextOffset = off + 1
}

// build is the timed set-up: engine, server, listener, subscriber
// connection (resumed as a durable consumer on broker_durable), every
// subscription registered over the wire, Prepare, publisher connection.
func (b *brokerRig) build() error {
	var err error
	if b.eng, err = apcm.New(apcm.Options{}); err != nil {
		return err
	}
	b.srv = broker.NewServer(b.eng)
	b.srv.Logf = func(string, ...any) {}
	if b.durable {
		if b.logDir, err = os.MkdirTemp(b.r.sz.workDir, "log-"); err != nil {
			return err
		}
		b.srv.LogDir = b.logDir
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.served = make(chan error, 1)
	go func() { b.served <- b.srv.Serve(ln) }()
	addr := ln.Addr().String()
	if b.sub, err = broker.DialOpts(addr, broker.ClientOptions{OnDurable: b.durableDelivered}); err != nil {
		return err
	}
	if b.durable {
		start, err := b.sub.Resume(consumerName, 0)
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		b.nextOffset = start
	}
	t0 := time.Now()
	for _, x := range b.xs {
		if err := b.sub.Subscribe(x, b.handler(x.ID)); err != nil {
			return fmt.Errorf("subscribe %d: %w", x.ID, err)
		}
	}
	b.subscribeNs = int64(time.Since(t0))
	b.eng.Prepare()
	b.pub, err = broker.Dial(addr)
	return err
}

// teardown stops everything build started and waits for Serve to return.
func (b *brokerRig) teardown() {
	if b.pub != nil {
		b.pub.Close()
	}
	if b.sub != nil {
		b.sub.Close()
	}
	if b.srv != nil {
		b.srv.Close()
		<-b.served
	}
	if b.eng != nil {
		b.eng.Close()
	}
	if b.logDir != "" {
		os.RemoveAll(b.logDir)
	}
	b.pub, b.sub, b.srv, b.eng, b.logDir = nil, nil, nil, nil, ""
	b.last = nil
	b.published = 0
	b.frames.Store(0)
	b.calls.Store(0)
}

// publishNext publishes the next pool event, due at dueNs since origin.
func (b *brokerRig) publishNext(ph *phase, dueNs int64) {
	tr := ph.pubTr
	seq := b.published
	b.r.attempted++
	if seq-b.frames.Load() >= dueRing {
		b.r.failf(1, "more than %d events undelivered; publish dropped by the generator", dueRing)
		return
	}
	b.due[seq%dueRing].Store(dueNs)
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	err := b.pub.Publish(b.pool[seq%int64(len(b.pool))])
	if tr != nil {
		tr.add(spanClientPublish, ph.parent, seq, t0, time.Now())
	}
	if err != nil {
		b.r.failf(1, "publish: %v", err)
		return
	}
	b.published++
}

// start installs a phase; nothing may be in flight.
func (b *brokerRig) start(w *slicer, closedLoop bool, label string, record int) *phase {
	ph := &phase{w: w, over: make(chan struct{}), first: b.published, parent: -1}
	if closedLoop {
		// Sized to the in-flight bound: a send blocks exactly when that
		// many events are between publish and delivery.
		ph.tokens = make(chan struct{}, inFlight)
	}
	if record > 0 {
		ph.ids = make([][]expr.ID, record)
	}
	if label != "" {
		ph.parent = b.r.tr.open(spanPhase, b.r.root, label)
		ph.tr, ph.pubTr = b.r.tr.fork(), b.r.tr
	}
	w.begin(time.Now())
	b.phase.Store(ph)
	return ph
}

// finish waits for the phase's last publishes to be delivered, counts
// the ones that are not as failed, and removes the phase.
func (b *brokerRig) finish(ph *phase) {
	deadline := time.Now().Add(deliveryTimeout)
	for b.frames.Load() < b.published && time.Now().Before(deadline) && b.sub.Err() == nil {
		time.Sleep(200 * time.Microsecond)
	}
	if missing := b.published - b.frames.Load(); missing > 0 {
		b.r.failf(missing, "publishes not delivered within %v (subscriber error: %v)", deliveryTimeout, b.sub.Err())
		// Resynchronise, so that one lost delivery is not also counted as
		// a mismatch on every later one.
		b.published = b.frames.Load()
	}
	b.phase.Store(nil)
	if ph.parent >= 0 {
		b.r.tr.close(ph.parent)
	}
}

// closedLoop publishes with inFlight events outstanding until the
// phase's window closes. Publishing stops early if deliveries stop.
func (b *brokerRig) closedLoop(w *slicer, label string) windowStats {
	ph := b.start(w, true, label, 0)
	stalled := time.NewTimer(deliveryTimeout)
	defer stalled.Stop()
	var lastReset time.Duration
loop:
	// A counted window publishes exactly that many events; finish then
	// waits for the last of them.
	for w.total == 0 || b.published-ph.first < w.total {
		select {
		case ph.tokens <- struct{}{}:
		case <-ph.over:
			break loop
		case <-stalled.C:
			b.r.failf(1, "no delivery for %v in the closed loop", deliveryTimeout)
			break loop
		}
		now := time.Since(b.origin)
		b.publishNext(ph, int64(now))
		if now-lastReset > time.Second {
			stalled.Reset(deliveryTimeout)
			lastReset = now
		}
	}
	b.finish(ph)
	return w.stats()
}

// openLoop publishes at rate events/s on a fixed schedule, whatever the
// broker does, until the phase's window closes. It returns the window
// and how late the generator ran behind its own schedule.
func (b *brokerRig) openLoop(w *slicer, rate float64, label string) (windowStats, *hist) {
	ph := b.start(w, false, label, 0)
	late := new(hist)
	begin := time.Now()
	giveUp := begin.Add(w.sliceDur*nSlices + deliveryTimeout)
	if w.total > 0 {
		giveUp = begin.Add(time.Duration(float64(w.total)/rate*float64(time.Second)) + deliveryTimeout)
	}
	var sent int64
loop:
	for j := int64(1); ; j++ {
		at := begin.Add(time.Duration(j) * tick)
		sleepUntil(at)
		select {
		case <-ph.over:
			break loop
		default:
		}
		now := time.Now()
		if now.After(giveUp) {
			b.r.failf(1, "open-loop window still open %v after it was due to close", deliveryTimeout)
			break loop
		}
		late.add(int64(now.Sub(at)))
		dueNs := int64(at.Sub(b.origin))
		want := int64(rate * float64(j) * tick.Seconds())
		if w.total > 0 {
			want = min(want, w.total) // a counted window: exactly that many events
		}
		for ; sent < want; sent++ {
			b.publishNext(ph, dueNs)
		}
	}
	b.finish(ph)
	return w.stats(), late
}

// sleepUntil blocks the calling thread until at. The open-loop generator
// paces itself with the kernel's sleep, not time.Sleep: a Go timer that
// expires while every P is idle is noticed only when epoll_wait returns,
// and that call's timeout has millisecond resolution, which would add up
// to a millisecond of generator lateness to every latency measured.
func sleepUntil(at time.Time) {
	if d := time.Until(at); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early wake-up (EINTR) is caught by the caller's schedule
	}
}

// checkDeliveries publishes the sampled events and checks the
// subscription ids delivered for each against brute force, then the
// broker's own counters against what the subscriber received.
func (b *brokerRig) checkDeliveries() {
	r := b.r
	// The pool is published cyclically, so the samples are simply the next
	// oracleSamples events.
	n := oracleSamples
	w := newSlicer(0, int64(n))
	ph := b.start(w, true, "", n)
	samples := make([]*expr.Event, n)
	for i := range samples {
		samples[i] = b.pool[(b.published+int64(i))%int64(len(b.pool))]
	}
	for i := 0; i < n; i++ {
		select {
		case ph.tokens <- struct{}{}:
			b.publishNext(ph, int64(time.Since(b.origin)))
		case <-time.After(deliveryTimeout):
			r.failf(1, "oracle publish %d blocked", i)
		}
	}
	b.finish(ph)
	want := bruteForce(func(visit func(*expr.Expression)) {
		for _, x := range b.xs {
			visit(x)
		}
	}, samples)
	r.checkOracle(ph.ids, want)

	r.failf(b.mismatched, "delivered events differ from the event published in their place")
	published, delivered := b.srv.Stats()
	if published != b.published {
		r.failf(1, "broker counted %d publishes, the publisher sent %d", published, b.published)
	}
	if got := b.calls.Load(); delivered != got {
		r.failf(1, "broker counted %d deliveries, the subscriber received %d", delivered, got)
	}
	r.failf(b.srv.SlowConsumerDrops(), "slow-consumer drops")
	r.failf(b.gaps, "gaps in the durable delivery offsets")
	if err := b.sub.Err(); err != nil {
		r.failf(1, "subscriber connection failed: %v", err)
	}
	if err := b.pub.Err(); err != nil {
		r.failf(1, "publisher connection failed: %v", err)
	}
}

// runBroker is broker_volatile and broker_durable: the measured time is
// split evenly between a closed-loop phase (rate, CPU) and an open-loop
// phase at the workload's frozen rate (latency).
func runBroker(r *run) error {
	g := newGenerator(r.seed)
	xs := g.Expressions(r.sz.count(r.spec.subs))
	// Every event is planted for a registered subscription, so every
	// publish yields exactly one delivery frame. The picks come from their
	// own stream so the generator's stays as the seed fixes it.
	pick := rand.New(rand.NewSource(r.seed))
	pool := make([]*expr.Event, 0, r.sz.count(r.spec.pool))
	for tries := 0; len(pool) < cap(pool); tries++ {
		if tries > 4*cap(pool) {
			return errors.New("cannot plant enough events")
		}
		if ev, ok := g.PlantedEventFor(xs[pick.Intn(len(xs))]); ok {
			pool = append(pool, ev)
		}
	}
	g = nil

	b := &brokerRig{r: r, durable: r.spec.durable, xs: xs, pool: pool, origin: time.Now()}
	setupS, err := r.timeSetups(b.build, b.teardown)
	if err != nil {
		b.teardown()
		return err
	}
	defer b.teardown()

	rate := r.spec.openRate
	if !r.traced {
		b.closedLoop(newSlicer(r.sz.warmup, 0), "")
		runtime.GC()
		cpu0 := cpuTime()
		closed := b.closedLoop(newSlicer(r.sz.window/2, 0), "")
		cpu := cpuTime() - cpu0
		runtime.GC()
		open, late := b.openLoop(newSlicer(r.sz.window/2, 0), rate, "")
		r.putEndToEnd(setupS, closed, open, cpu)
		r.info("generator lateness p50", late.quantile(0.5)/1e3, "us")
		r.info("generator lateness p99", late.quantile(0.99)/1e3, "us")
		if l := late.quantile(0.99) / 1e3; l > 1000 {
			r.warnf("open-loop generator ran %.0f us late at p99 (limit 1000): latencies include its lateness", l)
		}
		b.checkDeliveries()
		return nil
	}

	// Every pass of a traced run is a count of events, the warm-up too, so
	// that each pass covers the same events whenever the seed is the same.
	n := int64(r.sz.count(r.spec.tracedEvents))
	b.closedLoop(newSlicer(0, n), "")
	calls0, frames0 := b.calls.Load(), b.frames.Load()
	runtime.GC()
	m0, by0 := mallocs()
	cpu0 := cpuTime()
	plain := b.closedLoop(newSlicer(0, n), "")
	cpu := cpuTime() - cpu0
	m1, by1 := mallocs()
	calls1, frames1 := b.calls.Load(), b.frames.Load()
	runtime.GC()
	traced := b.closedLoop(newSlicer(0, n), "closed loop, traced")
	runtime.GC()
	open, late := b.openLoop(newSlicer(0, int64(rate*r.sz.scale*5)), rate, "open loop, traced")
	b.checkDeliveries()

	r.putDriver(plain, open, traced.rate/plain.rate, late.quantile(0.99)/1e3)
	events := float64(plain.events)
	r.broker = brokerCosts{
		publishCallNs:   b.publishCallNs(),
		wireSubscribeUs: float64(b.subscribeNs) / 1e3 / float64(len(xs)),
		allocs:          float64(m1-m0) / events,
		bytes:           float64(by1-by0) / events,
		deliveries:      float64(calls1-calls0) / float64(frames1-frames0),
		cpuUs:           cpu.Seconds() * 1e6 / events,
		saturationUs:    1e6 / plain.rate,
	}

	var snap bytes.Buffer
	if err := trace.WriteExpressions(&snap, xs); err != nil {
		return err
	}
	b.teardown()
	return r.probeLayers(snap.Bytes(), pool)
}

// publishCallNs is the median Client.Publish span of the traced passes.
func (b *brokerRig) publishCallNs() float64 {
	var h hist
	for _, s := range b.r.tr.spans {
		if s.Name == spanClientPublish {
			h.add(s.End - s.Start)
		}
	}
	return h.quantile(0.5)
}
