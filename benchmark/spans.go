package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// Span names: one per public function (or probe pass) the benchmark
// calls into a layer through. In this PR spans are recorded from outside
// the program only; spans inside it are a later change.
const (
	spanRun = iota
	spanSetup
	spanPhase
	spanEvent // broker: an event from its due time to its delivery
	spanEngineMatch
	spanEngineMatchBatch
	spanEngineSubscribe
	spanEngineUnsubscribe
	spanClientPublish
	spanProbe
)

var spanNames = [...]string{
	spanRun:               "run",
	spanSetup:             "setup",
	spanPhase:             "phase",
	spanEvent:             "broker.event",
	spanEngineMatch:       "apcm.Engine.Match",
	spanEngineMatchBatch:  "apcm.Engine.MatchBatchInto",
	spanEngineSubscribe:   "apcm.Engine.Subscribe",
	spanEngineUnsubscribe: "apcm.Engine.Unsubscribe",
	spanClientPublish:     "broker.Client.Publish",
	spanProbe:             "probe",
}

// span is one timed interval. Event is the event's sequence number in
// the run, shared by every span of that event, or -1; Parent is the
// index of the span that caused this one, or -1.
type span struct {
	Name   int32
	Parent int32
	Event  int64
	Start  int64 // ns since the tracer's origin
	End    int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced path pays one nil check. Not safe for
// concurrent use: each goroutine that records gets its own (see fork)
// and they are joined when the trace is written.
type tracer struct {
	origin time.Time
	spans  []span
	forks  []*tracer
	base   int32 // index of spans[0] in the joined trace
	labels map[int32]string
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<18)}
}

func (t *tracer) add(name int, parent int32, event int64, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{int32(name), parent, event, int64(start.Sub(t.origin)), int64(end.Sub(t.origin))})
	return t.base + int32(len(t.spans)-1)
}

// open starts a span that close ends; used for phases and probes, whose
// children need the parent's index before it has ended.
func (t *tracer) open(name int, parent int32, label string) int32 {
	if t == nil {
		return -1
	}
	now := time.Now()
	id := t.add(name, parent, -1, now, now)
	if label != "" {
		if t.labels == nil {
			t.labels = make(map[int32]string)
		}
		t.labels[id] = label
	}
	return id
}

func (t *tracer) close(id int32) {
	if t == nil {
		return
	}
	t.spans[id-t.base].End = int64(time.Since(t.origin))
}

// fork returns a tracer for another goroutine. Span indexes stay unique
// across forks because each fork owns a disjoint index range.
func (t *tracer) fork() *tracer {
	if t == nil {
		return nil
	}
	const forkRange = 1 << 24
	f := &tracer{origin: t.origin, spans: make([]span, 0, 1<<18), base: int32(len(t.forks)+1) * forkRange}
	t.forks = append(t.forks, f)
	return f
}

// write stores the trace as JSON: the span name table, the labels of
// phase and probe spans by span id, and one [id, name, parent, event, start_ns,
// end_ns] row per span.
func (t *tracer) write(path, workload string, seed int64) error {
	if t == nil {
		return nil
	}
	rows := make([][6]int64, 0, len(t.spans))
	for _, tr := range append([]*tracer{t}, t.forks...) {
		for i, s := range tr.spans {
			rows = append(rows, [6]int64{int64(tr.base) + int64(i), int64(s.Name), int64(s.Parent), s.Event, s.Start, s.End})
		}
	}
	labels := make(map[string]string, len(t.labels))
	for id, l := range t.labels {
		labels[strconv.Itoa(int(id))] = l
	}
	doc := struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Names    []string          `json:"names"`
		Labels   map[string]string `json:"labels"`
		Columns  []string          `json:"columns"`
		Spans    [][6]int64        `json:"spans"`
	}{workload, seed, spanNames[:], labels, []string{"id", "name", "parent", "event", "start_ns", "end_ns"}, rows}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
