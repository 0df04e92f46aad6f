package apcm_test

import (
	"bytes"
	"net"
	"regexp"
	"strings"
	"testing"
	"time"

	apcm "github.com/streammatch/apcm"
	"github.com/streammatch/apcm/broker"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/metrics"
	"github.com/streammatch/apcm/shard"
)

// metricLineRE matches the base of a series or header name: the part
// before any label block or value. This is the same contract the
// metricname analyzer (internal/lint) enforces at registration sites;
// this test enforces it on the wire, where dashboards consume it.
var metricBaseRE = regexp.MustCompile(`^apcm_[a-z0-9_]+$`)

// TestPrometheusExposition attaches one registry to both an engine and
// a broker server, then walks the full Prometheus exposition output
// asserting the naming contract: every base name is apcm_-prefixed
// snake_case, every series appears exactly once, and TYPE/HELP headers
// are emitted once per base name.
func TestPrometheusExposition(t *testing.T) {
	reg := metrics.New()
	eng := apcm.MustNew(apcm.Options{Workers: 2, Metrics: reg})
	defer eng.Close()

	// Exercise the engine so histogram series carry observations.
	if err := eng.Subscribe(expr.MustNew(eng.NewID(), expr.Ge(1, 10))); err != nil {
		t.Fatal(err)
	}
	ev, err := expr.NewEvent(expr.P(1, 42))
	if err != nil {
		t.Fatal(err)
	}
	eng.Match(ev)

	// A sharded group on the same registry: its apcm_shard_* namespace
	// must coexist with the engine's (shard engines themselves register
	// nothing, so there are no collisions). Exercise it so the fan-out
	// and merge histograms carry observations.
	grp := shard.MustNew(shard.Options{Shards: 3, Workers: 2, Metrics: reg})
	defer grp.Close()
	if err := grp.Subscribe(expr.MustNew(grp.NewID(), expr.Ge(1, 10))); err != nil {
		t.Fatal(err)
	}
	grp.Match(ev)

	// Broker metrics attach when Serve starts; share the registry so the
	// exposition covers both namespaces at once. A log dir makes the
	// commit log register its apcm_broker_log_* instruments too.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := broker.NewServer(eng)
	srv.Metrics = reg
	srv.LogDir = t.TempDir()
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	waitForMetric(t, reg, "apcm_broker_connections")
	waitForMetric(t, reg, "apcm_broker_log_segments")

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if out == "" {
		t.Fatal("empty exposition output")
	}

	seenSeries := make(map[string]bool)
	seenType := make(map[string]bool)
	seenHelp := make(map[string]bool)
	for _, line := range strings.Split(out, "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			base := strings.Fields(line)[2]
			if seenType[base] {
				t.Errorf("duplicate TYPE header for %s", base)
			}
			seenType[base] = true
			if !metricBaseRE.MatchString(base) {
				t.Errorf("TYPE header name %q is not apcm_-prefixed snake_case", base)
			}
		case strings.HasPrefix(line, "# HELP "):
			base := strings.Fields(line)[2]
			if seenHelp[base] {
				t.Errorf("duplicate HELP header for %s", base)
			}
			seenHelp[base] = true
		case strings.HasPrefix(line, "#"):
			t.Errorf("unrecognized comment line %q", line)
		default:
			series := strings.Fields(line)[0]
			if seenSeries[series] {
				t.Errorf("series %q exposed twice (double registration?)", series)
			}
			seenSeries[series] = true
			base := series
			if i := strings.IndexByte(base, '{'); i >= 0 {
				base = base[:i]
			}
			if !metricBaseRE.MatchString(base) {
				t.Errorf("series base name %q is not apcm_-prefixed snake_case", base)
			}
		}
	}

	// All three namespaces must be present: engine, shard group and
	// broker instruments (commit log included) on the same registry.
	for _, want := range []string{
		"apcm_match_latency_ns",
		"apcm_broker_connections",
		"apcm_broker_log_flush_records",
		"apcm_broker_log_fsync_latency_ns",
		"apcm_shard_count",
		"apcm_shard_group_subscriptions",
		"apcm_shard_fanout_latency_ns",
		"apcm_shard_merge_latency_ns",
		"apcm_shard_subscriptions",
		"apcm_shard_mem_bytes",
		"apcm_shard_events_total",
	} {
		if !seenType[want] {
			t.Errorf("expected metric %s missing from exposition (have %d series)", want, len(seenSeries))
		}
	}
	// The per-shard series must carry their shard labels on the wire.
	for _, want := range []string{
		`apcm_shard_subscriptions{shard="0"}`,
		`apcm_shard_events_total{shard="2"}`,
	} {
		if !seenSeries[want] {
			t.Errorf("expected series %s missing from exposition", want)
		}
	}

	// The registry itself must agree: its snapshot lists each
	// registered metric exactly once.
	uniq := make(map[string]bool)
	for _, v := range reg.Snapshot() {
		if uniq[v.Name] {
			t.Errorf("registry snapshot lists %q twice", v.Name)
		}
		uniq[v.Name] = true
	}
}

// waitForMetric polls until name appears in the registry (broker
// registration happens on the Serve goroutine).
func waitForMetric(t *testing.T, reg *metrics.Registry, name string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, v := range reg.Snapshot() {
			if v.Name == name {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("metric %s never registered", name)
}
