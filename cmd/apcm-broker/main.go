// Command apcm-broker runs the networked pub/sub broker: a TCP front
// end over the matching engine. Clients subscribe Boolean expressions
// and receive every published event that satisfies them (selective
// information dissemination).
//
// Usage:
//
//	apcm-broker -addr :7070 -workers 0
//
// Optionally pre-load a subscription trace produced by apcm-gen and
// expose an HTTP monitoring endpoint:
//
//	apcm-broker -addr :7070 -subs workload.subs -http :7071
//
// The monitoring endpoint serves GET /stats (engine and broker counters
// as JSON) and GET /healthz.
//
// -shards N (N > 1) replaces the single engine with a shard.Group of N
// partitioned engines: subscriptions are hash-routed across shards and
// every published event fans out to all of them in parallel, scaling
// the matching tier across cores at large subscription counts. -workers
// then sizes the fan-out pool rather than the engine's internal one,
// and /stats gains a per-shard breakdown.
//
// -metrics-addr turns on the full observability layer on a second
// listener: /metrics (Prometheus text), /metrics.json, /healthz and
// /debug/pprof/. It carries per-match latency histograms, stream and
// broker counters and profiling data; keep it off untrusted networks.
//
// -log-dir enables the durable commit log: every matched delivery is
// appended to a segmented, CRC-framed log and group-committed (fsync)
// before it counts as delivered, and clients that resume with a
// consumer name restart from their last acknowledged offset after a
// crash or reconnect. -segment-bytes, -flush-bytes, -flush-interval,
// -retention-bytes, -retention-age and -no-fsync tune it.
//
// -follow ADDR starts the broker as a replicating follower of the
// leader at ADDR: it ingests the leader's commit log and consumer
// offsets verbatim, rejects client operations (sessions fail over to
// the leader), and promotes itself — durably bumping the replication
// epoch, which fences the old leader — when the leader stays silent
// past -repl-timeout. On the leader, -repl-sync gates durable delivery
// on follower acknowledgement. See broker.DialSessionMulti for the
// client side of failover.
//
// On SIGTERM/SIGINT the broker drains gracefully: with -checkpoint it
// first persists the subscription set atomically (restored on the next
// boot), then stops accepting, nacks new work and flushes every client
// outbox before closing, up to -drain-timeout. -heartbeat,
// -heartbeat-missed and -write-timeout tune how aggressively dead and
// wedged connections are reaped.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/streammatch/apcm"
	"github.com/streammatch/apcm/broker"
	"github.com/streammatch/apcm/expr"
	"github.com/streammatch/apcm/internal/commitlog"
	"github.com/streammatch/apcm/metrics"
	"github.com/streammatch/apcm/shard"
	"github.com/streammatch/apcm/trace"
)

// matcher is the engine surface main drives directly: the broker's
// Matcher plus lifecycle. Satisfied by both *apcm.Engine and
// *shard.Group, selected by -shards.
type matcher interface {
	broker.Matcher
	Prepare()
	RestoreSubscriptions(path string) (int, error)
	Close()
}

func main() {
	var (
		addr       = flag.String("addr", ":7070", "listen address")
		workers    = flag.Int("workers", 0, "engine or fan-out workers (0 = GOMAXPROCS)")
		shards     = flag.Int("shards", 1, "engine shards: >1 partitions subscriptions across a shard.Group")
		subs       = flag.String("subs", "", "optional subscription trace to pre-load")
		statsIv    = flag.Duration("stats", 10*time.Second, "stats reporting interval (0 disables)")
		httpAddr   = flag.String("http", "", "optional HTTP monitoring address (serves /stats and /healthz)")
		metAddr    = flag.String("metrics-addr", "", "optional observability address (serves /metrics, /metrics.json and /debug/pprof)")
		checkpoint = flag.String("checkpoint", "", "subscription checkpoint file: restored on boot, written atomically on shutdown")
		drainTO    = flag.Duration("drain-timeout", 10*time.Second, "graceful-drain budget on SIGTERM/SIGINT before hard close")
		hbInterval = flag.Duration("heartbeat", 0, "expected client heartbeat cadence (0 = 5s default, negative disables idle reaping)")
		hbMissed   = flag.Int("heartbeat-missed", 0, "missed heartbeats before a silent connection is reaped (0 = 3)")
		writeTO    = flag.Duration("write-timeout", 0, "per-frame client write deadline (0 = 10s default, negative disables)")
		logDir     = flag.String("log-dir", "", "commit-log directory: enables durable delivery and consumer offsets")
		segBytes   = flag.Int64("segment-bytes", 0, "commit-log segment size before rotation (0 = 4MiB default)")
		flushBytes = flag.Int("flush-bytes", 0, "commit-log group-commit threshold in bytes (0 = 64KiB default)")
		flushIv    = flag.Duration("flush-interval", 0, "commit-log group-commit window (0 = 2ms default)")
		retBytes   = flag.Int64("retention-bytes", 0, "commit-log size retention: sealed segments beyond this are deleted (0 = unlimited)")
		retAge     = flag.Duration("retention-age", 0, "commit-log age retention: sealed segments older than this are deleted (0 = unlimited)")
		noFsync    = flag.Bool("no-fsync", false, "skip commit-log fsyncs (faster, loses durability across power failure)")
		follow     = flag.String("follow", "", "leader address: start as a replicating follower that promotes itself on leader loss (requires -log-dir)")
		nodeID     = flag.String("node-id", "", "node name used in the replication handshake and logs")
		replSync   = flag.Bool("repl-sync", false, "gate durable delivery on follower acknowledgement (delivered ⊆ committed ⊆ replicated)")
		replHB     = flag.Duration("repl-heartbeat", 0, "replication ping and offset-shipping cadence (0 = 250ms default)")
		replTO     = flag.Duration("repl-timeout", 0, "leader silence tolerated before a follower promotes itself (0 = 3s default)")
	)
	flag.Parse()

	// The registry exists only when asked for; a nil registry keeps the
	// engine's fast paths on their unmetered branch.
	var reg *metrics.Registry
	if *metAddr != "" {
		reg = metrics.New()
	}
	var eng matcher
	if *shards > 1 {
		// Sharded tier: each publish fans out across the shards on the
		// group's pool (shard engines run single-worker; see
		// shard.Options). Unsharded, a publish matches on its
		// connection's read loop and the engine's pool serves Prepare.
		g, err := shard.New(shard.Options{
			Shards:  *shards,
			Workers: *workers,
			Metrics: reg,
		})
		if err != nil {
			fatal("%v", err)
		}
		eng = g
	} else {
		e, err := apcm.New(apcm.Options{Workers: *workers, Metrics: reg})
		if err != nil {
			fatal("%v", err)
		}
		eng = e
	}
	defer eng.Close()

	if *subs != "" {
		f, err := os.Open(*subs)
		if err != nil {
			fatal("%v", err)
		}
		xs, err := trace.ReadExpressions(f)
		f.Close()
		if err != nil {
			fatal("reading %s: %v", *subs, err)
		}
		for _, x := range xs {
			// Pre-loaded ids live in a high range, clear of the ids the
			// broker allocates for client subscriptions.
			seed := &expr.Expression{ID: x.ID + 1<<40, Preds: x.Preds}
			if err := eng.Subscribe(seed); err != nil {
				fatal("loading subscriptions: %v", err)
			}
		}
		eng.Prepare()
		fmt.Printf("apcm-broker: pre-loaded %d subscriptions from %s\n", len(xs), *subs)
	}

	if *checkpoint != "" {
		n, err := eng.RestoreSubscriptions(*checkpoint)
		if err != nil {
			fatal("restoring %s: %v", *checkpoint, err)
		}
		if n > 0 {
			eng.Prepare()
			fmt.Printf("apcm-broker: restored %d subscriptions from %s\n", n, *checkpoint)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("%v", err)
	}
	srv := broker.NewServer(eng)
	srv.Metrics = reg
	srv.HeartbeatInterval = *hbInterval
	srv.MissedHeartbeats = *hbMissed
	srv.WriteTimeout = *writeTO
	if *logDir != "" {
		srv.LogDir = *logDir
		srv.Log = commitlog.Config{
			SegmentBytes:  *segBytes,
			FlushBytes:    *flushBytes,
			FlushInterval: *flushIv,
			RetainBytes:   *retBytes,
			RetainAge:     *retAge,
			NoFsync:       *noFsync,
		}
		fmt.Printf("apcm-broker: durable delivery enabled, commit log in %s\n", *logDir)
	}
	if *follow != "" && *logDir == "" {
		fatal("-follow requires -log-dir")
	}
	srv.NodeID = *nodeID
	srv.Follow = *follow
	srv.ReplSync = *replSync
	srv.ReplHeartbeat = *replHB
	srv.ReplTimeout = *replTO
	if *follow != "" {
		fmt.Printf("apcm-broker: starting as follower of %s\n", *follow)
	}
	start := time.Now()
	if *shards > 1 {
		fmt.Printf("apcm-broker: %d engine shards, listening on %s\n", *shards, ln.Addr())
	} else {
		fmt.Printf("apcm-broker: listening on %s\n", ln.Addr())
	}

	if reg != nil {
		ms := &http.Server{Addr: *metAddr, Handler: metrics.NewMux(reg), ReadHeaderTimeout: 5 * time.Second}
		//apcm:detached process-lifetime server; ListenAndServe returns on the deferred ms.Close()
		go func() {
			fmt.Printf("apcm-broker: metrics on http://%s/metrics\n", *metAddr)
			if err := ms.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fatal("metrics http: %v", err)
			}
		}()
		defer ms.Close()
		if *statsIv > 0 {
			stop := reg.StartLogger(*statsIv, func(format string, args ...any) {
				fmt.Printf("apcm-broker: "+format+"\n", args...)
			})
			defer stop()
		}
	}

	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusOK)
			fmt.Fprintln(w, "ok")
		})
		mux.HandleFunc("GET /stats", func(w http.ResponseWriter, _ *http.Request) {
			pub, del := srv.Stats()
			body := engineStats(eng)
			body["published"] = pub
			body["delivered"] = del
			body["uptime_seconds"] = int64(time.Since(start).Seconds())
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(body)
		})
		hs := &http.Server{Addr: *httpAddr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		//apcm:detached process-lifetime server; ListenAndServe returns on the deferred hs.Close()
		go func() {
			fmt.Printf("apcm-broker: monitoring on http://%s/stats\n", *httpAddr)
			if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fatal("http: %v", err)
			}
		}()
		defer hs.Close()
	}

	if *statsIv > 0 {
		go func() {
			for range time.Tick(*statsIv) {
				pub, del := srv.Stats()
				fmt.Printf("apcm-broker: subs=%d published=%d delivered=%d mem=%dKiB\n",
					eng.Len(), pub, del, engineMemBytes(eng)/1024)
			}
		}()
	}

	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Println("\napcm-broker: shutting down")
		// Checkpoint before draining: Shutdown closes every connection,
		// which unregisters its subscriptions — the state to persist is
		// the one that existed while clients were still attached. The
		// same call syncs the commit log and consumer offset journals.
		if err := srv.Checkpoint(*checkpoint); err != nil {
			fmt.Fprintf(os.Stderr, "apcm-broker: checkpoint: %v\n", err)
		} else if *checkpoint != "" {
			fmt.Printf("apcm-broker: checkpointed subscriptions to %s\n", *checkpoint)
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "apcm-broker: drain: %v\n", err)
		}
	}()

	if err := srv.Serve(ln); err != nil {
		fatal("%v", err)
	}
}

// engineStats flattens either engine flavour's Stats into the /stats
// JSON body. A sharded broker additionally reports the per-shard
// breakdown.
func engineStats(eng matcher) map[string]any {
	switch e := eng.(type) {
	case *apcm.Engine:
		st := e.Stats()
		return map[string]any{
			"subscriptions":      st.Subscriptions,
			"workers":            st.Workers,
			"mem_bytes":          st.MemBytes,
			"compiled_clusters":  st.CompiledClusters,
			"compression_ratio":  st.CompressionRatio,
			"compressed_serving": st.CompressedServing,
		}
	case *shard.Group:
		st := e.Stats()
		per := make([]map[string]any, len(st.PerShard))
		for s, ss := range st.PerShard {
			per[s] = map[string]any{
				"subscriptions": ss.Subscriptions,
				"mem_bytes":     ss.MemBytes,
				"events":        ss.Events,
			}
		}
		return map[string]any{
			"shards":        st.Shards,
			"workers":       st.Workers,
			"subscriptions": st.Subscriptions,
			"mem_bytes":     st.MemBytes,
			"per_shard":     per,
		}
	}
	return map[string]any{"subscriptions": eng.Len()}
}

func engineMemBytes(eng matcher) int64 {
	switch e := eng.(type) {
	case *apcm.Engine:
		return e.Stats().MemBytes
	case *shard.Group:
		return e.Stats().MemBytes
	}
	return 0
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "apcm-broker: "+format+"\n", args...)
	os.Exit(1)
}
