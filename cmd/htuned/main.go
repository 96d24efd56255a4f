// Command htuned is the long-running H-Tuning service: an HTTP JSON API
// over the solver engine, with a shared bounded estimator cache, an
// admission gate that turns overload into fast 503s, an online
// ingest→inference→re-tune loop that keeps a trace-fitted rate model
// current while solves are in flight, and an optional durable state
// directory that lets the process crash or upgrade without losing any
// of that.
//
// Usage:
//
//	htuned [-addr :8080] [-max-inflight N] [-workers N] [-cache-entries N]
//	       [-max-campaigns N] [-state-dir DIR] [-snapshot-every N]
//	       [-group-commit D] [-rate-limit R] [-rate-burst N]
//	       [-bulk-share F] [-shed-cpu F] [-access-log] [-node NAME]
//
// Endpoints: POST /v1/solve, /v1/solve-heterogeneous, /v1/simulate,
// /v1/ingest, /v1/campaigns; GET /v1/campaigns[/{id}], /v1/stats,
// /v1/metrics, /v1/healthz; DELETE /v1/campaigns/{id}. See the
// repository README for request and response shapes.
//
// Traffic hardening: -rate-limit R throttles each client (keyed by the
// X-Client-ID header, else remote address) to R requests per second
// with a burst of -rate-burst, answering 429 with a Retry-After
// computed from that client's bucket. -bulk-share caps the fraction of
// -max-inflight that bulk work (solve, solve-heterogeneous, simulate)
// may hold, so ingest and campaign control are never starved by a bulk
// flood. -shed-cpu sheds bulk work with a fast 503 once process CPU
// load crosses the threshold. GET /v1/metrics reports per-endpoint
// latency histograms plus admission, rate-limit, cache, campaign and
// WAL gauges; -access-log writes one line per request to stderr.
//
// With -state-dir, ingest aggregates, published fits and campaign state
// are journaled to an fsync'd write-ahead log (compacted into a
// snapshot every -snapshot-every records) and recovered on boot:
// campaigns that were running when the previous process died resume
// from their last completed round and produce exactly the rounds an
// uninterrupted run would have. SIGINT/SIGTERM trigger a graceful
// drain; with a state directory the running campaigns are suspended
// (resumable on next boot) and the WAL is compacted into a final
// snapshot before exit — without one they are canceled, keeping the
// belief their completed rounds published. Inspect or verify a state
// directory offline with htune -state DIR [-verify].
//
// Concurrent appends group-commit: records that arrive while a flush is
// in flight coalesce into one frame write and one fsync, and
// -group-commit D additionally holds each flush open for D (e.g. 2ms)
// so staggered appends share it too — trading bounded ack latency for
// fewer fsyncs under load. Every append still returns only after its
// record is durable.
//
// Under an htrouter cluster the process additionally serves the
// replication surface (rate-limit exempt): GET /v1/replication/state
// and /wal feed the router's WAL-shipping follower, GET
// /v1/replication/aggregates exports this node's ingest partition as
// additive sufficient statistics, and POST /v1/replication/fit accepts
// the router's cluster-merged model through the same slope/rate guard a
// local re-fit passes, journaling it so recovery (and a promoted
// replica) restores the merged fit bit-identically.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"os/signal"
	"runtime"
	"syscall"

	"hputune"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("htuned: ")
	addr := flag.String("addr", ":8080", "listen address")
	node := flag.String("node", "", "this process's cluster node name, reported by the replication endpoints (must match the htrouter -node entry; [a-zA-Z0-9_]+)")
	maxInFlight := flag.Int("max-inflight", runtime.GOMAXPROCS(0), "concurrent solve/simulate requests admitted before 503")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "engine worker-pool size per admitted batch")
	cacheEntries := flag.Int("cache-entries", 0, "estimator cache bound in entries (0 = default 65536)")
	maxCampaigns := flag.Int("max-campaigns", 0, "concurrently running closed-loop campaigns admitted before 503 (0 = default 64)")
	stateDir := flag.String("state-dir", "", "durable state directory (WAL + snapshots); empty serves in-memory only")
	snapshotEvery := flag.Int("snapshot-every", 0, "compact the WAL into a snapshot every N records (0 = default 1024)")
	groupCommit := flag.Duration("group-commit", 0, "hold each WAL flush open this long so concurrent appends share its fsync (0 = opportunistic batching only)")
	rateLimit := flag.Float64("rate-limit", 0, "per-client request rate limit in req/s (0 = unlimited)")
	rateBurst := flag.Float64("rate-burst", 0, "per-client burst above -rate-limit (0 = default 2×rate)")
	bulkShare := flag.Float64("bulk-share", 0, "fraction of -max-inflight open to bulk solve/simulate work (0 = default 0.75)")
	shedCPU := flag.Float64("shed-cpu", 0, "process CPU load in [0,1] at which bulk work is shed (0 = disabled)")
	accessLog := flag.Bool("access-log", false, "log one line per request (method, path, status, latency, request id, client)")
	flag.Parse()

	cfg := hputune.ServerConfig{
		Node:         *node,
		MaxInFlight:  *maxInFlight,
		Workers:      *workers,
		CacheEntries: *cacheEntries,
		MaxCampaigns: *maxCampaigns,
		Traffic: hputune.TrafficConfig{
			BulkShare:     *bulkShare,
			RatePerClient: *rateLimit,
			RateBurst:     *rateBurst,
			ShedCPU:       *shedCPU,
		},
	}
	if *accessLog {
		cfg.Traffic.AccessLog = log.New(log.Writer(), "access: ", 0)
	}
	var srv *hputune.Server
	var st *hputune.Store
	if *stateDir != "" {
		var err error
		st, err = hputune.OpenStore(*stateDir, hputune.StoreOptions{
			SnapshotEvery:     *snapshotEvery,
			GroupCommitWindow: *groupCommit,
			OnError: func(err error) {
				// Sticky: the store is read-only from here on. Ingest and
				// fit publishes answer 503; reads and running campaigns
				// keep serving from memory, and a restart loses campaign
				// progress since this point.
				log.Printf("state: durability lost: %v", err)
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		srv, err = hputune.RecoverServer(cfg, st)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("recovered state from %s", *stateDir)
	} else {
		var err error
		srv, err = hputune.NewServer(cfg)
		if err != nil {
			log.Fatal(err)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	go func() {
		// Restore default signal behavior once the drain starts, so a
		// second Ctrl-C force-quits instead of being swallowed for the
		// length of the drain window.
		<-ctx.Done()
		stop()
	}()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	// The resolved address, not the flag: ":0" callers need the port.
	log.Printf("listening on %s (max-inflight %d, workers %d)", ln.Addr(), *maxInFlight, *workers)
	if err := srv.Serve(ctx, ln); err != nil {
		log.Fatal(err)
	}
	if st != nil {
		// Drain-then-snapshot: campaigns were suspended during shutdown;
		// folding the WAL tail into a snapshot makes the next boot replay
		// nothing.
		if err := st.Compact(); err != nil {
			log.Printf("state: final snapshot: %v", err)
		}
		if err := st.Close(); err != nil {
			log.Printf("state: close: %v", err)
		}
	}
	log.Print("drained, bye")
}
