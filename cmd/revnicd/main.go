// Command revnicd runs the reverse-engineering pipeline as a
// long-lived HTTP/JSON job service: clients POST job specs (bundled
// driver name or uploaded program image, searcher, fork-join fan-out,
// exploration budgets) to /jobs, poll /jobs/{id} for status and
// results, and scrape /metrics for Prometheus-style counters.
//
// Usage:
//
//	revnicd [-addr :8939] [-pool 2] [-queue 64] [-drain-timeout 1m]
//	        [-data-dir DIR] [-max-job-wall 0] [-per-client 0]
//	        [-retain-count 256] [-retain-age 0] [-max-body 8388608]
//	        [-peers URL,URL,...] [-coordinator] [-shard-pool 2]
//	        [-probe-interval 5s] [-no-steal] [-steal-after 750ms]
//	        [-solver core|smalldomain|portfolio] [-portfolio]
//
// Jobs run on a bounded pool; each job explores inside its own
// expression arena, so finished jobs release all their interned
// expressions and the daemon's memory returns to baseline between
// bursts. Jobs can be cancelled (DELETE /jobs/{id}) or bounded by a
// per-job deadline_ms and the global -max-job-wall cap; stopped jobs
// wind down cooperatively and finish with a partial result. With
// -data-dir set, accepted jobs are journaled to DIR/jobs.journal
// (fsynced before the submit is acknowledged) and replayed after a
// crash: queued jobs re-run, mid-run jobs surface as "interrupted".
// SIGINT/SIGTERM trigger a graceful drain: submissions are rejected,
// running and queued jobs finish (up to -drain-timeout), then the
// process exits.
//
// Cluster mode: with -coordinator, each job's deterministic fork-join
// shard groups enter a work queue that the -peers instances pull from
// over POST /shards, with per-shard timeouts, retries, re-dispatch of
// straggling shards (off with -no-steal) and per-peer circuit
// breakers; shards no peer can serve run locally, so a job completes
// as long as this node lives, and the merged result is bit-identical
// to a single-node run. Every revnicd serves /shards
// (bounded by -shard-pool) whether or not it coordinates, so a
// symmetric cluster just points each node at the others.
//
// Example session:
//
//	revnicd -addr :8939 -data-dir /var/lib/revnicd &
//	curl -s -X POST localhost:8939/jobs -d '{"driver":"RTL8029"}'
//	curl -s localhost:8939/jobs/job-1 | jq .status
//	curl -s localhost:8939/jobs/job-1/code
//	curl -s -X DELETE localhost:8939/jobs/job-1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"revnic/internal/cluster"
	"revnic/internal/jobsvc"
	"revnic/internal/solver"
)

func main() {
	var (
		addr          = flag.String("addr", ":8939", "listen address")
		pool          = flag.Int("pool", 2, "jobs executed concurrently")
		queue         = flag.Int("queue", 64, "accepted-but-unstarted job backlog bound")
		drainTimeout  = flag.Duration("drain-timeout", time.Minute, "graceful-drain allowance on SIGINT/SIGTERM")
		dataDir       = flag.String("data-dir", "", "durable job journal directory (empty = no durability)")
		maxJobWall    = flag.Duration("max-job-wall", 0, "global per-job wall-clock cap (0 = unlimited)")
		perClient     = flag.Int("per-client", 0, "concurrent live jobs allowed per client address (0 = unlimited)")
		retainCount   = flag.Int("retain-count", 256, "finished jobs kept before LRU eviction (negative = unlimited)")
		retainAge     = flag.Duration("retain-age", 0, "finished jobs evicted after this idle time (0 = no age bound)")
		maxBody       = flag.Int64("max-body", 8<<20, "POST /jobs request-body byte limit")
		peers         = flag.String("peers", "", "comma-separated base URLs of peer revnicd instances")
		coordinator   = flag.Bool("coordinator", false, "fan job shards out to -peers (local fallback guaranteed)")
		shardPool     = flag.Int("shard-pool", 2, "remote shards served concurrently before 503")
		noSteal       = flag.Bool("no-steal", false, "disable work-stealing re-dispatch of straggler shards (results are identical)")
		stealAfter    = flag.Duration("steal-after", 0, "minimum in-flight time before a shard counts as a straggler (0 = default 750ms)")
		probeInterval = flag.Duration("probe-interval", 5*time.Second, "peer health-probe period (0 = no probing)")
		backend       = flag.String("solver", "", "default solver backend for specs that omit solver_backend: "+strings.Join(solver.BackendNames(), ", ")+" (default core; results are identical)")
		race          = flag.Bool("portfolio", false, "race solver backends on hard queries by default (shorthand for -solver=portfolio)")
	)
	flag.Parse()
	if *race && *backend == "" {
		*backend = solver.BackendPortfolio
	}
	if !solver.ValidBackend(*backend) {
		fmt.Fprintf(os.Stderr, "revnicd: unknown solver backend %q (have %s)\n",
			*backend, strings.Join(solver.BackendNames(), ", "))
		os.Exit(1)
	}

	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
	}
	svc, err := jobsvc.Open(jobsvc.Config{
		Pool:         *pool,
		QueueDepth:   *queue,
		MaxJobWall:   *maxJobWall,
		PerClientCap: *perClient,
		RetainCount:  *retainCount,
		RetainAge:    *retainAge,
		MaxBodyBytes: *maxBody,
		DataDir:      *dataDir,
		Coordinator:  *coordinator,
		ShardPool:    *shardPool,
		Cluster: cluster.Config{
			Peers:           peerList,
			Logf:            log.Printf,
			DisableStealing: *noSteal,
			StealAfterMin:   *stealAfter,
		},
		ProbeInterval:        *probeInterval,
		DefaultSolverBackend: *backend,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "revnicd: %v\n", err)
		os.Exit(1)
	}
	if *dataDir != "" {
		requeued, interrupted := svc.ReplayStats()
		log.Printf("revnicd: journal %s: %d jobs requeued, %d marked interrupted",
			*dataDir, requeued, interrupted)
	}
	server := &http.Server{Addr: *addr, Handler: svc.Handler()}

	errc := make(chan error, 1)
	go func() {
		log.Printf("revnicd: serving on %s (pool=%d, %d CPUs)", *addr, *pool, runtime.GOMAXPROCS(0))
		if *coordinator {
			log.Printf("revnicd: coordinator mode, %d peers %v", len(peerList), peerList)
		}
		errc <- server.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("revnicd: %v: draining (timeout %s)", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := svc.Drain(ctx); err != nil {
			log.Printf("revnicd: drain incomplete: %v", err)
		}
		if err := server.Shutdown(ctx); err != nil {
			log.Printf("revnicd: shutdown: %v", err)
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "revnicd: %v\n", err)
			os.Exit(1)
		}
	}
}
