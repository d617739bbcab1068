// Command gapserved is the crash-safe gap-search daemon: an HTTP front end
// over internal/serve that accepts gap-search jobs, runs them on a bounded
// worker pool, streams solver progress, and answers repeat submissions from
// a fingerprint-keyed results store.
//
// Durability: every job state change is persisted to the job queue
// (<state>/queue.ckpt) and every cacheable answer to the results store
// (<state>/results.json), both checksummed record files in the format of
// checkpoint.Table; in-flight jobs checkpoint their branch-and-bound
// frontier to <state>/ckpt-<key>.ckpt on a configurable wave cadence. A
// SIGKILL mid-search therefore loses at most one cadence of work: a
// restarted daemon re-admits the queue and resumes each job from its last
// checkpoint to the bit-identical answer. SIGTERM/SIGINT drain gracefully:
// in-flight jobs checkpoint and re-queue, then the process exits 0.
//
// Health is split: /healthz reports liveness (200 whenever the process
// serves HTTP) while /readyz reports readiness (503 until the persisted
// queue is restored, and again once a drain begins). Rejections carry a
// Retry-After hint sized from the queue backlog.
//
// Exit codes: 0 clean shutdown, 1 startup or serve error, 2 flag error.
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
	"strconv"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8344", "listen address")
	stateDir := flag.String("state", "gapserved-state", "durable state directory (queue ledger, results store, checkpoints)")
	workers := flag.Int("workers", 2, "worker pool size (concurrent jobs; per-job solver parallelism is the job spec's workers field)")
	queueDepth := flag.Int("queue-depth", 64, "max queued jobs before submissions are rejected with 429")
	defaultBudget := flag.Duration("default-budget", 30*time.Second, "solve budget for jobs that do not set budget_sec")
	maxBudget := flag.Duration("max-budget", 10*time.Minute, "upper clamp on any job's solve budget")
	ckptEvery := flag.Int("checkpoint-every", 0, "checkpoint cadence in solver waves (0 = every wave boundary)")
	quiet := flag.Bool("q", false, "suppress per-job SUMMARY lines")
	flag.Parse()

	logf := log.New(os.Stderr, "gapserved: ", log.LstdFlags).Printf

	srv, err := serve.New(serve.Config{
		StateDir:        *stateDir,
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		DefaultBudget:   *defaultBudget,
		MaxBudget:       *maxBudget,
		CheckpointEvery: *ckptEvery,
		Logf:            logf,
	})
	if err != nil {
		logf("startup: %v", err)
		os.Exit(1)
	}
	if !*quiet {
		srv.OnJobDone = func(id string, sr *serve.StoredResult) {
			// Same SUMMARY shape cmd/gapfinder prints, so tooling that greps
			// one greps the other. The float fields round-trip through the
			// store's string encoding.
			fmt.Printf("SUMMARY job=%s key=%s status=%s gap=%.4f bound=%.4f nodes=%d lp_solves=%d lp_iters=%d wall=%.3fs warm_solves=%d warm_fallbacks=%d\n",
				id, sr.Key, sr.Status, pf(sr.Gap), pf(sr.Bound),
				sr.Nodes, sr.LPSolves, sr.LPIters, pf(sr.WallSec), sr.WarmSolves, sr.WarmFallbks)
		}
	}
	srv.Start()

	hs := &http.Server{Addr: *addr, Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()
	logf("listening on %s (state %s, %d workers, queue depth %d)",
		*addr, *stateDir, *workers, *queueDepth)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		logf("serve: %v", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	logf("signal received, draining")

	// Stop accepting HTTP first, then drain the pool: in-flight jobs
	// checkpoint and return to the queue ledger, queued jobs persist as-is.
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		logf("http shutdown: %v", err)
	}
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logf("drain: %v", err)
		os.Exit(1)
	}
	logf("drained; state persisted to %s", *stateDir)
}

// pf parses a store-encoded float ("g"/-1 strconv form, ±Inf legal).
func pf(s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0
	}
	return v
}
