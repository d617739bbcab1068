// Command gapsweep is the fault-tolerant sweep client for gapserved: it
// fans a threshold × partitions × seed grid out over one or more daemon
// endpoints and survives dropped connections, injected 503s, latency
// spikes, and daemons killed mid-solve.
//
// Resilience: retries use seeded exponential backoff (jitter pre-split per
// cell from -seed, never wall-clock), honor the daemon's Retry-After hints
// on 429/503, and stop at -retries attempts with a typed terminal error.
// Every cell's state is committed to a checksummed ledger (-ledger) via
// atomic temp+rename before the sweep moves on, so a killed sweep rerun
// with the same flags resumes without resubmitting completed cells. SIGINT
// degrades gracefully: the partial grid is reported and the process exits 3.
//
// The proxy subcommand ("gapsweep proxy") runs the internal/faultinject
// HTTP proxy used by the chaos harness:
//
//	gapsweep proxy -listen 127.0.0.1:8999 -target http://127.0.0.1:8344 \
//	    -faults 'http-503:%5,http-drop:3' -fault-seed 7
//
// Exit codes: 0 grid fully terminal and clean, 1 startup or I/O error,
// 2 flag error or some cells exhausted/failed, 3 interrupted (partial grid).
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
	"strings"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sweep"
)

const (
	exitOK          = 0
	exitFatal       = 1
	exitUsage       = 2
	exitIncomplete  = 2
	exitInterrupted = 3
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "proxy" {
		os.Exit(proxyMain(os.Args[2:]))
	}
	os.Exit(sweepMain(os.Args[1:]))
}

func sweepMain(args []string) int {
	fs := flag.NewFlagSet("gapsweep", flag.ExitOnError)
	endpoints := fs.String("endpoints", "http://127.0.0.1:8344", "comma-separated gapserved base URLs; attempts rotate across them")
	topo := fs.String("topology", "b4", "topology: b4, abilene, swan, figure1, circle-N-M")
	heur := fs.String("heuristic", "dp", "heuristic: dp or pop")
	pairs := fs.Int("pairs", 12, "demand pairs (-1 = all reachable)")
	paths := fs.Int("paths", 2, "paths per pair")
	maxDemand := fs.Float64("max-demand", 100, "per-demand upper bound")
	budget := fs.Float64("budget", 30, "per-cell solve budget in seconds")
	targetGap := fs.Float64("target-gap", 0, "stop a cell at the first gap >= this (0 = prove optimality)")
	warm := fs.Bool("warm", false, "warm-start node relaxations")
	solverWorkers := fs.Int("solver-workers", 0, "per-job solver wave-pool size (0 = daemon default)")

	thresholds := fs.String("thresholds", "", "DP threshold axis, e.g. 2,5,8 (empty = single point from defaults)")
	partitions := fs.String("partitions", "", "POP partitions axis, e.g. 1,2,4 or 1..4")
	seeds := fs.String("seeds", "1", "seed axis, e.g. 1,7,9 or 1..8")

	ledgerPath := fs.String("ledger", "sweep.ledger", "durable sweep ledger (resume state)")
	retries := fs.Int("retries", 8, "max attempts per cell before it is marked exhausted")
	backoff := fs.Duration("backoff", 100*time.Millisecond, "initial retry backoff (doubles per attempt)")
	maxBackoff := fs.Duration("max-backoff", 5*time.Second, "retry backoff cap")
	timeout := fs.Duration("timeout", 10*time.Second, "per-HTTP-request timeout")
	poll := fs.Duration("poll", 250*time.Millisecond, "job status poll interval")
	seed := fs.Int64("seed", 1, "master seed for retry jitter (pre-split per cell)")
	workers := fs.Int("workers", 4, "concurrent cells in flight")

	outPath := fs.String("out", "", "write the deterministic grid CSV here ('-' = stdout)")
	jsonPath := fs.String("json", "", "write the full JSON report (attempts, endpoints, wall times) here")
	quiet := fs.Bool("q", false, "suppress per-cell progress lines")
	fs.Parse(args)

	logf := log.New(os.Stderr, "gapsweep: ", log.LstdFlags).Printf

	eps := splitNonEmpty(*endpoints)
	if len(eps) == 0 {
		fmt.Fprintln(os.Stderr, "gapsweep: -endpoints must name at least one daemon URL")
		return exitUsage
	}
	thrAxis, err := parseFloatAxis(*thresholds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gapsweep: -thresholds: %v\n", err)
		return exitUsage
	}
	partAxis, err := parseIntAxis(*partitions)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gapsweep: -partitions: %v\n", err)
		return exitUsage
	}
	seedAxis, err := parseInt64Axis(*seeds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gapsweep: -seeds: %v\n", err)
		return exitUsage
	}

	grid := &sweep.Grid{
		Base: serve.Spec{
			Topology:  *topo,
			Heuristic: *heur,
			Pairs:     *pairs,
			Paths:     *paths,
			MaxDemand: *maxDemand,
			BudgetSec: *budget,
			TargetGap: *targetGap,
			WarmStart: *warm,
			Workers:   *solverWorkers,
		},
		Thresholds: thrAxis,
		Partitions: partAxis,
		Seeds:      seedAxis,
	}

	ledger, err := sweep.OpenLedger(*ledgerPath, nil)
	if err != nil {
		logf("ledger: %v", err)
		return exitFatal
	}
	runner := &sweep.Runner{
		Client: sweep.NewClient(eps, sweep.Policy{
			MaxAttempts:  *retries,
			BaseDelay:    *backoff,
			MaxDelay:     *maxBackoff,
			Timeout:      *timeout,
			PollInterval: *poll,
		}),
		Ledger:   ledger,
		Grid:     grid,
		Seed:     *seed,
		Workers:  *workers,
		Registry: obs.NewRegistry(),
	}
	if !*quiet {
		runner.Logf = logf
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	rep, runErr := runner.Run(ctx)
	stop()

	if err := writeOutputs(rep, *outPath, *jsonPath); err != nil {
		logf("%v", err)
		return exitFatal
	}
	fmt.Println(rep.Summary())
	switch {
	case errors.Is(runErr, sweep.ErrInterrupted):
		return exitInterrupted
	case runErr != nil:
		logf("sweep: %v", runErr)
		return exitFatal
	case rep.Exhausted > 0 || rep.Failed > 0:
		return exitIncomplete
	}
	return exitOK
}

func writeOutputs(rep *sweep.Report, outPath, jsonPath string) error {
	if outPath != "" {
		if outPath == "-" {
			if err := rep.WriteCSV(os.Stdout); err != nil {
				return fmt.Errorf("csv: %w", err)
			}
		} else {
			f, err := os.Create(outPath)
			if err != nil {
				return err
			}
			if err := rep.WriteCSV(f); err != nil {
				f.Close()
				return fmt.Errorf("csv: %w", err)
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return fmt.Errorf("json report: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func proxyMain(args []string) int {
	fs := flag.NewFlagSet("gapsweep proxy", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:8999", "proxy listen address")
	target := fs.String("target", "", "gapserved base URL to forward to (required)")
	faults := fs.String("faults", "", "fault plan, e.g. 'http-503:%5,http-drop:3,http-latency:~10'")
	faultSeed := fs.Int64("fault-seed", 1, "seed resolving ~max fault triggers")
	latency := fs.Duration("latency", 100*time.Millisecond, "delay added by each http-latency hit")
	fs.Parse(args)

	logf := log.New(os.Stderr, "gapsweep-proxy: ", log.LstdFlags).Printf
	if *target == "" {
		fmt.Fprintln(os.Stderr, "gapsweep proxy: -target is required")
		return exitUsage
	}
	plan, err := faultinject.Parse(*faults, *faultSeed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gapsweep proxy: %v\n", err)
		return exitUsage
	}
	proxy, err := faultinject.NewProxy(*target, plan)
	if err != nil {
		logf("%v", err)
		return exitFatal
	}
	proxy.Latency = *latency
	proxy.Logf = logf

	hs := &http.Server{Addr: *listen, Handler: proxy}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()
	logf("proxying %s on %s (plan %q, seed %d)", *target, *listen, *faults, *faultSeed)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		logf("serve: %v", err)
		return exitFatal
	case <-ctx.Done():
	}
	stop()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hs.Shutdown(shutCtx)
	logf("done: %d requests, %d faults injected", proxy.Requests(), proxy.Injected())
	return exitOK
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseFloatAxis parses a comma-separated float list ("2,5,8").
func parseFloatAxis(s string) ([]float64, error) {
	var out []float64
	for _, part := range splitNonEmpty(s) {
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseInt64Axis parses comma-separated entries where each entry is either
// a single integer or an inclusive range "a..b".
func parseInt64Axis(s string) ([]int64, error) {
	var out []int64
	for _, part := range splitNonEmpty(s) {
		if lo, hi, ok := strings.Cut(part, ".."); ok {
			a, errA := strconv.ParseInt(strings.TrimSpace(lo), 10, 64)
			b, errB := strconv.ParseInt(strings.TrimSpace(hi), 10, 64)
			if errA != nil || errB != nil || b < a {
				return nil, fmt.Errorf("bad range %q", part)
			}
			if b-a >= 1<<20 {
				return nil, fmt.Errorf("range %q enumerates too many values", part)
			}
			for v := a; v <= b; v++ {
				out = append(out, v)
			}
			continue
		}
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseIntAxis(s string) ([]int, error) {
	wide, err := parseInt64Axis(s)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(wide))
	for i, v := range wide {
		out[i] = int(v)
	}
	return out, nil
}
