// gapfinder searches for adversarial demands that maximize the gap between
// the optimal flow allocation and a heuristic (Demand Pinning or POP), using
// either the white-box single-shot optimization or a black-box local search.
//
// Usage:
//
//	gapfinder -topo b4 -heuristic dp -threshold 5 -pairs 12 -budget 10s
//	gapfinder -topo swan -heuristic pop -partitions 3 -method anneal
//	gapfinder -heuristic dp -target 80        # stop at the first input with gap >= 80
//	gapfinder -heuristic dp -checkpoint s.ckpt          # crash-safe search
//	gapfinder -heuristic dp -checkpoint s.ckpt -resume s.ckpt   # continue it
//
// SIGINT/SIGTERM interrupt the search cooperatively: the best-so-far result
// and its SUMMARY line are still printed, and the process exits with code 3
// (a second signal kills immediately). With -checkpoint set, a killed run
// can be resumed with -resume from the same flags, -workers included; the
// resumed search explores the exact tree the uninterrupted run would have.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	metaopt "repro"
	"repro/internal/blackbox"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/mcf"
	"repro/internal/milp"
	"repro/internal/obs"
)

// exitInterrupted is the distinct exit code for searches stopped by a
// signal or a cancelled context; the SUMMARY line is printed first.
const exitInterrupted = 3

// robustness bundles the crash-safety knobs threaded into every search.
type robustness struct {
	ctx        context.Context
	checkpoint string
	every      int
	faults     *faultinject.Plan
	snap       *checkpoint.Snapshot
}

func main() { os.Exit(run()) }

func run() int {
	var topoFlag string
	flag.StringVar(&topoFlag, "topo", "b4", "topology: b4, abilene, swan, figure1, circle-N-M")
	flag.StringVar(&topoFlag, "topology", "b4", "alias for -topo")
	topoName := &topoFlag
	heuristic := flag.String("heuristic", "dp", "heuristic: dp or pop")
	method := flag.String("method", "whitebox", "search method: whitebox, hillclimb, anneal")
	pairs := flag.Int("pairs", 12, "demand pairs in the search support (-1 = all pairs)")
	paths := flag.Int("paths", 2, "paths per pair")
	threshold := flag.Float64("threshold", 5, "DP threshold (links have capacity 100)")
	partitions := flag.Int("partitions", 2, "POP partitions")
	instantiations := flag.Int("instantiations", 3, "POP random instantiations averaged over")
	maxDemand := flag.Float64("maxdemand", 100, "upper bound on each demand")
	budget := flag.Duration("budget", 10*time.Second, "search budget")
	workers := flag.Int("workers", runtime.NumCPU(), "parallel workers: node relaxations (whitebox) or restarts (blackbox); 1 = sequential")
	warmStart := flag.Bool("warmstart", false, "warm-start node LP relaxations from the parent basis (whitebox only; identical results, fewer pivots)")
	seed := flag.Int64("seed", 1, "random seed")
	target := flag.Float64("target", 0, "stop at the first input with gap >= target (whitebox only; 0 = off)")
	diverse := flag.Int("diverse", 1, "number of diverse inputs to find (whitebox only)")
	safeEps := flag.Float64("safe-eps", 0, "instead of searching for a gap, find the largest DP threshold whose worst-case gap stays <= safe-eps (dp only; 0 = off)")
	report := flag.String("report", "", "also write a markdown report of the findings to this file (whitebox only)")
	quiet := flag.Bool("q", false, "suppress progress output")
	tracePath := flag.String("trace", "", "write a JSONL event trace to this file")
	metricsDump := flag.Bool("metrics", false, "print a Prometheus-style metrics dump on exit")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof, expvar and /metrics on this address (e.g. localhost:6060)")
	ckptPath := flag.String("checkpoint", "", "write a crash-safe checkpoint to this file (atomic replace: whitebox wave state or blackbox restart ledger)")
	ckptEvery := flag.Int("checkpoint-every", 0, "checkpoint every N completed waves (whitebox) or restarts (blackbox); 0 = every one")
	resumePath := flag.String("resume", "", "resume from this checkpoint file; rerun with the same model flags and -workers as the checkpointed run")
	faultSpec := flag.String("faults", "", "deterministic fault-injection plan, e.g. lp-solve:3,ckpt-write:1,deadline:2 (crash-safety testing)")
	restarts := flag.Int("restarts", 0, "blackbox restart cap (0 = restart until -budget expires; -checkpoint needs > 0)")
	flag.Parse()
	reportPath = *report

	tracer, finishObs, err := obs.SetupCLI(*tracePath, *metricsDump, *pprofAddr, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	defer finishObs()

	// First signal cancels the search cooperatively; restoring the default
	// disposition right after lets a second signal kill the process hard.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	go func() {
		<-ctx.Done()
		stopSignals()
	}()

	rb := robustness{ctx: ctx, checkpoint: *ckptPath, every: *ckptEvery}
	if *faultSpec != "" {
		rb.faults, err = faultinject.Parse(*faultSpec, *seed)
		if err != nil {
			log.Fatal(err)
		}
	}
	if *resumePath != "" {
		rb.snap, err = checkpoint.Load(*resumePath)
		if err != nil {
			log.Fatal(err)
		}
	}

	g, err := metaopt.TopologyByName(*topoName)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(*seed))
	var set *metaopt.DemandSet
	if *pairs < 0 {
		set = metaopt.ReachablePairs(g)
	} else {
		set = metaopt.RandomPairs(g, *pairs, rng)
	}
	inst, err := metaopt.NewInstance(g, set, *paths)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d nodes, %d links, %d demands, %d paths/pair; heuristic=%s method=%s\n",
		g.Name(), g.NumNodes(), g.NumEdges(), set.Len(), *paths, *heuristic, *method)

	if *safeEps > 0 {
		if *heuristic != "dp" {
			log.Fatal("-safe-eps only applies to the dp heuristic")
		}
		pr := &core.DPGapProblem{Inst: inst, Input: metaopt.InputConstraints{MaxDemand: *maxDemand}}
		safe, err := core.SafeThreshold(pr, 0, *maxDemand, *safeEps, 12, *budget/6)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("largest threshold with worst-case gap <= %.2f: %.3f\n", *safeEps, safe)
		return 0
	}

	interrupted := false
	switch *method {
	case "whitebox":
		interrupted = runWhitebox(inst, set, *heuristic, *threshold, *partitions, *instantiations,
			*maxDemand, *budget, *seed, *target, *diverse, *quiet, *workers, *warmStart, tracer, rb)
	case "hillclimb", "anneal":
		interrupted = runBlackbox(inst, set, *heuristic, *method, *threshold, *partitions, *instantiations,
			*maxDemand, *budget, *seed, *workers, *restarts, tracer, rb)
	default:
		log.Fatalf("unknown method %q", *method)
	}
	if interrupted {
		if *ckptPath != "" {
			fmt.Printf("interrupted: best-so-far result above; continue with -resume %s\n", *ckptPath)
		} else {
			fmt.Println("interrupted: best-so-far result above (run with -checkpoint to make searches resumable)")
		}
		return exitInterrupted
	}
	return 0
}

func runWhitebox(inst *metaopt.Instance, set *metaopt.DemandSet, heuristic string,
	threshold float64, partitions, instantiations int, maxDemand float64,
	budget time.Duration, seed int64, target float64, diverse int, quiet bool,
	workers int, warmStart bool, tracer *obs.Tracer, rb robustness) bool {

	input := metaopt.InputConstraints{MaxDemand: maxDemand}
	opts := milp.Options{
		TimeLimit:       budget,
		DepthFirst:      true,
		StallWindow:     budget / 3,
		StallImprove:    0.005,
		Tracer:          tracer,
		Workers:         workers,
		WarmStart:       warmStart,
		Ctx:             rb.ctx,
		Checkpoint:      rb.checkpoint,
		CheckpointEvery: rb.every,
		Faults:          rb.faults,
	}
	if target > 0 {
		opts.Target = &target
	}
	if !quiet {
		opts.Log = func(format string, args ...any) {
			fmt.Printf("  "+format+"\n", args...)
		}
	}
	var resume *checkpoint.BnBState
	if rb.snap != nil {
		if rb.snap.BnB == nil {
			log.Fatal("gapfinder: checkpoint does not hold a white-box snapshot (was it written by a blackbox method?)")
		}
		resume = rb.snap.BnB
	}
	for i := 0; i < diverse; i++ {
		var res *metaopt.GapResult
		var err error
		switch heuristic {
		case "dp":
			pr := &core.DPGapProblem{Inst: inst, Threshold: threshold, Input: input}
			if i == 0 && resume != nil {
				res, err = pr.Resume(resume, opts)
			} else {
				res, err = pr.Solve(opts)
			}
		case "pop":
			pr := &core.POPGapProblem{
				Inst: inst, Partitions: partitions, Instantiations: instantiations,
				Rng: rand.New(rand.NewSource(seed + 7)), Input: input,
			}
			if i == 0 && resume != nil {
				res, err = pr.Resume(resume, opts)
			} else {
				res, err = pr.Solve(opts)
			}
		default:
			log.Fatalf("unknown heuristic %q", heuristic)
		}
		var mismatch *checkpoint.MismatchError
		if errors.As(err, &mismatch) {
			log.Fatalf("%v\ngapfinder: -resume continues only the search that wrote the checkpoint: rerun with the same model flags and the same -workers (the wave size defaults to twice the worker count)", err)
		}
		if err != nil {
			log.Fatal(err)
		}
		interrupted := res.Solver.Status == milp.StatusInterrupted
		if res.Demands == nil {
			fmt.Printf("no adversarial input found (%v)\n", res.Solver.Status)
			printSummary(res)
			return interrupted
		}
		fmt.Printf("result #%d: gap=%.2f (normalized %.4f)  OPT=%.2f  heuristic=%.2f\n",
			i+1, res.Gap, res.NormalizedGap, res.OptValue, res.HeurValue)
		fmt.Printf("  solver: %v, bound %.2f, %d nodes, %d LPs, %v\n",
			res.Solver.Status, res.Solver.Bound, res.Solver.Nodes, res.Solver.LPSolves,
			res.Solver.Elapsed.Round(time.Millisecond))
		printSummary(res)
		fmt.Printf("  model:  %d vars, %d rows, %d SOS pairs, %d binaries\n",
			res.Stats.Vars, res.Stats.LinearCons, res.Stats.SOSPairs, res.Stats.Binaries)
		printDemands(set, res.Demands, threshold, heuristic)
		writeReport(inst.G, set, heuristic, threshold, res, i+1)
		if interrupted {
			return true
		}
		if i+1 < diverse {
			input.Exclusions = append(input.Exclusions, res.Demands)
			input.ExclusionRadius = maxDemand / 10
		}
	}
	return false
}

// printSummary emits the one-line machine-greppable whitebox solve summary.
// New fields are only ever appended at the end so downstream greps keep
// working; CI's warm-start smoke test parses this line.
func printSummary(res *metaopt.GapResult) {
	fmt.Printf("SUMMARY status=%s gap=%.4f bound=%.4f nodes=%d lp_solves=%d lp_iters=%d wall=%.3fs warm_solves=%d warm_fallbacks=%d dives=%d\n",
		res.Solver.Status, res.Gap, res.Solver.Bound, res.Solver.Nodes,
		res.Solver.LPSolves, res.Solver.LPIters, res.Solver.Elapsed.Seconds(),
		res.Solver.WarmLPSolves, res.Solver.WarmLPFallbacks, res.Solver.Dives)
}

func runBlackbox(inst *metaopt.Instance, set *metaopt.DemandSet, heuristic, method string,
	threshold float64, partitions, instantiations int, maxDemand float64,
	budget time.Duration, seed int64, workers, restarts int, tracer *obs.Tracer, rb robustness) bool {

	var gapFn blackbox.GapFunc
	switch heuristic {
	case "dp":
		gapFn = blackbox.DPGap(inst, threshold)
	case "pop":
		rng := rand.New(rand.NewSource(seed + 7))
		assignments := make([][]int, instantiations)
		for i := range assignments {
			assignments[i] = mcf.RandomAssignment(set.Len(), partitions, rng)
		}
		gapFn = blackbox.POPGap(inst, assignments, partitions)
	default:
		log.Fatalf("unknown heuristic %q", heuristic)
	}
	if rb.checkpoint != "" && restarts <= 0 {
		log.Fatal("gapfinder: -checkpoint with a blackbox method needs -restarts > 0 (the ledger replays a fixed seed sequence)")
	}
	base := blackbox.Options{
		MaxDemand: maxDemand, Sigma: maxDemand / 10, K: 100,
		Budget: budget, Restarts: restarts, Rng: rand.New(rand.NewSource(seed)),
		Tracer: tracer, Workers: workers,
		Ctx: rb.ctx, Checkpoint: rb.checkpoint, CheckpointEvery: rb.every,
		CheckpointFS: faultinject.WrapFS(nil, rb.faults),
	}
	var res *blackbox.Result
	var err error
	saOpts := blackbox.SAOptions{Options: base, T0: 500, Gamma: 0.1, KP: 100}
	switch {
	case rb.snap != nil:
		if rb.snap.Blackbox == nil {
			log.Fatal("gapfinder: checkpoint does not hold a blackbox snapshot (was it written by the whitebox method?)")
		}
		if method == "hillclimb" {
			res, err = blackbox.ResumeHillClimb(gapFn, set.Len(), base, rb.snap.Blackbox)
		} else {
			res, err = blackbox.ResumeSimulatedAnneal(gapFn, set.Len(), saOpts, rb.snap.Blackbox)
		}
	case method == "hillclimb":
		res, err = blackbox.HillClimb(gapFn, set.Len(), base)
	default:
		res, err = blackbox.SimulatedAnneal(gapFn, set.Len(), saOpts)
	}
	if err != nil {
		log.Fatal(err)
	}
	status := "ok"
	if res.Interrupted {
		status = "interrupted"
	}
	fmt.Printf("result: gap=%.2f after %d evaluations in %v\n",
		res.Gap, res.Evals, res.Elapsed.Round(time.Millisecond))
	fmt.Printf("SUMMARY method=%s gap=%.4f evals=%d wall=%.3fs status=%s\n",
		method, res.Gap, res.Evals, res.Elapsed.Seconds(), status)
	if res.Demands != nil {
		printDemands(set, res.Demands, threshold, heuristic)
	}
	return res.Interrupted
}

// reportPath, when set, receives a markdown report of every white-box
// finding — the artifact an operator would attach to a heuristic review.
var reportPath string

// writeReport appends one finding to the report file (creating it with a
// header on first use).
func writeReport(g *metaopt.Graph, set *metaopt.DemandSet, heuristic string,
	threshold float64, res *metaopt.GapResult, index int) {
	if reportPath == "" {
		return
	}
	var b strings.Builder
	if index == 1 {
		fmt.Fprintf(&b, "# Adversarial input report — %s vs OPT on %s\n\n", heuristic, g.Name())
		fmt.Fprintf(&b, "Topology: %d nodes, %d directed links, total capacity %.0f.\n",
			g.NumNodes(), g.NumEdges(), g.TotalCapacity())
		fmt.Fprintf(&b, "Demand support: %d pairs. Generated by cmd/gapfinder.\n\n", set.Len())
	}
	fmt.Fprintf(&b, "## Finding %d\n\n", index)
	fmt.Fprintf(&b, "- verified gap: **%.2f** flow units (%.4f normalized by total capacity)\n",
		res.Gap, res.NormalizedGap)
	fmt.Fprintf(&b, "- OPT carries %.2f; the heuristic carries %.2f\n", res.OptValue, res.HeurValue)
	fmt.Fprintf(&b, "- solver: %v, bound %.2f, %d nodes, %v\n", res.Solver.Status,
		res.Solver.Bound, res.Solver.Nodes, res.Solver.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "- meta model: %d vars, %d rows, %d SOS pairs, %d binaries\n\n",
		res.Stats.Vars, res.Stats.LinearCons, res.Stats.SOSPairs, res.Stats.Binaries)
	fmt.Fprintf(&b, "| demand | volume | note |\n|---|---|---|\n")
	for k := 0; k < set.Len(); k++ {
		if res.Demands[k] < 0.01 {
			continue
		}
		note := ""
		if heuristic == "dp" && res.Demands[k] <= threshold {
			note = "pinned by DP"
		}
		fmt.Fprintf(&b, "| %v | %.2f | %s |\n", set.Pair(k), res.Demands[k], note)
	}
	b.WriteString("\n")
	f, err := os.OpenFile(reportPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		log.Printf("report: %v", err)
		return
	}
	defer f.Close()
	if _, err := f.WriteString(b.String()); err != nil {
		log.Printf("report: %v", err)
	}
}

func printDemands(set *metaopt.DemandSet, demands []float64, threshold float64, heuristic string) {
	fmt.Println("  adversarial demands:")
	for k := 0; k < set.Len(); k++ {
		if demands[k] < 0.01 {
			continue
		}
		mark := ""
		if heuristic == "dp" && demands[k] <= threshold {
			mark = "  <- pinned"
		}
		fmt.Printf("    %-8v %8.2f%s\n", set.Pair(k), demands[k], mark)
	}
}
