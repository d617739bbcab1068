// tesolve solves one traffic-engineering instance with OPT, Demand Pinning
// and POP side by side, printing totals, per-heuristic gaps, and link
// utilizations. Demands are generated synthetically (uniform or gravity).
//
// Usage:
//
//	tesolve -topo abilene -model gravity -peak 40
//	tesolve -topo b4 -model uniform -hi 30 -threshold 10 -partitions 3
//
// A SUMMARY line (machine-greppable, fields append-only) closes every run.
// SIGINT/SIGTERM are caught: the solves that already finished are reported,
// the SUMMARY line carries status=interrupted, and the exit code is 3 (a
// second signal kills immediately).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"

	metaopt "repro"
	"repro/internal/obs"
)

// exitInterrupted is the distinct exit code for runs stopped by a signal.
const exitInterrupted = 3

func main() { os.Exit(run()) }

func run() int {
	var topoFlag string
	flag.StringVar(&topoFlag, "topo", "abilene", "topology: b4, abilene, swan, figure1, circle-N-M")
	flag.StringVar(&topoFlag, "topology", "abilene", "alias for -topo")
	topoName := &topoFlag
	model := flag.String("model", "gravity", "demand model: gravity or uniform")
	peak := flag.Float64("peak", 40, "gravity peak demand")
	lo := flag.Float64("lo", 0, "uniform low")
	hi := flag.Float64("hi", 40, "uniform high")
	paths := flag.Int("paths", 2, "paths per pair")
	threshold := flag.Float64("threshold", 5, "DP threshold")
	partitions := flag.Int("partitions", 2, "POP partitions")
	clientSplit := flag.Bool("clientsplit", false, "enable POP client splitting (Appendix A)")
	splitThreshold := flag.Float64("splitthreshold", 20, "client-split threshold")
	maxSplits := flag.Int("maxsplits", 2, "max per-client splits")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", runtime.NumCPU(), "run the OPT/DP/POP solves concurrently when > 1")
	warmCheck := flag.Bool("warmstart", false, "run the LP warm-start self-check on the OPT inner LP and print a WARMSTART line")
	verbose := flag.Bool("v", false, "print per-link loads")
	tracePath := flag.String("trace", "", "write a JSONL event trace to this file")
	metricsDump := flag.Bool("metrics", false, "print a Prometheus-style metrics dump on exit")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof, expvar and /metrics on this address (e.g. localhost:6060)")
	flag.Parse()

	tracer, finishObs, err := obs.SetupCLI(*tracePath, *metricsDump, *pprofAddr, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	defer finishObs()

	// First signal asks for a graceful stop (partial results + SUMMARY);
	// restoring the default disposition lets a second one kill hard.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	go func() {
		<-ctx.Done()
		stopSignals()
	}()

	g, err := metaopt.TopologyByName(*topoName)
	if err != nil {
		log.Fatal(err)
	}
	set := metaopt.AllPairs(g)
	rng := rand.New(rand.NewSource(*seed))
	switch *model {
	case "gravity":
		set.Gravity(rng, g, *peak)
	case "uniform":
		set.Uniform(rng, *lo, *hi)
	default:
		log.Fatalf("unknown demand model %q", *model)
	}
	inst, err := metaopt.NewInstance(g, set, *paths)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d nodes, %d links; %d demands totaling %.1f\n\n",
		g.Name(), g.NumNodes(), g.NumEdges(), set.Len(), set.Total())

	// The three solves are independent (POP owns the only live rand.Rand and
	// mcf solves never mutate the instance), so -workers > 1 runs them
	// concurrently and the results are printed afterwards in the usual order.
	var (
		opt, dp, pop  *metaopt.Flow
		dpFeasible    bool
		optErr, dpErr error
		popErr        error
	)
	popOpts := metaopt.POPOptions{
		Partitions: *partitions, Rng: rng,
		ClientSplit: *clientSplit, SplitThreshold: *splitThreshold, MaxSplits: *maxSplits,
	}
	solveOpt := func() {
		_, optErr = obs.TimePhase(tracer, "opt", func() error {
			var serr error
			opt, serr = metaopt.SolveMaxFlow(inst)
			return serr
		})
	}
	solveDP := func() {
		if dpFeasible = metaopt.DemandPinningFeasible(inst, *threshold); !dpFeasible {
			return
		}
		_, dpErr = obs.TimePhase(tracer, "dp", func() error {
			var serr error
			dp, serr = metaopt.SolveDemandPinning(inst, *threshold)
			return serr
		})
	}
	solvePOP := func() {
		_, popErr = obs.TimePhase(tracer, "pop", func() error {
			var serr error
			pop, serr = metaopt.SolvePOP(inst, popOpts)
			return serr
		})
	}
	if *workers > 1 {
		var wg sync.WaitGroup
		wg.Add(3)
		go func() { defer wg.Done(); solveOpt() }()
		go func() { defer wg.Done(); solveDP() }()
		go func() { defer wg.Done(); solvePOP() }()
		wg.Wait()
	} else {
		solveOpt()
		solveDP()
		solvePOP()
	}
	for _, err := range []error{optErr, dpErr, popErr} {
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("%-22s total=%9.2f  (%.1f%% of demand)\n", "OPT (max total flow)",
		opt.Total, 100*opt.Total/set.Total())

	if dpFeasible {
		fmt.Printf("%-22s total=%9.2f  gap=%8.2f (%.2f%% of OPT)\n",
			fmt.Sprintf("DP (threshold %.1f)", *threshold),
			dp.Total, opt.Total-dp.Total, 100*(opt.Total-dp.Total)/opt.Total)
	} else {
		fmt.Printf("%-22s INFEASIBLE: pinned demands oversubscribe a link (Section 5)\n",
			fmt.Sprintf("DP (threshold %.1f)", *threshold))
	}
	label := fmt.Sprintf("POP (%d partitions)", *partitions)
	if *clientSplit {
		label = fmt.Sprintf("POP+split (%d parts)", *partitions)
	}
	fmt.Printf("%-22s total=%9.2f  gap=%8.2f (%.2f%% of OPT)\n",
		label, pop.Total, opt.Total-pop.Total, 100*(opt.Total-pop.Total)/opt.Total)

	// One machine-greppable line per run; new fields are only ever appended.
	// An infeasible DP prints NaN totals so the field count stays fixed.
	dpTotal, dpGap := math.NaN(), math.NaN()
	if dpFeasible {
		dpTotal, dpGap = dp.Total, opt.Total-dp.Total
	}
	status := "ok"
	if ctx.Err() != nil {
		status = "interrupted"
	}
	fmt.Printf("SUMMARY opt=%.4f dp=%.4f dp_gap=%.4f pop=%.4f pop_gap=%.4f status=%s\n",
		opt.Total, dpTotal, dpGap, pop.Total, opt.Total-pop.Total, status)

	if *warmCheck {
		rep, err := metaopt.WarmStartSelfCheck(inst)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("WARMSTART opt: cold_iters=%d warm_iters=%d obj_delta=%.2e warm_used=%t\n",
			rep.ColdIters, rep.WarmIters, rep.ObjDelta, rep.WarmUsed)
	}

	if *verbose {
		fmt.Println("\nper-link load (OPT):")
		loads := opt.EdgeLoads(inst)
		for e := 0; e < g.NumEdges(); e++ {
			edge := g.Edge(e)
			fmt.Printf("  %2d->%-2d %8.2f / %.0f\n", edge.From, edge.To, loads[e], edge.Capacity)
		}
	}
	if ctx.Err() != nil {
		return exitInterrupted
	}
	return 0
}
