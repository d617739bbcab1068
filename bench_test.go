package metaopt

// One benchmark per table/figure of the paper's evaluation, plus the
// ablations called out in DESIGN.md and microbenchmarks of the substrates.
// The figure benches wrap internal/experiments with small per-search
// budgets so `go test -bench=.` finishes in minutes; cmd/figures runs the
// same experiments with paper-scale budgets (see EXPERIMENTS.md).

import (
	"io"
	"math/rand"
	"testing"
	"time"

	"repro/internal/blackbox"
	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/experiments"
	"repro/internal/mcf"
	"repro/internal/milp"
	"repro/internal/obs"
	"repro/internal/topology"
)

func benchCfg(budget time.Duration, pairs int) experiments.Config {
	return experiments.Config{Budget: budget, Pairs: pairs, Seed: 1}
}

// BenchmarkFigure1 prices the motivating example end to end (two LP solves).
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		if r.Gap != 100 {
			b.Fatalf("gap=%v", r.Gap)
		}
	}
}

// BenchmarkFigure2 solves the rectangle example's LP analog through the
// full KKT machinery.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Figure2LinearAnalog(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3DP regenerates the DP gap-vs-time comparison on B4.
func BenchmarkFigure3DP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3("dp", benchCfg(800*time.Millisecond, 10)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3POP regenerates the POP gap-vs-time comparison on B4.
func BenchmarkFigure3POP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3("pop", benchCfg(800*time.Millisecond, 10)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4a sweeps the DP threshold on SWAN, B4 and Abilene.
func BenchmarkFigure4a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4a(benchCfg(300*time.Millisecond, 8)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4b runs the synthetic-circle sweep.
func BenchmarkFigure4b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4b(benchCfg(300*time.Millisecond, 8)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5a measures POP single-sample vs 5-sample transfer.
func BenchmarkFigure5a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5a(benchCfg(500*time.Millisecond, 8)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5b sweeps POP partition and path counts.
func BenchmarkFigure5b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5b(benchCfg(300*time.Millisecond, 8)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6 measures problem sizes and solver latencies.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6(benchCfg(500*time.Millisecond, 8)); err != nil {
			b.Fatal(err)
		}
	}
}

// figure1Problem builds the standard small DP gap problem used by the
// ablation benches (provably optimal in well under a second).
func figure1Problem() *core.DPGapProblem {
	g := topology.Figure1()
	set := demand.NewSet([]demand.Pair{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 2}})
	inst, err := mcf.NewInstance(g, set, 2)
	if err != nil {
		panic(err)
	}
	return &core.DPGapProblem{
		Inst: inst, Threshold: 50,
		Input: core.InputConstraints{MaxDemand: 100},
	}
}

func runAblation(b *testing.B, pr *core.DPGapProblem, opts milp.Options) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := pr.Solve(opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Solver.Status != milp.StatusOptimal || res.Gap < 99.99 {
			b.Fatalf("status=%v gap=%v", res.Solver.Status, res.Gap)
		}
	}
}

// BenchmarkAblationBaseline is the reference point for the ablations:
// phase-2 encoding, primal-only OPT, SOS branching, polish on.
func BenchmarkAblationBaseline(b *testing.B) {
	runAblation(b, figure1Problem(), milp.Options{})
}

// BenchmarkAblationOptKKT certifies the OPT side with a full KKT system
// instead of the sign-aligned primal-only encoding (DESIGN.md ablation 1).
func BenchmarkAblationOptKKT(b *testing.B) {
	pr := figure1Problem()
	pr.FullKKTOpt = true
	runAblation(b, pr, milp.Options{})
}

// BenchmarkAblationBigM replaces SOS1 branching with big-M indicator rows
// (DESIGN.md ablation 2).
func BenchmarkAblationBigM(b *testing.B) {
	pr := figure1Problem()
	pr.BigMComplementarity = 1000
	runAblation(b, pr, milp.Options{})
}

// BenchmarkAblationLiteral uses the paper-literal big-M pinning rows inside
// the heuristic's inner LP instead of the phase-2 decomposition.
func BenchmarkAblationLiteral(b *testing.B) {
	pr := figure1Problem()
	pr.LiteralEncoding = true
	runAblation(b, pr, milp.Options{})
}

// BenchmarkAblationNoPolish disables the direct-solver primal heuristic.
func BenchmarkAblationNoPolish(b *testing.B) {
	pr := figure1Problem()
	pr.DisablePolish = true
	runAblation(b, pr, milp.Options{})
}

// BenchmarkAblationQuantized quantizes demands to a 5-level grid
// (Section 5's speedup idea; DESIGN.md ablation 4).
func BenchmarkAblationQuantized(b *testing.B) {
	pr := figure1Problem()
	pr.Input.Levels = []float64{0, 25, 50, 75, 100}
	runAblation(b, pr, milp.Options{})
}

// BenchmarkAblationBestFirst switches node selection from depth-first to
// best-bound (DESIGN.md ablation 5).
func BenchmarkAblationBestFirst(b *testing.B) {
	runAblation(b, figure1Problem(), milp.Options{DepthFirst: false})
}

// BenchmarkAblationPOPTail prices the POP tail-percentile mode (sorting
// network) against the expectation mode on the same instance.
func BenchmarkAblationPOPTail(b *testing.B) {
	g := topology.Line(3)
	set := demand.NewSet([]demand.Pair{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 2}})
	inst, err := mcf.NewInstance(g, set, 1)
	if err != nil {
		b.Fatal(err)
	}
	worst := 0.0
	for i := 0; i < b.N; i++ {
		pr := &core.POPGapProblem{
			Inst: inst, Partitions: 2, Instantiations: 3,
			Rng:            rand.New(rand.NewSource(5)),
			TailPercentile: &worst,
			Input:          core.InputConstraints{MaxDemand: 100},
		}
		if _, err := pr.Solve(milp.Options{TimeLimit: 700 * time.Millisecond, DepthFirst: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// metaProblem builds a DP gap search big enough for warm starts to show:
// B4 with 12 demand pairs yields 70+ SOS pairs, and MaxNodes bounds the
// run.
func metaProblem(b *testing.B) *core.DPGapProblem {
	b.Helper()
	g := topology.B4()
	set := demand.RandomPairs(g, 12, rand.New(rand.NewSource(7)))
	inst, err := mcf.NewInstance(g, set, 2)
	if err != nil {
		b.Fatal(err)
	}
	pr := &core.DPGapProblem{
		Inst: inst, Threshold: 5,
		Input: core.InputConstraints{MaxDemand: 100},
	}
	st, err := pr.Stats()
	if err != nil {
		b.Fatal(err)
	}
	if st.SOSPairs < 64 {
		b.Fatalf("meta problem too small for the warm-start bench: %d SOS pairs, want >= 64", st.SOSPairs)
	}
	return pr
}

func runWarmStartBench(b *testing.B, warm bool) {
	pr := metaProblem(b)
	opts := milp.Options{MaxNodes: 64, WarmStart: warm}
	iters := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pr.Solve(opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Solver.Nodes == 0 {
			b.Fatal("search explored no nodes")
		}
		if warm && res.Solver.WarmLPSolves == 0 {
			b.Fatal("warm-start bench took zero warm solves")
		}
		iters += res.Solver.LPIters
	}
	b.ReportMetric(float64(iters)/float64(b.N), "lp_iters/op")
}

// BenchmarkBnBWarmStartOff is the cold-resolve reference for the warm-start
// comparison: the meta problem searched with every node
// relaxation solved from scratch by the two-phase simplex.
func BenchmarkBnBWarmStartOff(b *testing.B) { runWarmStartBench(b, false) }

// BenchmarkBnBWarmStartOn runs the identical search with each child node
// warm-started from its parent's optimal basis. The explored tree, incumbent
// and bound are bit-identical to the cold run (internal/milp's warm tests
// prove it); compare the lp_iters/op metric against BenchmarkBnBWarmStartOff
// for the pivot-count savings (>= 2x expected; see EXPERIMENTS.md).
func BenchmarkBnBWarmStartOn(b *testing.B) { runWarmStartBench(b, true) }

// --- substrate microbenchmarks ---

func b4Instance(b *testing.B) *mcf.Instance {
	b.Helper()
	g := topology.B4()
	set := demand.AllPairs(g)
	set.Uniform(rand.New(rand.NewSource(3)), 0, 30)
	inst, err := mcf.NewInstance(g, set, 2)
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// BenchmarkSimplexMaxFlowB4 solves the full 132-demand B4 max-flow LP.
func BenchmarkSimplexMaxFlowB4(b *testing.B) {
	inst := b4Instance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcf.SolveMaxFlow(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDemandPinningB4 runs the two-phase DP heuristic on full B4.
func BenchmarkDemandPinningB4(b *testing.B) {
	inst := b4Instance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcf.SolveDemandPinning(inst, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPOPB4 runs POP with 2 partitions on full B4 — the speedup over
// BenchmarkSimplexMaxFlowB4 is the heuristic's reason to exist.
func BenchmarkPOPB4(b *testing.B) {
	inst := b4Instance(b)
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcf.SolvePOP(inst, mcf.POPOptions{Partitions: 2, Rng: rng}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKShortestPathsB4 computes 4 paths for every B4 pair.
func BenchmarkKShortestPathsB4(b *testing.B) {
	g := topology.B4()
	for i := 0; i < b.N; i++ {
		for s := 0; s < g.NumNodes(); s++ {
			for t := 0; t < g.NumNodes(); t++ {
				if s != t {
					g.KShortestPaths(topology.Node(s), topology.Node(t), 4)
				}
			}
		}
	}
}

// BenchmarkBlackboxEvalDP measures one black-box gap evaluation (the unit
// of work Figure 3's baselines spend their budget on).
func BenchmarkBlackboxEvalDP(b *testing.B) {
	inst := b4Instance(b)
	gap := blackbox.DPGap(inst, 5)
	d := inst.Demands.CopyVolumes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gap(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBnBTracerDisabled is the observability-overhead reference: the
// same search as BenchmarkAblationBaseline with no tracer attached, so every
// instrumentation site reduces to one nil check. Compare against
// BenchmarkBnBTracerFull to bound the cost of tracing; the two must stay
// within noise of each other and of the baseline (the disabled path does not
// allocate — internal/obs TestDisabledEmitDoesNotAllocate proves it).
func BenchmarkBnBTracerDisabled(b *testing.B) {
	runAblation(b, figure1Problem(), milp.Options{Tracer: nil})
}

// BenchmarkBnBTracerFull runs with the full sink stack a CLI would attach:
// JSONL encoding (to io.Discard) plus a metrics sink on a private registry.
func BenchmarkBnBTracerFull(b *testing.B) {
	tr := obs.NewTracer(obs.NewJSONLWriter(io.Discard), obs.NewMetricsSink(obs.NewRegistry()))
	runAblation(b, figure1Problem(), milp.Options{Tracer: tr})
}
