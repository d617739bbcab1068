package main

// The canonical benchmark fixtures. Every fixture is deterministic: node
// budgets (MaxNodes) bound the searches instead of wall-clock budgets, all
// randomness flows from the harness seed through fixed documented offsets,
// and no fixture sets TimeLimit or StallWindow. The wall-clock-budgeted
// experiments (Figure 3's gap-vs-time race, the Figure 4-6 sweeps) are
// deliberately absent — their explored trees depend on machine speed, so
// they cannot be gated; `go test -bench` still covers them for eyeballing.
//
// With the default seed (1) the derived seeds reproduce the documented
// numbers: the warm/parallel meta problem uses demand seed 7 (matching
// bench_test.go's parallelMetaProblem) and the smoke fixture uses demand
// seed 5 (matching the CI smoke run of cmd/gapfinder).

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/benchstore"
	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/experiments"
	"repro/internal/mcf"
	"repro/internal/milp"
	"repro/internal/obs"
	"repro/internal/topology"
)

// runOutcome is what one fixture execution reports back to the harness:
// the solver's search fingerprint plus fixture-level deterministic
// counters. The harness adds obs registry deltas, histograms, and timing.
type runOutcome struct {
	fingerprint uint64
	hard        []benchstore.Counter
}

type fixture struct {
	name string
	desc string
	run  func(seed int64, tr *obs.Tracer) (*runOutcome, error)
	// registrySoft marks fixtures whose obs-registry deltas are not exactly
	// reproducible and must be recorded as soft metrics. No canonical
	// fixture sets it today: the polish price cache used to tolerate a
	// benign race where two workers priced the same fresh demand vector,
	// costing an extra registry-counted LP solve on some schedules, but
	// priceCache (core/dp.go) now single-flights fresh keys, so the raw LP
	// call count equals the set of unique demand vectors and is
	// schedule-independent. The field stays for future fixtures whose
	// registry deltas are genuinely nondeterministic (the one remaining
	// cache caveat — FIFO eviction past the entry cap — would qualify, but
	// canonical workloads stay far under it).
	registrySoft bool
}

// fixtures returns the canonical suite in display order (main sorts them
// before writing, so order here is cosmetic).
func fixtures() []fixture {
	return []fixture{
		{
			name: "figure1",
			desc: "motivating example end to end: two LP solves, gap must be exactly 100",
			run:  runFigure1,
		},
		{
			name: "figure2_kkt",
			desc: "rectangle example's LP analog through the full KKT machinery",
			run:  runFigure2,
		},
		{
			name: "ablation_baseline",
			desc: "figure-1 DP gap search, reference configuration (phase-2 encoding, SOS branching, polish)",
			run:  ablationFixture(func(pr *core.DPGapProblem, o *milp.Options) {}),
		},
		{
			name: "ablation_kkt_opt",
			desc: "OPT side certified with a full KKT system instead of primal-only",
			run:  ablationFixture(func(pr *core.DPGapProblem, o *milp.Options) { pr.FullKKTOpt = true }),
		},
		{
			name: "ablation_bigm",
			desc: "big-M indicator rows instead of SOS1 branching",
			run:  ablationFixture(func(pr *core.DPGapProblem, o *milp.Options) { pr.BigMComplementarity = 1000 }),
		},
		{
			name: "ablation_quantized",
			desc: "demands quantized to a 5-level grid",
			run: ablationFixture(func(pr *core.DPGapProblem, o *milp.Options) {
				pr.Input.Levels = []float64{0, 25, 50, 75, 100}
			}),
		},
		{
			name: "ablation_depth_first",
			desc: "depth-first node order instead of best-bound",
			run:  ablationFixture(func(pr *core.DPGapProblem, o *milp.Options) { o.DepthFirst = true }),
		},
		{
			name: "warm_off",
			desc: "B4 meta problem (12 pairs), serial, Batch 8, 64 nodes, cold LP resolves",
			run:  metaFixture(1, false),
		},
		{
			name: "warm_on",
			desc: "identical tree to warm_off, node LPs warm-started from the parent basis",
			run:  metaFixture(1, true),
		},
		{
			name: "parallel_w4",
			desc: "identical tree to warm_off solved by 4 wave workers (solver counters must match warm_off)",
			// Registry deltas gate hard since the polish price cache went
			// single-flight: every unique demand vector prices exactly once
			// regardless of worker schedule, so even the raw LP-call
			// counters reproduce bit-for-bit at w=4.
			run: metaFixture(4, false),
		},
		{
			name: "smoke_b4_dp",
			desc: "the CI gate: B4, dp heuristic, 4 pairs, searched to optimality with warm starts",
			run:  runSmoke,
		},
	}
}

// gapMilli converts a verified gap to an exact integer counter (milli-units)
// so it gates as a hard metric: the found adversarial gap is part of the
// determinism contract, and a change is a correctness signal, not noise.
func gapMilli(gap float64) int64 { return int64(math.Round(gap * 1000)) }

// solverCounters flattens a gap-search result into the fixture's hard
// counters.
func solverCounters(res *core.Result) []benchstore.Counter {
	out := []benchstore.Counter{{Name: "gap_milli", Value: gapMilli(res.Gap)}}
	if s := res.Solver; s != nil {
		out = append(out,
			benchstore.Counter{Name: "nodes", Value: int64(s.Nodes)},
			benchstore.Counter{Name: "lp_solves", Value: int64(s.LPSolves)},
			benchstore.Counter{Name: "lp_iters", Value: int64(s.LPIters)},
			benchstore.Counter{Name: "warm_lp_solves", Value: int64(s.WarmLPSolves)},
			benchstore.Counter{Name: "warm_lp_fallbacks", Value: int64(s.WarmLPFallbacks)},
		)
	}
	return out
}

func runFigure1(seed int64, tr *obs.Tracer) (*runOutcome, error) {
	r, err := experiments.Figure1()
	if err != nil {
		return nil, err
	}
	if gapMilli(r.Gap) != 100_000 {
		return nil, fmt.Errorf("figure1: gap %v, want 100", r.Gap)
	}
	return &runOutcome{hard: []benchstore.Counter{{Name: "gap_milli", Value: gapMilli(r.Gap)}}}, nil
}

func runFigure2(seed int64, tr *obs.Tracer) (*runOutcome, error) {
	if err := experiments.Figure2LinearAnalog(); err != nil {
		return nil, err
	}
	return &runOutcome{}, nil
}

// figure1Problem mirrors bench_test.go: the small DP gap problem on the
// motivating topology, provably optimal in well under a second.
func figure1Problem() (*core.DPGapProblem, error) {
	g := topology.Figure1()
	set := demand.NewSet([]demand.Pair{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 2}})
	inst, err := mcf.NewInstance(g, set, 2)
	if err != nil {
		return nil, err
	}
	return &core.DPGapProblem{
		Inst: inst, Threshold: 50,
		Input: core.InputConstraints{MaxDemand: 100},
	}, nil
}

func ablationFixture(mutate func(*core.DPGapProblem, *milp.Options)) func(int64, *obs.Tracer) (*runOutcome, error) {
	return func(seed int64, tr *obs.Tracer) (*runOutcome, error) {
		pr, err := figure1Problem()
		if err != nil {
			return nil, err
		}
		opts := milp.Options{Tracer: tr}
		mutate(pr, &opts)
		res, err := pr.Solve(opts)
		if err != nil {
			return nil, err
		}
		if res.Solver.Status != milp.StatusOptimal || res.Gap < 99.99 {
			return nil, fmt.Errorf("ablation: status=%v gap=%v, want optimal with gap >= 99.99", res.Solver.Status, res.Gap)
		}
		return &runOutcome{fingerprint: res.Solver.Fingerprint, hard: solverCounters(res)}, nil
	}
}

// metaProblem mirrors bench_test.go's parallelMetaProblem: B4 with 12
// random demand pairs (demand seed = harness seed + 6, i.e. 7 by default)
// gives 70+ SOS pairs, enough simplex work per wave for parallelism and
// warm starts to show.
func metaProblem(seed int64) (*core.DPGapProblem, error) {
	g := topology.B4()
	set := demand.RandomPairs(g, 12, rand.New(rand.NewSource(seed+6)))
	inst, err := mcf.NewInstance(g, set, 2)
	if err != nil {
		return nil, err
	}
	pr := &core.DPGapProblem{
		Inst: inst, Threshold: 5,
		Input: core.InputConstraints{MaxDemand: 100},
	}
	st, err := pr.Stats()
	if err != nil {
		return nil, err
	}
	if st.SOSPairs < 64 {
		return nil, fmt.Errorf("meta problem too small: %d SOS pairs, want >= 64", st.SOSPairs)
	}
	return pr, nil
}

func metaFixture(workers int, warm bool) func(int64, *obs.Tracer) (*runOutcome, error) {
	return func(seed int64, tr *obs.Tracer) (*runOutcome, error) {
		pr, err := metaProblem(seed)
		if err != nil {
			return nil, err
		}
		opts := milp.Options{Workers: workers, Batch: 8, MaxNodes: 64, WarmStart: warm, Tracer: tr}
		res, err := pr.Solve(opts)
		if err != nil {
			return nil, err
		}
		if res.Solver.Nodes == 0 {
			return nil, fmt.Errorf("meta search explored no nodes")
		}
		if warm && res.Solver.WarmLPSolves == 0 {
			return nil, fmt.Errorf("warm-start fixture took zero warm solves")
		}
		return &runOutcome{fingerprint: res.Solver.Fingerprint, hard: solverCounters(res)}, nil
	}
}

// runSmoke is the CI gate fixture: the same search the workflow's smoke job
// drives through cmd/gapfinder (B4, dp, 4 pairs, demand seed = harness seed
// + 4 → 5 by default, threshold 5), run to proven optimality with warm
// starts on. Nodes and lp_iters from this fixture are the regression gate;
// dives counts the node LPs that started from their parent's tableau.
func runSmoke(seed int64, tr *obs.Tracer) (*runOutcome, error) {
	g := topology.B4()
	set := demand.RandomPairs(g, 4, rand.New(rand.NewSource(seed+4)))
	inst, err := mcf.NewInstance(g, set, 2)
	if err != nil {
		return nil, err
	}
	pr := &core.DPGapProblem{
		Inst: inst, Threshold: 5,
		Input: core.InputConstraints{MaxDemand: 100},
	}
	opts := milp.Options{DepthFirst: true, WarmStart: true, Workers: 1, Tracer: tr}
	res, err := pr.Solve(opts)
	if err != nil {
		return nil, err
	}
	if res.Solver.Status != milp.StatusOptimal {
		return nil, fmt.Errorf("smoke: status %v, want optimal", res.Solver.Status)
	}
	hard := append(solverCounters(res), benchstore.Counter{Name: "dives", Value: int64(res.Solver.Dives)})
	return &runOutcome{fingerprint: res.Solver.Fingerprint, hard: hard}, nil
}
