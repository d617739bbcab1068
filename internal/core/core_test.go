package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/demand"
	"repro/internal/mcf"
	"repro/internal/milp"
	"repro/internal/topology"
)

const eps = 1e-4

func almost(a, b float64) bool { return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b)) }

func figure1Instance(t *testing.T) *mcf.Instance {
	t.Helper()
	g := topology.Figure1()
	set := demand.NewSet([]demand.Pair{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 2}})
	inst, err := mcf.NewInstance(g, set, 2)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestDPGapFigure1 is the paper's headline scenario run through the full
// white-box pipeline: on the Figure-1 topology with threshold 50 and
// demands bounded by 100, the worst-case gap is exactly 100 (achieved by
// d = (100, 100, 50)); the meta optimization must find and prove it.
func TestDPGapFigure1(t *testing.T) {
	pr := &DPGapProblem{
		Inst:      figure1Instance(t),
		Threshold: 50,
		Input:     InputConstraints{MaxDemand: 100},
	}
	res, err := pr.Solve(milp.Options{MaxNodes: 200000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver.Status != milp.StatusOptimal {
		t.Fatalf("status=%v (bound %v, incumbent %v)", res.Solver.Status, res.Solver.Bound, res.Solver.Objective)
	}
	if !almost(res.Gap, 100) {
		t.Fatalf("gap=%v, want 100", res.Gap)
	}
	if !almost(res.ModelGap, res.Gap) {
		t.Fatalf("model gap %v != verified gap %v", res.ModelGap, res.Gap)
	}
	// The discovered pinned demand must sit at the threshold.
	if !almost(res.Demands[2], 50) {
		t.Fatalf("adversarial demands %v, want d[2]=50", res.Demands)
	}
	if !almost(res.OptValue, 250) || !almost(res.HeurValue, 150) {
		t.Fatalf("OPT=%v DP=%v, want 250/150", res.OptValue, res.HeurValue)
	}
}

// TestDPGapMatchesBruteForceOnLevels quantizes demands to a small grid and
// compares the white-box optimum against exhaustive enumeration.
func TestDPGapMatchesBruteForceOnLevels(t *testing.T) {
	inst := figure1Instance(t)
	levels := []float64{0, 25, 50, 75, 100}
	pr := &DPGapProblem{
		Inst:      inst,
		Threshold: 50,
		Input:     InputConstraints{MaxDemand: 100, Levels: levels},
	}
	res, err := pr.Solve(milp.Options{MaxNodes: 400000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver.Status != milp.StatusOptimal {
		t.Fatalf("status=%v", res.Solver.Status)
	}

	best := math.Inf(-1)
	var vols [3]float64
	var rec func(k int)
	rec = func(k int) {
		if k == 3 {
			at := inst.WithVolumes(vols[:])
			if !mcf.DemandPinningFeasible(at, 50) {
				return
			}
			opt, err := mcf.SolveMaxFlow(at)
			if err != nil {
				t.Fatal(err)
			}
			dp, err := mcf.SolveDemandPinning(at, 50)
			if err != nil {
				t.Fatal(err)
			}
			if g := opt.Total - dp.Total; g > best {
				best = g
			}
			return
		}
		for _, lv := range levels {
			vols[k] = lv
			rec(k + 1)
		}
	}
	rec(0)
	if !almost(res.Gap, best) {
		t.Fatalf("whitebox gap %v != brute force %v", res.Gap, best)
	}
}

func TestDPGapRespectsGoalpost(t *testing.T) {
	// Lock every demand within 5 units of (20, 20, 20): the pinned demand
	// can be at most 25 <= threshold 50, so DP pins everything it can and
	// the reachable gap shrinks drastically versus the unconstrained 100.
	pr := &DPGapProblem{
		Inst:      figure1Instance(t),
		Threshold: 50,
		Input: InputConstraints{
			MaxDemand: 100,
			Goalposts: []Goalpost{{Reference: []float64{20, 20, 20}, MaxAbsDev: 5}},
		},
	}
	res, err := pr.Solve(milp.Options{MaxNodes: 200000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver.Status != milp.StatusOptimal {
		t.Fatalf("status=%v", res.Solver.Status)
	}
	for k, d := range res.Demands {
		if d < 15-eps || d > 25+eps {
			t.Fatalf("demand %d = %v escaped goalpost [15,25]", k, d)
		}
	}
	if res.Gap > 60 {
		t.Fatalf("gap=%v unexpectedly large under tight goalpost", res.Gap)
	}
	if !almost(res.ModelGap, res.Gap) {
		t.Fatalf("model gap %v != verified %v", res.ModelGap, res.Gap)
	}
}

func TestDPGapPartialGoalpost(t *testing.T) {
	// NaN reference entries leave demands free: constraining only d0 must
	// still allow the pinned demand to reach the threshold.
	pr := &DPGapProblem{
		Inst:      figure1Instance(t),
		Threshold: 50,
		Input: InputConstraints{
			MaxDemand: 100,
			Goalposts: []Goalpost{{Reference: []float64{80, math.NaN(), math.NaN()}, MaxAbsDev: 1}},
		},
	}
	res, err := pr.Solve(milp.Options{MaxNodes: 200000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Demands[0] < 79-eps || res.Demands[0] > 81+eps {
		t.Fatalf("d0=%v escaped [79,81]", res.Demands[0])
	}
	if res.Demands[2] < 45 {
		t.Fatalf("free demand d2=%v should approach threshold", res.Demands[2])
	}
}

func TestDPGapIntraInputConstraint(t *testing.T) {
	// All demands within 1 of the mean: pinned and unpinned demands must be
	// nearly equal, which caps the gap well below the free optimum of 100.
	pr := &DPGapProblem{
		Inst:      figure1Instance(t),
		Threshold: 50,
		Input:     InputConstraints{MaxDemand: 100, MaxDevFromMean: 1},
	}
	res, err := pr.Solve(milp.Options{MaxNodes: 300000})
	if err != nil {
		t.Fatal(err)
	}
	mean := (res.Demands[0] + res.Demands[1] + res.Demands[2]) / 3
	for k, d := range res.Demands {
		if math.Abs(d-mean) > 1+eps {
			t.Fatalf("demand %d = %v deviates from mean %v by > 1", k, d, mean)
		}
	}
	if res.Gap >= 100 {
		t.Fatalf("gap=%v should be strictly below unconstrained 100", res.Gap)
	}
}

func TestDPGapExclusionFindsDiverseInput(t *testing.T) {
	inst := figure1Instance(t)
	base := &DPGapProblem{Inst: inst, Threshold: 50, Input: InputConstraints{MaxDemand: 100}}
	first, err := base.Solve(milp.Options{MaxNodes: 200000})
	if err != nil {
		t.Fatal(err)
	}
	second := &DPGapProblem{
		Inst: inst, Threshold: 50,
		Input: InputConstraints{
			MaxDemand:       100,
			Exclusions:      [][]float64{first.Demands},
			ExclusionRadius: 10,
		},
	}
	res, err := second.Solve(milp.Options{MaxNodes: 400000})
	if err != nil {
		t.Fatal(err)
	}
	maxDev := 0.0
	for k := range res.Demands {
		if d := math.Abs(res.Demands[k] - first.Demands[k]); d > maxDev {
			maxDev = d
		}
	}
	if maxDev < 10-eps {
		t.Fatalf("second input %v too close to first %v", res.Demands, first.Demands)
	}
}

func TestDPGapAblationsAgree(t *testing.T) {
	inst := figure1Instance(t)
	base := &DPGapProblem{Inst: inst, Threshold: 50, Input: InputConstraints{MaxDemand: 100}}
	want, err := base.Solve(milp.Options{MaxNodes: 200000})
	if err != nil {
		t.Fatal(err)
	}
	fullKKT := &DPGapProblem{Inst: inst, Threshold: 50,
		Input: InputConstraints{MaxDemand: 100}, FullKKTOpt: true}
	got, err := fullKKT.Solve(milp.Options{MaxNodes: 400000})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got.Gap, want.Gap) {
		t.Fatalf("full-KKT OPT gap %v != primal-only gap %v", got.Gap, want.Gap)
	}
	if got.Stats.SOSPairs <= want.Stats.SOSPairs {
		t.Fatalf("full KKT should add pairs: %d vs %d", got.Stats.SOSPairs, want.Stats.SOSPairs)
	}
	bigM := &DPGapProblem{Inst: inst, Threshold: 50,
		Input: InputConstraints{MaxDemand: 100}, BigMComplementarity: 1000}
	got2, err := bigM.Solve(milp.Options{MaxNodes: 400000})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got2.Gap, want.Gap) {
		t.Fatalf("big-M gap %v != SOS gap %v", got2.Gap, want.Gap)
	}
	if got2.Stats.SOSPairs != 0 {
		t.Fatalf("big-M mode left %d pairs", got2.Stats.SOSPairs)
	}
}

func TestDPGapValidation(t *testing.T) {
	inst := figure1Instance(t)
	bad := []*DPGapProblem{
		{Inst: inst, Threshold: 50, Input: InputConstraints{}},
		{Inst: inst, Threshold: 50, Input: InputConstraints{MaxDemand: 10, MinDemand: 20}},
		{Inst: inst, Threshold: 50, Input: InputConstraints{MaxDemand: 10,
			Goalposts: []Goalpost{{Reference: []float64{1}, MaxAbsDev: 1}}}},
		{Inst: inst, Threshold: 50, Input: InputConstraints{MaxDemand: 10,
			Goalposts: []Goalpost{{Reference: []float64{1, 1, 1}}}}},
		{Inst: inst, Threshold: 50, Input: InputConstraints{MaxDemand: 10, Levels: []float64{20}}},
		{Inst: inst, Threshold: 50, Input: InputConstraints{MaxDemand: 10,
			Exclusions: [][]float64{{1, 1, 1}}}},
	}
	for i, pr := range bad {
		if _, err := pr.Solve(milp.Options{}); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestDPStatsCountsSides(t *testing.T) {
	inst := figure1Instance(t)
	pr := &DPGapProblem{Inst: inst, Threshold: 50, Input: InputConstraints{MaxDemand: 100}}
	st, err := pr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.SOSPairs == 0 || st.Binaries != 3 || st.Vars == 0 || st.LinearCons == 0 {
		t.Fatalf("stats=%+v", st)
	}
}

// popLineInstance: 3-node line, three demands, single path each — small
// enough to brute force.
func popLineInstance(t *testing.T) *mcf.Instance {
	t.Helper()
	g := topology.Line(3)
	set := demand.NewSet([]demand.Pair{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 2}})
	inst, err := mcf.NewInstance(g, set, 1)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestPOPGapSingleInstantiationMatchesBruteForce(t *testing.T) {
	inst := popLineInstance(t)
	assign := []int{0, 0, 1} // demands 0,1 in partition 0; demand 2 in partition 1
	levels := []float64{0, 50, 100}
	pr := &POPGapProblem{
		Inst:           inst,
		Partitions:     2,
		Instantiations: 1,
		Assignments:    [][]int{assign},
		Input:          InputConstraints{MaxDemand: 100, Levels: levels},
	}
	res, err := pr.Solve(milp.Options{MaxNodes: 500000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver.Status != milp.StatusOptimal {
		t.Fatalf("status=%v", res.Solver.Status)
	}

	best := math.Inf(-1)
	var vols [3]float64
	var rec func(k int)
	rec = func(k int) {
		if k == 3 {
			opt, pop, err := mcf.NewPricer(inst).POPGap(vols[:], [][]int{assign}, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			if g := opt - pop; g > best {
				best = g
			}
			return
		}
		for _, lv := range levels {
			vols[k] = lv
			rec(k + 1)
		}
	}
	rec(0)
	if !almost(res.Gap, best) {
		t.Fatalf("whitebox POP gap %v != brute force %v", res.Gap, best)
	}
	if !almost(res.ModelGap, res.Gap) {
		t.Fatalf("model gap %v != verified %v", res.ModelGap, res.Gap)
	}
}

func TestPOPGapExpectationMode(t *testing.T) {
	inst := popLineInstance(t)
	pr := &POPGapProblem{
		Inst:           inst,
		Partitions:     2,
		Instantiations: 3,
		Rng:            rand.New(rand.NewSource(17)),
		Input:          InputConstraints{MaxDemand: 100},
	}
	res, err := pr.Solve(milp.Options{MaxNodes: 300000, DepthFirst: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Demands == nil {
		t.Fatalf("no incumbent: %v", res.Solver.Status)
	}
	if res.Gap < -eps {
		t.Fatalf("negative verified gap %v", res.Gap)
	}
	if !almost(res.ModelGap, res.Gap) {
		t.Fatalf("model gap %v != verified %v (expectation over 3 instantiations)", res.ModelGap, res.Gap)
	}
}

func TestPOPGapTailMode(t *testing.T) {
	inst := popLineInstance(t)
	worst := 0.0
	pr := &POPGapProblem{
		Inst:           inst,
		Partitions:     2,
		Instantiations: 3,
		Rng:            rand.New(rand.NewSource(23)),
		TailPercentile: &worst,
		Input:          InputConstraints{MaxDemand: 100, Levels: []float64{0, 50, 100}},
	}
	res, err := pr.Solve(milp.Options{MaxNodes: 500000, DepthFirst: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Demands == nil {
		t.Fatalf("no incumbent: %v", res.Solver.Status)
	}
	if !almost(res.ModelGap, res.Gap) {
		t.Fatalf("model gap %v != verified tail gap %v", res.ModelGap, res.Gap)
	}
	// Tail-worst gap dominates the expectation gap for the same input.
	prE := &POPGapProblem{
		Inst: inst, Partitions: 2, Instantiations: 3,
		Assignments: pr.Assignments, Rng: rand.New(rand.NewSource(23)),
		Input: InputConstraints{MaxDemand: 100},
	}
	_ = prE
	var totals []float64 // the per-instantiation POP totals, taken by the descriptor
	_, _, err = mcf.NewPricer(inst).POPGap(res.Demands, popAssignmentsUsed(t, pr), 2,
		func(ts []float64) float64 { totals = ts; return 0 })
	if err != nil {
		t.Fatal(err)
	}
	minTotal := totals[0]
	mean := 0.0
	for _, v := range totals {
		if v < minTotal {
			minTotal = v
		}
		mean += v
	}
	mean /= float64(len(totals))
	if minTotal > mean+eps {
		t.Fatalf("min %v > mean %v", minTotal, mean)
	}
}

// popAssignmentsUsed re-derives the assignments a POPGapProblem drew from
// its seeded rng (the draw consumes the generator in build()).
func popAssignmentsUsed(t *testing.T, pr *POPGapProblem) [][]int {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	n := pr.Inst.Demands.Len()
	out := make([][]int, pr.Instantiations)
	for i := range out {
		out[i] = mcf.RandomAssignment(n, pr.Partitions, rng)
	}
	return out
}

func TestPOPGapValidation(t *testing.T) {
	inst := popLineInstance(t)
	bad := []*POPGapProblem{
		{Inst: inst, Partitions: 0, Input: InputConstraints{MaxDemand: 10}},
		{Inst: inst, Partitions: 2, Input: InputConstraints{MaxDemand: 10}}, // no rng or assignments
		{Inst: inst, Partitions: 2, Instantiations: 2, Assignments: [][]int{{0, 0, 1}},
			Input: InputConstraints{MaxDemand: 10}},
		{Inst: inst, Partitions: 2, Instantiations: 1, Assignments: [][]int{{0, 0}},
			Input: InputConstraints{MaxDemand: 10}},
	}
	for i, pr := range bad {
		if _, err := pr.Solve(milp.Options{}); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestPOPTransferGapRuns(t *testing.T) {
	inst := popLineInstance(t)
	gap, err := POPTransferGap(inst, []float64{50, 50, 50}, 2, 5, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if gap < -eps {
		t.Fatalf("transfer gap %v negative", gap)
	}
}

func TestDPGapHoseConstraint(t *testing.T) {
	// Figure 1 with a hose bound on node 0's egress: d(0->1) + d(0->2) <= 60.
	// The unconstrained worst case (100, 100, 50) violates it; under the
	// hose the gap must shrink and the found input must satisfy the bound.
	inst := figure1Instance(t)
	pr := &DPGapProblem{
		Inst:      inst,
		Threshold: 50,
		Input: InputConstraints{
			MaxDemand: 100,
			Hose: &HoseConstraint{
				Egress: []float64{60, 0, 0}, // only node 0 bounded
			},
		},
	}
	res, err := pr.Solve(milp.Options{MaxNodes: 300000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver.Status != milp.StatusOptimal {
		t.Fatalf("status=%v", res.Solver.Status)
	}
	// Demands 0 (0->1) and 2 (0->2) leave node 0.
	if tot := res.Demands[0] + res.Demands[2]; tot > 60+eps {
		t.Fatalf("hose violated: node-0 egress %v > 60", tot)
	}
	if res.Gap >= 100 {
		t.Fatalf("gap=%v should be strictly below the unconstrained 100", res.Gap)
	}
	if !almost(res.ModelGap, res.Gap) {
		t.Fatalf("model gap %v != verified %v", res.ModelGap, res.Gap)
	}
}

func TestHoseValidation(t *testing.T) {
	inst := figure1Instance(t)
	pr := &DPGapProblem{
		Inst: inst, Threshold: 50,
		Input: InputConstraints{
			MaxDemand: 100,
			Hose:      &HoseConstraint{Egress: []float64{60}, Pairs: []demand.Pair{{Src: 0, Dst: 1}}},
		},
	}
	if _, err := pr.Solve(milp.Options{}); err == nil {
		t.Fatal("expected error for mismatched hose pairs")
	}
}

func TestSanitizeRespectsHose(t *testing.T) {
	ic := InputConstraints{
		MaxDemand: 100,
		Hose: &HoseConstraint{
			Egress: []float64{50, 0, 0},
			Pairs:  []demand.Pair{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 2}},
		},
	}
	if _, ok := ic.sanitize([]float64{40, 10, 40}); ok {
		t.Fatal("sanitize accepted a hose-violating vector")
	}
	if _, ok := ic.sanitize([]float64{20, 10, 20}); !ok {
		t.Fatal("sanitize rejected a hose-feasible vector")
	}
}

// TestQuickDPWhiteboxMatchesBruteForceRandom generalizes the Figure-1
// brute-force comparison: on random small topologies and demand supports,
// the quantized white-box optimum must match exhaustive enumeration.
func TestQuickDPWhiteboxMatchesBruteForceRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("brute force comparison is slow")
	}
	levels := []float64{0, 50, 100}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var g *topology.Graph
		switch seed % 3 {
		case 0:
			g = topology.Line(3)
		case 1:
			g = topology.Figure1()
		default:
			g = topology.Circle(4, 1)
		}
		set := demand.RandomPairs(g, 3, rng)
		inst, err := mcf.NewInstance(g, set, 2)
		if err != nil {
			t.Fatal(err)
		}
		threshold := 25 + rng.Float64()*50
		pr := &DPGapProblem{
			Inst:      inst,
			Threshold: threshold,
			Input:     InputConstraints{MaxDemand: 100, Levels: levels},
		}
		res, err := pr.Solve(milp.Options{MaxNodes: 500000})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Solver.Status != milp.StatusOptimal {
			t.Fatalf("seed %d: status %v", seed, res.Solver.Status)
		}

		best := -1.0
		n := set.Len()
		vols := make([]float64, n)
		var rec func(k int)
		rec = func(k int) {
			if k == n {
				at := inst.WithVolumes(vols)
				if !mcf.DemandPinningFeasible(at, threshold) {
					return
				}
				opt, err := mcf.SolveMaxFlow(at)
				if err != nil {
					t.Fatal(err)
				}
				dp, err := mcf.SolveDemandPinning(at, threshold)
				if err != nil {
					t.Fatal(err)
				}
				if gp := opt.Total - dp.Total; gp > best {
					best = gp
				}
				return
			}
			for _, lv := range levels {
				vols[k] = lv
				rec(k + 1)
			}
		}
		rec(0)
		if !almost(res.Gap, best) {
			t.Fatalf("seed %d (%s, T=%.1f): whitebox %v != brute force %v",
				seed, g.Name(), threshold, res.Gap, best)
		}
	}
}
