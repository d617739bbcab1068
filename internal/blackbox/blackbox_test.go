package blackbox

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/demand"
	"repro/internal/mcf"
	"repro/internal/topology"
)

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

func defaultOpts(seed int64) Options {
	return Options{
		MaxDemand: 100,
		Sigma:     10, // 10% of link capacity, as in the paper
		K:         100,
		Restarts:  6,
		Rng:       rand.New(rand.NewSource(seed)),
	}
}

func TestDPGapFuncMatchesDirectSolvers(t *testing.T) {
	inst := figure1Instance(t)
	gap := DPGap(inst, 50)
	g, err := gap([]float64{100, 100, 50})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-100) > 1e-5 {
		t.Fatalf("gap=%v, want 100", g)
	}
	// Infeasible pinning maps to -Inf, not an error: with threshold 60,
	// demands 0->1: 60 and 0->2: 60 are both pinned and share edge 0->1
	// (capacity 100).
	gap60 := DPGap(inst, 60)
	g, err = gap60([]float64{60, 0, 60})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(g, -1) {
		t.Fatalf("infeasible input gap=%v, want -Inf", g)
	}
}

func TestHillClimbFindsPositiveGapOnFigure1(t *testing.T) {
	inst := figure1Instance(t)
	res, err := HillClimb(DPGap(inst, 50), 3, defaultOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Gap <= 0 {
		t.Fatalf("hill climbing found no positive gap (%v)", res.Gap)
	}
	if res.Gap > 100+1e-6 {
		t.Fatalf("gap %v exceeds the known optimum 100", res.Gap)
	}
	if res.Evals == 0 || res.Demands == nil {
		t.Fatalf("result incomplete: %+v", res)
	}
	// Trace must be nondecreasing in gap and time.
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].Gap < res.Trace[i-1].Gap {
			t.Fatalf("trace regressed at %d", i)
		}
		if res.Trace[i].Elapsed < res.Trace[i-1].Elapsed {
			t.Fatalf("trace time regressed at %d", i)
		}
	}
}

func TestSimulatedAnnealFindsPositiveGapOnFigure1(t *testing.T) {
	inst := figure1Instance(t)
	opts := SAOptions{Options: defaultOpts(2), T0: 500, Gamma: 0.1, KP: 100}
	res, err := SimulatedAnneal(DPGap(inst, 50), 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gap <= 0 {
		t.Fatalf("simulated annealing found no positive gap (%v)", res.Gap)
	}
	if res.Gap > 100+1e-6 {
		t.Fatalf("gap %v exceeds the known optimum 100", res.Gap)
	}
}

func TestBudgetStopsSearch(t *testing.T) {
	inst := figure1Instance(t)
	opts := defaultOpts(3)
	opts.Restarts = 0
	opts.Budget = 30 * time.Millisecond
	start := time.Now()
	res, err := HillClimb(DPGap(inst, 50), 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("budget ignored: ran %v", elapsed)
	}
	if res.Evals == 0 {
		t.Fatal("no evaluations before budget")
	}
}

func TestPOPGapFunc(t *testing.T) {
	g := topology.Line(3)
	set := demand.NewSet([]demand.Pair{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 2}})
	inst, err := mcf.NewInstance(g, set, 1)
	if err != nil {
		t.Fatal(err)
	}
	assignments := [][]int{{0, 0, 1}, {0, 1, 0}}
	gap := POPGap(inst, assignments, 2)
	v, err := gap([]float64{100, 100, 0})
	if err != nil {
		t.Fatal(err)
	}
	// OPT carries 200. Each POP partition halves capacities to 50:
	// assignment {0,0,1}: partition 0 carries 50+50, partition 1 carries 0
	// => 100. Assignment {0,1,0}: partitions carry 50 and 50 => 100.
	// Mean POP = 100, gap = 100.
	if math.Abs(v-100) > 1e-5 {
		t.Fatalf("POP gap=%v, want 100", v)
	}
}

func TestOptionsValidation(t *testing.T) {
	inst := figure1Instance(t)
	gap := DPGap(inst, 50)
	bad := []Options{
		{},
		{MaxDemand: 10, Sigma: 1, K: 10, Restarts: 1}, // no rng
		{MaxDemand: 10, Sigma: 0, K: 10, Restarts: 1, Rng: rand.New(rand.NewSource(1))},
		{MaxDemand: 10, Sigma: 1, K: 0, Restarts: 1, Rng: rand.New(rand.NewSource(1))},
		{MaxDemand: 10, Sigma: 1, K: 10, Rng: rand.New(rand.NewSource(1))}, // no restarts/budget
		{MaxDemand: 10, MinDemand: 20, Sigma: 1, K: 10, Restarts: 1, Rng: rand.New(rand.NewSource(1))},
	}
	for i, o := range bad {
		if _, err := HillClimb(gap, 3, o); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
	badSA := []SAOptions{
		{Options: defaultOpts(1), T0: 0, Gamma: 0.1, KP: 10},
		{Options: defaultOpts(1), T0: 10, Gamma: 1.5, KP: 10},
		{Options: defaultOpts(1), T0: 10, Gamma: 0.1, KP: 0},
	}
	for i, o := range badSA {
		if _, err := SimulatedAnneal(gap, 3, o); err == nil {
			t.Fatalf("SA case %d: expected validation error", i)
		}
	}
}

func TestNeighborRespectsBox(t *testing.T) {
	o := defaultOpts(5)
	o.MinDemand = 2
	d := []float64{2, 100, 50}
	for i := 0; i < 50; i++ {
		nb := o.neighbor(o.Rng, d)
		for _, x := range nb {
			if x < 2 || x > 100 {
				t.Fatalf("neighbor %v out of box", x)
			}
		}
	}
}

func TestSearchIsDeterministicPerSeed(t *testing.T) {
	inst := figure1Instance(t)
	a, err := HillClimb(DPGap(inst, 50), 3, defaultOpts(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := HillClimb(DPGap(inst, 50), 3, defaultOpts(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Gap != b.Gap || a.Evals != b.Evals {
		t.Fatalf("same seed diverged: %v/%d vs %v/%d", a.Gap, a.Evals, b.Gap, b.Evals)
	}
}

func TestConcurrentDPGapFunc(t *testing.T) {
	inst := figure1Instance(t)
	gap := ConcurrentDPGap(inst, 50)
	// Figure-1 demands: OPT lambda 1, DP lambda 0.5 => gap 0.5.
	g, err := gap([]float64{100, 100, 50})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-0.5) > 1e-5 {
		t.Fatalf("gap=%v, want 0.5", g)
	}
	// With every demand above the threshold DP pins nothing: it is the
	// max-concurrent flow, and the gap is exactly 0.
	if g, err = gap([]float64{100, 100, math.Nextafter(50, 51)}); err != nil || g != 0 {
		t.Fatalf("unpinned gap=%v (%v), want 0", g, err)
	}
	// Infeasible pinning maps to -Inf.
	gap60 := ConcurrentDPGap(inst, 60)
	g, err = gap60([]float64{60, 0, 60})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(g, -1) {
		t.Fatalf("gap=%v, want -Inf", g)
	}
	// And hill climbing composes with the concurrent oracle.
	res, err := HillClimb(ConcurrentDPGap(inst, 50), 3, defaultOpts(21))
	if err != nil {
		t.Fatal(err)
	}
	if res.Gap <= 0 {
		t.Fatalf("no positive concurrent gap found: %v", res.Gap)
	}
}

// allocInstance is the 12-pair B4 instance the hill-climbing benchmark
// searches and the demand vector the allocation seals evaluate on it.
func allocInstance(t *testing.T) (*mcf.Instance, []float64) {
	t.Helper()
	g := topology.B4()
	set := demand.RandomPairs(g, 12, rand.New(rand.NewSource(7)))
	inst, err := mcf.NewInstance(g, set, 2)
	if err != nil {
		t.Fatal(err)
	}
	d := make([]float64, set.Len())
	for k := range d {
		d[k] = float64(37*k%101) + 0.25 // demands 0 and 11 are pinned at threshold 5
	}
	return inst, d
}

// sealAllocs fails when one evaluation of gap at d allocates more than
// maxAllocs times, or when gap is not finite there.
func sealAllocs(t *testing.T, name string, gap GapFunc, d []float64, maxAllocs float64) {
	t.Helper()
	if v, err := gap(d); err != nil || math.IsInf(v, 0) {
		t.Fatalf("%s gap %v, %v; want a finite gap", name, v, err)
	}
	if allocs := testing.AllocsPerRun(50, func() { _, _ = gap(d) }); allocs > maxAllocs {
		t.Errorf("one %s evaluation allocates %.0f times, want at most %.0f", name, allocs, maxAllocs)
	}
}

// TestDPGapEvalAllocations seals the allocation count of one DP gap
// evaluation on the 12-pair B4 instance the hill-climbing benchmark
// searches: the pricer builds the OPT LP, the phase-2 incidence and the
// names once, recycles its copies of the OPT LP and the phase-2 LP's
// assembly scratch, the totals are summed without a Flow, and a presolved
// solve keeps its reduction state on a free list, so an evaluation
// allocates only the residual capacities and both LPs' answers (Solution,
// X, Dual): 7 allocations, where a fresh phase-2 LP and fresh presolve
// state took 75, a copy of the OPT LP, two Flows and problems grown by
// append 149, and rebuilding both models per call and merging presolve
// rows through two maps 1020. The bound is the measured count, so any new
// allocation per evaluation shows here. A vector that pins nothing solves
// the OPT LP alone: 4 allocations, where 36 went to fresh presolve state.
func TestDPGapEvalAllocations(t *testing.T) {
	inst, d := allocInstance(t)
	sealAllocs(t, "DPGap", DPGap(inst, 5), d, 7)
	sealAllocs(t, "unpinned DPGap", DPGap(inst, 5), unpinned(d, 5), 4)
}

// unpinned returns d with every volume raised above threshold.
func unpinned(d []float64, threshold float64) []float64 {
	out := make([]float64, len(d))
	for k, v := range d {
		out[k] = v + threshold
	}
	return out
}

// TestConcurrentDPGapEvalAllocations seals one concurrent DP gap
// evaluation on the same instance and vector: both concurrent LPs are
// assembled on the pricer's recycled scratch from its incidence and names,
// solved on recycled presolve state, and read for lambda alone, so what
// remains is the residual capacities and both LPs' answers: 7
// allocations, where the two Flows DemandPinningConcurrent returns took
// 38, fresh LPs and presolve state 110, growing the LPs by append 165 and
// rebuilding each with a map, formatted names and a path scan 523. A
// vector that pins nothing solves its one LP once: 4 allocations, where
// its Flow took 19 and a fresh LP and presolve state 55.
func TestConcurrentDPGapEvalAllocations(t *testing.T) {
	inst, d := allocInstance(t)
	sealAllocs(t, "ConcurrentDPGap", ConcurrentDPGap(inst, 5), d, 7)
	sealAllocs(t, "unpinned ConcurrentDPGap", ConcurrentDPGap(inst, 5), unpinned(d, 5), 4)
}

// TestPOPGapEvalAllocations seals one POP gap evaluation over 3
// assignments to 2 partitions on the same instance and vector: OPT on a
// recycled copy of the prebuilt LP and six partition LPs assembled one
// after another on the pricer's recycled scratch from its incidence and
// names, each solved on recycled presolve state, with each assignment's
// total summed without a Flow, 35 allocations, where a fresh LP and fresh
// presolve state per partition took 293, building a Flow per assignment
// 338, copying the OPT LP and growing the partition LPs by append 501 and
// building every partition's inner LP and lowering it per call 1441.
func TestPOPGapEvalAllocations(t *testing.T) {
	inst, d := allocInstance(t)
	rng := rand.New(rand.NewSource(1))
	assignments := make([][]int, 3)
	for i := range assignments {
		assignments[i] = mcf.RandomAssignment(len(d), 2, rng)
	}
	sealAllocs(t, "POPGap", POPGap(inst, assignments, 2), d, 35)
}
