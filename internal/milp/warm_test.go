package milp

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/lp"
	"repro/internal/obs"
)

// TestWarmVsColdIdenticalTree is the warm-start determinism contract: with
// Options.WarmStart on, the explored tree — objective, bound, node count, LP
// solve count, status — is bit-identical to the cold run for every worker
// count; only pivot counts (LPIters) may differ. The sweep must also actually
// exercise the warm path, otherwise the assertion is vacuous, and at one
// worker it must dive: a child solved right after its parent starts from the
// parent's terminal tableau. Parallel waves never dive.
func TestWarmVsColdIdenticalTree(t *testing.T) {
	warmTotal, dives := 0, 0
	for _, depthFirst := range []bool{false, true} {
		for seed := int64(0); seed < 30; seed++ {
			m := randomModel(rand.New(rand.NewSource(seed)))
			cold, err := Solve(m, Options{Workers: 1, Batch: 4, DepthFirst: depthFirst})
			if err != nil {
				t.Fatalf("seed %d cold: %v", seed, err)
			}
			for _, workers := range []int{1, 4} {
				warm, err := Solve(m, Options{Workers: workers, Batch: 4,
					DepthFirst: depthFirst, WarmStart: true})
				if err != nil {
					t.Fatalf("seed %d warm workers=%d: %v", seed, workers, err)
				}
				if warm.Objective != cold.Objective || warm.Bound != cold.Bound ||
					warm.Nodes != cold.Nodes || warm.LPSolves != cold.LPSolves ||
					warm.Status != cold.Status {
					t.Fatalf("seed %d depthFirst=%v workers=%d: warm tree diverged from cold:\n"+
						"obj %v vs %v, bound %v vs %v, nodes %d vs %d, lp %d vs %d (warm=%d fallback=%d)",
						seed, depthFirst, workers,
						warm.Objective, cold.Objective, warm.Bound, cold.Bound,
						warm.Nodes, cold.Nodes, warm.LPSolves, cold.LPSolves,
						warm.WarmLPSolves, warm.WarmLPFallbacks)
				}
				warmTotal += warm.WarmLPSolves
				if workers == 1 {
					dives += warm.Dives
				} else if warm.Dives != 0 {
					t.Fatalf("seed %d: %d dives at %d workers", seed, warm.Dives, workers)
				}
				if warm.Dives > warm.WarmLPSolves {
					t.Fatalf("seed %d: %d dives exceed %d warm solves", seed, warm.Dives, warm.WarmLPSolves)
				}
				if cold.WarmLPSolves != 0 || cold.WarmLPFallbacks != 0 {
					t.Fatalf("seed %d: cold run reports warm counters %d/%d",
						seed, cold.WarmLPSolves, cold.WarmLPFallbacks)
				}
			}
		}
	}
	if warmTotal == 0 {
		t.Fatalf("warm path never completed a node relaxation across the sweep")
	}
	if dives == 0 {
		t.Fatalf("no node relaxation dived at one worker")
	}
	t.Logf("warm path completed %d node relaxations, %d of them dives", warmTotal, dives)
}

// TestWarmTraceDetailsMatchCounters checks that the lp_solve_end details
// of a warm search account for its warm counters: "warm" and
// "warm-infeasible" events together make WarmLPSolves, "warm-fallback"
// events make WarmLPFallbacks, and a "warm-infeasible" event always carries
// an infeasible status. Random models exercise the first two; a fixed
// model whose children the dual repair proves infeasible makes sure
// certificate verdicts show up at all.
func TestWarmTraceDetailsMatchCounters(t *testing.T) {
	search := func(name string, m *Model) (*Result, map[string]int) {
		t.Helper()
		col := &obs.Collector{}
		res, err := Solve(m, Options{Workers: 1, Batch: 4, WarmStart: true, Tracer: obs.NewTracer(col)})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		details := map[string]int{}
		for _, e := range col.Events() {
			if e.Kind != obs.KindLPSolveEnd {
				continue
			}
			details[e.Detail]++
			if e.Detail == "warm-infeasible" && e.Status != lp.StatusInfeasible.String() {
				t.Fatalf("%s: warm-infeasible event with status %q", name, e.Status)
			}
		}
		if got := details["warm"] + details["warm-infeasible"]; got != res.WarmLPSolves {
			t.Fatalf("%s: %d warm and warm-infeasible events, WarmLPSolves %d", name, got, res.WarmLPSolves)
		}
		if details["warm-fallback"] != res.WarmLPFallbacks {
			t.Fatalf("%s: %d warm-fallback events, WarmLPFallbacks %d",
				name, details["warm-fallback"], res.WarmLPFallbacks)
		}
		return res, details
	}
	for seed := int64(0); seed < 30; seed++ {
		search(fmt.Sprintf("seed %d", seed), randomModel(rand.New(rand.NewSource(seed))))
	}

	// min u + v s.t. u - w >= 2, v - w >= 2, u*v = 0: the root has u = v = 2
	// basic, and each child fixes one of them at zero while its row cannot
	// bring it down, so both children end at the repair's certificate.
	p := lp.NewProblem("certificates", lp.Minimize)
	m := NewModel(p)
	u := p.AddVar("u", 0, lp.Inf)
	v := p.AddVar("v", 0, lp.Inf)
	w := p.AddVar("w", 0, lp.Inf)
	p.SetObj(u, 1)
	p.SetObj(v, 1)
	p.AddConstraint("u.floor", lp.NewExpr().Add(u, 1).Add(w, -1), lp.GE, 2)
	p.AddConstraint("v.floor", lp.NewExpr().Add(v, 1).Add(w, -1), lp.GE, 2)
	m.AddComplementarity(u, v, "uv")
	res, details := search("certificates", m)
	if res.Status != StatusInfeasible || details["warm-infeasible"] != 2 {
		t.Fatalf("certificate model: status %v, %d warm-infeasible events (details %v), want infeasible and 2",
			res.Status, details["warm-infeasible"], details)
	}
}

// iterLimitModel builds the fixed instance behind the negative-gap regression:
// a fractional root binary whose b=1 child LP needs strictly more pivots than
// both the root and the b=0 child. It returns the model, the binary, and the
// three LP pivot counts (root, b=0 child, b=1 child).
func iterLimitModel(t *testing.T) (*Model, lp.VarID, int, int, int) {
	t.Helper()
	p := lp.NewProblem("negative-gap", lp.Maximize)
	m := NewModel(p)
	b := m.AddBinary("b")
	p.SetObj(b, 1)
	z := p.AddVar("z", 0, 1)
	p.SetObj(z, 10)
	// z + b <= 1.5 makes the root relaxation pick z=1, b=0.5: fractional.
	p.AddConstraint("frac", lp.NewExpr().Add(z, 1).Add(b, 1), lp.LE, 1.5)
	var ys []lp.VarID
	for i := 0; i < 6; i++ {
		y := p.AddVar("y", 0, 10)
		p.SetObj(y, 1)
		// y_i <= 10 b: inert when b=0, real work when b=1.
		p.AddConstraint("gate", lp.NewExpr().Add(y, 1).Add(b, -10), lp.LE, 0)
		ys = append(ys, y)
	}
	for i := 0; i+1 < len(ys); i++ {
		p.AddConstraint("pair", lp.NewExpr().Add(ys[i], 1).Add(ys[i+1], 1), lp.LE, 12)
	}
	// Cross rows y_i + y_{i+3} <= 11 are slack at the root (y = 5) and at b=0
	// (y = 0) but bind at b=1, forcing the extra pivots that make the b=1
	// child strictly the hardest LP of the three.
	for i := 0; i+3 < len(ys); i++ {
		p.AddConstraint("cross", lp.NewExpr().Add(ys[i], 1).Add(ys[i+3], 1), lp.LE, 11)
	}
	iters := func(ov map[lp.VarID][2]float64) int {
		sol, err := p.SolveWith(lp.SolveOptions{BoundOverride: ov})
		if err != nil {
			t.Fatalf("measuring pivots: %v", err)
		}
		return sol.Iterations
	}
	root := iters(nil)
	a := iters(map[lp.VarID][2]float64{b: {0, 0}})
	bb := iters(map[lp.VarID][2]float64{b: {1, 1}})
	return m, b, root, a, bb
}

// TestNegativeGapClampedOnDroppedNode is the regression for the stale-bound
// bug: when a node is dropped unevaluated (here: its LP hits the iteration
// cap) and a later node of the same wave raises the incumbent above every
// open bound via polish, the search drains the heap and used to report the
// wave-top bound — below the incumbent, a negative gap. The clamp in finish
// must report Bound >= Objective instead.
func TestNegativeGapClampedOnDroppedNode(t *testing.T) {
	m, b, rootIters, aIters, bIters := iterLimitModel(t)
	if bIters <= rootIters || bIters <= aIters {
		t.Fatalf("test premise broken: b=1 child must be the hardest LP (root %d, b=0 %d, b=1 %d)",
			rootIters, aIters, bIters)
	}
	cap := bIters - 1 // root and the b=0 child complete; the b=1 child cannot

	// Polish: reject the fractional root point, promote the b=0 child's point
	// to a (synthetic) incumbent far above every LP bound. Pure and
	// deterministic, per the Polish contract.
	polish := func(x []float64) (float64, []float64, bool) {
		if x[b] < 0.25 {
			return 1000, append([]float64(nil), x...), true
		}
		return 0, nil, false
	}
	res, err := Solve(m, Options{Workers: 1, Batch: 2, LPMaxIters: cap, Polish: polish})
	if err != nil {
		t.Fatal(err)
	}
	// The b=1 child was dropped unevaluated, so the run cannot claim
	// optimality; the polish incumbent must still be returned.
	if res.Status != StatusFeasible {
		t.Fatalf("status=%v, want feasible (a node was dropped unevaluated)", res.Status)
	}
	if res.Objective != 1000 {
		t.Fatalf("objective=%v, want the polish incumbent 1000", res.Objective)
	}
	if res.Bound < res.Objective {
		t.Fatalf("negative gap reported: bound %v < objective %v", res.Bound, res.Objective)
	}
}

// TestIterLimitNodeSkippedWithoutPanic covers the Solution nil-X contract at
// the milp call site: a relaxation that returns StatusIterLimit carries no
// point, and the node must be skipped (voiding optimality) rather than
// dereferenced by polish or branching.
func TestIterLimitNodeSkippedWithoutPanic(t *testing.T) {
	m := randomModel(rand.New(rand.NewSource(5)))
	polish := func(x []float64) (float64, []float64, bool) {
		_ = x[len(x)-1] // would panic on a nil point
		return 0, nil, false
	}
	res, err := Solve(m, Options{Workers: 1, LPMaxIters: 1, Polish: polish})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusNoIncumbent {
		t.Fatalf("status=%v, want no-incumbent when every node LP is capped", res.Status)
	}

	// With a seed the capped run must surface the seed, never claim
	// optimality, and never report a bound below it.
	seedObj := 1.5
	res, err = Solve(m, Options{Workers: 1, LPMaxIters: 1, Polish: polish,
		Seeds: []Seed{{Objective: seedObj, X: make([]float64, m.P.NumVars())}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusFeasible {
		t.Fatalf("status=%v, want feasible from seed", res.Status)
	}
	if res.Objective != seedObj {
		t.Fatalf("objective=%v, want seed %v", res.Objective, seedObj)
	}
	if res.Bound < res.Objective {
		t.Fatalf("negative gap on capped run: bound %v < objective %v", res.Bound, res.Objective)
	}
}

// TestDeadlineDistinctFromIterLimit asserts the milp layer sees — and traces —
// lp deadline aborts as "deadline", not "iteration-limit". The deadline is
// driven into the middle of a wave by a polish that outsleeps the TimeLimit,
// so the sibling node's LP starts after the clock expired.
func TestDeadlineDistinctFromIterLimit(t *testing.T) {
	m, b, _, _, _ := iterLimitModel(t)
	var col obs.Collector
	polish := func(x []float64) (float64, []float64, bool) {
		if x[b] > 0.75 {
			time.Sleep(80 * time.Millisecond) //gapvet:allow walltime test drives a deadline expiry mid-wave
		}
		return 0, nil, false
	}
	res, err := Solve(m, Options{
		Workers: 1,
		// Batch 2 pops both children into one wave: the b=1 child's polish
		// outsleeps the TimeLimit, so the b=0 sibling's LP — solved later in
		// the same wave — starts with the clock already expired.
		Batch:     2,
		TimeLimit: 40 * time.Millisecond,
		Polish:    polish,
		Tracer:    obs.NewTracer(&col),
	})
	if err != nil {
		t.Fatal(err)
	}
	deadlineSeen, iterLimitSeen := false, false
	for _, e := range col.Events() {
		if e.Kind == obs.KindLPSolveEnd {
			switch e.Status {
			case "deadline":
				deadlineSeen = true
			case "iteration-limit":
				iterLimitSeen = true
			}
		}
	}
	if !deadlineSeen {
		t.Fatalf("no lp_solve_end event carried status deadline (status=%v, nodes=%d)",
			res.Status, res.Nodes)
	}
	if iterLimitSeen {
		t.Fatalf("a deadline abort was traced as iteration-limit")
	}
	if res.Status == StatusOptimal {
		t.Fatalf("timed-out run claimed optimality")
	}
	if res.X != nil && res.Bound < res.Objective {
		t.Fatalf("negative gap after timeout: bound %v < objective %v", res.Bound, res.Objective)
	}
}
