package core

import (
	"math"
	"testing"

	"repro/internal/blackbox"
	"repro/internal/demand"
	"repro/internal/mcf"
	"repro/internal/milp"
	"repro/internal/topology"
)

// gridMax exhaustively evaluates the black-box gap oracle on the grid
// levels^n and returns the best gap and the demand vector achieving it.
// On tiny topologies the grid is small enough to be a ground-truth oracle
// for "the KKT search must do at least this well".
func gridMax(t *testing.T, gap blackbox.GapFunc, n int, levels []float64) (float64, []float64) {
	t.Helper()
	best := math.Inf(-1)
	var bestD []float64
	d := make([]float64, n)
	var walk func(k int)
	walk = func(k int) {
		if k == n {
			g, err := gap(d)
			if err != nil {
				t.Fatalf("grid eval at %v: %v", d, err)
			}
			if g > best {
				best = g
				bestD = append([]float64(nil), d...)
			}
			return
		}
		for _, v := range levels {
			d[k] = v
			walk(k + 1)
		}
	}
	walk(0)
	return best, bestD
}

// checkDPGapVerified recomputes OPT and DP at demands with the direct
// solvers and asserts the claimed gap matches — both search methods must
// produce mcf-verified feasible witnesses, not just model claims.
func checkDPGapVerified(t *testing.T, inst *mcf.Instance, threshold float64, demands []float64, claimed float64) {
	t.Helper()
	at := inst.WithVolumes(demands)
	dp, err := mcf.SolveDemandPinning(at, threshold)
	if err != nil {
		t.Fatalf("verifying DP at %v: %v", demands, err)
	}
	opt, err := mcf.SolveMaxFlow(at)
	if err != nil {
		t.Fatalf("verifying OPT at %v: %v", demands, err)
	}
	if g := opt.Total - dp.Total; math.Abs(g-claimed) > 1e-5 {
		t.Fatalf("claimed gap %v but direct solvers give %v at %v", claimed, g, demands)
	}
}

// TestDifferentialKKTvsGridSearch is the differential harness: on tiny
// topologies the KKT-based white-box search must find a gap at least as
// large as an exhaustive black-box grid search (it optimizes over the whole
// continuous box, which contains every grid point), and both witnesses must
// verify against the direct mcf solvers. Run serial and 4-worker to pin the
// parallel solver to the same ground truth.
func TestDifferentialKKTvsGridSearch(t *testing.T) {
	cases := []struct {
		name      string
		g         *topology.Graph
		pairs     []demand.Pair
		paths     int
		threshold float64
	}{
		{"figure1", topology.Figure1(),
			[]demand.Pair{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 2}}, 2, 50},
		{"line3", topology.Line(3),
			[]demand.Pair{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 2}}, 1, 30},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := demand.NewSet(tc.pairs)
			inst, err := mcf.NewInstance(tc.g, set, tc.paths)
			if err != nil {
				t.Fatal(err)
			}
			// Exhaustive oracle over {0, T/2, T, (T+100)/2, 100}^n.
			levels := []float64{0, tc.threshold / 2, tc.threshold, (tc.threshold + 100) / 2, 100}
			oracle := blackbox.DPGap(inst, tc.threshold)
			gridGap, gridD := gridMax(t, oracle, len(tc.pairs), levels)
			if !math.IsInf(gridGap, -1) {
				checkDPGapVerified(t, inst, tc.threshold, gridD, gridGap)
			}

			for _, depthFirst := range []bool{false, true} {
				pr := &DPGapProblem{Inst: inst, Threshold: tc.threshold,
					Input: InputConstraints{MaxDemand: 100}}
				res, err := pr.Solve(milp.Options{DepthFirst: depthFirst})
				if err != nil {
					t.Fatalf("depthFirst=%t: %v", depthFirst, err)
				}
				if res.Solver.Status != milp.StatusOptimal {
					t.Fatalf("depthFirst=%t: status %v", depthFirst, res.Solver.Status)
				}
				// The white-box optimum dominates any grid point.
				if res.Gap < gridGap-1e-6 {
					t.Fatalf("depthFirst=%t: KKT gap %v below exhaustive grid gap %v (grid witness %v)",
						depthFirst, res.Gap, gridGap, gridD)
				}
				checkDPGapVerified(t, inst, tc.threshold, res.Demands, res.Gap)
			}
		})
	}
}

// TestCoreParallelMatchesSerial runs the full DP meta problem cold and
// warm-started and requires identical verified gaps and trees — the
// acceptance criterion "same incumbent objective and final bound" at the
// meta-problem level, where Polish, seeds and tracing are all in play.
func TestCoreParallelMatchesSerial(t *testing.T) {
	g := topology.Figure1()
	set := demand.NewSet([]demand.Pair{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 2}})
	inst, err := mcf.NewInstance(g, set, 2)
	if err != nil {
		t.Fatal(err)
	}
	pr := &DPGapProblem{Inst: inst, Threshold: 50, Input: InputConstraints{MaxDemand: 100}}
	cold, err := pr.Solve(milp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := pr.Solve(milp.Options{WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Gap != warm.Gap ||
		cold.Solver.Objective != warm.Solver.Objective ||
		cold.Solver.Bound != warm.Solver.Bound ||
		cold.Solver.Nodes != warm.Solver.Nodes ||
		cold.Solver.LPSolves != warm.Solver.LPSolves {
		t.Fatalf("warm run diverged from cold:\ncold gap=%v obj=%v bound=%v nodes=%d lp=%d\n"+
			"warm gap=%v obj=%v bound=%v nodes=%d lp=%d",
			cold.Gap, cold.Solver.Objective, cold.Solver.Bound, cold.Solver.Nodes, cold.Solver.LPSolves,
			warm.Gap, warm.Solver.Objective, warm.Solver.Bound, warm.Solver.Nodes, warm.Solver.LPSolves)
	}
}
