package core

import (
	"math"
	"testing"

	"repro/internal/demand"
	"repro/internal/mcf"
	"repro/internal/milp"
	"repro/internal/topology"
)

// capFigure1Instance: Figure-1 topology with fixed demands (100, 100, 50)
// and threshold 50, so demand 0->2 is always pinned on the 2-hop path.
func capFigure1Instance(t *testing.T) *mcf.Instance {
	t.Helper()
	g := topology.Figure1()
	set := demand.NewSet([]demand.Pair{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 2}})
	set.SetVolumes([]float64{100, 100, 50})
	inst, err := mcf.NewInstance(g, set, 2)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestCapacityGapFigure1(t *testing.T) {
	inst := capFigure1Instance(t)
	// Edges: 0 (0->1), 1 (1->2), 2 (0->2 direct). Allow each capacity in
	// [50, 150]. The pinned demand wastes 50 units on edges 0 and 1, so the
	// adversary should shrink those links (making the waste bite hardest)
	// and grow the direct link OPT uses.
	pr := &CapacityGapProblem{
		Inst:      inst,
		Threshold: 50,
		CapLo:     []float64{50, 50, 50},
		CapHi:     []float64{150, 150, 150},
	}
	res, err := pr.Solve(milp.Options{MaxNodes: 400000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver.Status != milp.StatusOptimal {
		t.Fatalf("status=%v", res.Solver.Status)
	}
	if math.Abs(res.ModelGap-res.Gap) > 1e-4 {
		t.Fatalf("model gap %v != verified %v", res.ModelGap, res.Gap)
	}
	// Brute-force over the corners (the optimum of this small problem sits
	// at a vertex of the capacity box).
	best := math.Inf(-1)
	for _, c0 := range []float64{50, 150} {
		for _, c1 := range []float64{50, 150} {
			for _, c2 := range []float64{50, 150} {
				if gap, ok := gapPrice(pr.priceCaps).gap([]float64{c0, c1, c2}); ok && gap > best {
					best = gap
				}
			}
		}
	}
	if res.Gap < best-1e-4 {
		t.Fatalf("whitebox capacity gap %v below corner brute force %v", res.Gap, best)
	}
}

func TestCapacityGapRespectsBounds(t *testing.T) {
	inst := capFigure1Instance(t)
	pr := &CapacityGapProblem{
		Inst:      inst,
		Threshold: 50,
		CapLo:     []float64{90, 90, 40},
		CapHi:     []float64{110, 110, 60},
	}
	res, err := pr.Solve(milp.Options{MaxNodes: 200000})
	if err != nil {
		t.Fatal(err)
	}
	for e, c := range res.Demands {
		if c < pr.CapLo[e]-1e-6 || c > pr.CapHi[e]+1e-6 {
			t.Fatalf("edge %d capacity %v out of [%v,%v]", e, c, pr.CapLo[e], pr.CapHi[e])
		}
	}
}

func TestCapacityGapExcludesDPInfeasibleTopologies(t *testing.T) {
	// The pinned demand needs 50 units on edges 0 and 1 alongside pinned...
	// here demands (100,100,50): only 0->2 is pinned. Edge bounds dipping
	// below the pinned load (50) would make DP infeasible; the meta problem
	// must keep capacities at or above it.
	inst := capFigure1Instance(t)
	pr := &CapacityGapProblem{
		Inst:      inst,
		Threshold: 50,
		CapLo:     []float64{10, 10, 10},
		CapHi:     []float64{150, 150, 150},
	}
	res, err := pr.Solve(milp.Options{MaxNodes: 400000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Demands == nil {
		t.Fatalf("no result: %v", res.Solver.Status)
	}
	// Edges 0 and 1 carry the pinned 50 units.
	if res.Demands[0] < 50-1e-6 || res.Demands[1] < 50-1e-6 {
		t.Fatalf("adversarial capacities %v leave DP infeasible", res.Demands)
	}
	if _, _, err := pr.priceCaps(res.Demands); err != nil {
		t.Fatal("verification says DP infeasible at the found topology")
	}
}

func TestCapacityGapValidation(t *testing.T) {
	inst := capFigure1Instance(t)
	bad := []*CapacityGapProblem{
		{Inst: inst, Threshold: 50, CapLo: []float64{1}, CapHi: []float64{2}},
		{Inst: inst, Threshold: 50, CapLo: []float64{5, 5, 5}, CapHi: []float64{1, 1, 1}},
		{Inst: inst, Threshold: 50, CapLo: []float64{-1, 0, 0}, CapHi: []float64{1, 1, 1}},
	}
	for i, pr := range bad {
		if _, err := pr.Solve(milp.Options{}); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestCapacityGapStats(t *testing.T) {
	inst := capFigure1Instance(t)
	pr := &CapacityGapProblem{
		Inst: inst, Threshold: 50,
		CapLo: []float64{50, 50, 50}, CapHi: []float64{150, 150, 150},
	}
	st, err := pr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Binaries != 0 {
		t.Fatalf("capacity search needs no binaries, got %d", st.Binaries)
	}
	if st.SOSPairs == 0 {
		t.Fatal("expected KKT pairs")
	}
}
