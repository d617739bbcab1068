package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mcf"
	"repro/internal/milp"
)

func TestLevelOfAndBounds(t *testing.T) {
	// threshold 50, maxSplits 2: level 0 for v < 50, level 1 for
	// 50 <= v < 100, level 2 for v >= 100.
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0}, {49.9, 0}, {50, 1}, {99, 1}, {100, 2}, {400, 2},
	}
	for _, c := range cases {
		if got := levelOf(c.v, 50, 2); got != c.want {
			t.Fatalf("levelOf(%v)=%d, want %d", c.v, got, c.want)
		}
	}
	lo, hi := levelBounds(0, 2, 50, 300)
	if lo != 0 || hi != 50 {
		t.Fatalf("level 0 bounds [%v,%v]", lo, hi)
	}
	lo, hi = levelBounds(1, 2, 50, 300)
	if lo != 50 || hi != 100 {
		t.Fatalf("level 1 bounds [%v,%v]", lo, hi)
	}
	lo, hi = levelBounds(2, 2, 50, 300)
	if lo != 100 || hi != 300 {
		t.Fatalf("level 2 bounds [%v,%v]", lo, hi)
	}
}

func TestDrawSlotPlanShape(t *testing.T) {
	plan := drawSlotPlan(3, 2, 2, 4, rand.New(rand.NewSource(1)))
	if len(plan) != 2 || len(plan[0]) != 3 {
		t.Fatalf("plan shape wrong")
	}
	for s := 0; s <= 2; s++ {
		if len(plan[0][0][s]) != 1<<s {
			t.Fatalf("level %d has %d slots", s, len(plan[0][0][s]))
		}
	}
	for _, part := range plan[1][2][2] {
		if part < 0 || part >= 4 {
			t.Fatalf("partition %d out of range", part)
		}
	}
}

func TestPOPSplitGapMatchesBruteForce(t *testing.T) {
	inst := popLineInstance(t)
	levels := []float64{0, 40, 80}
	pr := &POPSplitGapProblem{
		Inst:           inst,
		Partitions:     2,
		Instantiations: 1,
		Rng:            rand.New(rand.NewSource(11)),
		SplitThreshold: 50,
		MaxSplits:      1,
		Input:          InputConstraints{MaxDemand: 100, Levels: levels},
	}
	res, err := pr.Solve(milp.Options{MaxNodes: 500000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver.Status != milp.StatusOptimal {
		t.Fatalf("status=%v", res.Solver.Status)
	}

	// Re-derive the slot plan the problem drew (same seed), then brute
	// force the quantized input space against the exact evaluator.
	prEval := &POPSplitGapProblem{
		Inst: inst, Partitions: 2, Instantiations: 1,
		SplitThreshold: 50, MaxSplits: 1,
		Input: InputConstraints{MaxDemand: 100},
	}
	plan := drawSlotPlan(inst.Demands.Len(), 1, 1, 2, rand.New(rand.NewSource(11)))
	best := math.Inf(-1)
	var vols [3]float64
	var rec func(k int)
	rec = func(k int) {
		if k == 3 {
			opt, heur, err := prEval.price(mcf.NewPricer(inst), vols[:], plan)
			if err != nil {
				t.Fatal(err)
			}
			if g := opt - heur; g > best {
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
		t.Fatalf("whitebox split gap %v != brute force %v", res.Gap, best)
	}
}

func TestPOPSplitReducesGapVersusPlainPOP(t *testing.T) {
	// Client splitting spreads large demands over partitions, which should
	// not make the heuristic worse in expectation on the worst input found
	// for plain POP.
	inst := popLineInstance(t)
	d := []float64{100, 100, 100}
	pc := mcf.NewPricer(inst)
	opt, plain, err := pc.POPGap(d, [][]int{{0, 0, 1}}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	pr := &POPSplitGapProblem{
		Inst: inst, Partitions: 2, Instantiations: 1,
		SplitThreshold: 50, MaxSplits: 2,
		Input: InputConstraints{MaxDemand: 100},
	}
	// Average split POP over several plans to smooth slot randomness.
	sum, rounds := 0.0, 8
	for i := 0; i < rounds; i++ {
		plan := drawSlotPlan(3, 1, 2, 2, rand.New(rand.NewSource(int64(100+i))))
		_, v, err := pr.price(pc, d, plan)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	splitAvg := sum / float64(rounds)
	if splitAvg < plain-10 {
		t.Fatalf("split POP %v much worse than plain %v (OPT %v)", splitAvg, plain, opt)
	}
}

func TestPOPSplitValidation(t *testing.T) {
	inst := popLineInstance(t)
	bad := []*POPSplitGapProblem{
		{Inst: inst, Partitions: 0, SplitThreshold: 50, MaxSplits: 1,
			Rng: rand.New(rand.NewSource(1)), Input: InputConstraints{MaxDemand: 100}},
		{Inst: inst, Partitions: 2, SplitThreshold: 0, MaxSplits: 1,
			Rng: rand.New(rand.NewSource(1)), Input: InputConstraints{MaxDemand: 100}},
		{Inst: inst, Partitions: 2, SplitThreshold: 50, MaxSplits: 0,
			Rng: rand.New(rand.NewSource(1)), Input: InputConstraints{MaxDemand: 100}},
		{Inst: inst, Partitions: 2, SplitThreshold: 50, MaxSplits: 1,
			Input: InputConstraints{MaxDemand: 100}}, // no rng
		{Inst: inst, Partitions: 2, SplitThreshold: 200, MaxSplits: 1,
			Rng: rand.New(rand.NewSource(1)), Input: InputConstraints{MaxDemand: 100}},
	}
	for i, pr := range bad {
		if _, err := pr.Solve(milp.Options{}); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestPOPSplitStats(t *testing.T) {
	inst := popLineInstance(t)
	pr := &POPSplitGapProblem{
		Inst: inst, Partitions: 2, Instantiations: 2,
		Rng: rand.New(rand.NewSource(2)), SplitThreshold: 50, MaxSplits: 2,
		Input: InputConstraints{MaxDemand: 100},
	}
	st, err := pr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// 3 demands x 3 levels = 9 level binaries.
	if st.Binaries != 9 {
		t.Fatalf("binaries=%d, want 9", st.Binaries)
	}
	if st.SOSPairs == 0 {
		t.Fatal("no SOS pairs")
	}
}
