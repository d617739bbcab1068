package milp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
)

// randomModel generates a small random MILP/SOS instance. Everything is
// boxed and every row is "nonnegative-combination <= positive rhs", so the
// origin is always feasible and the relaxation always bounded: the solver
// must reach StatusOptimal, which lets the tests compare runs under
// different options on the strongest possible footing.
func randomModel(rng *rand.Rand) *Model {
	p := lp.NewProblem("rand", lp.Maximize)
	m := NewModel(p)
	nCont := 1 + rng.Intn(3)
	nBin := rng.Intn(4)
	nPair := 1 + rng.Intn(4)

	var all []lp.VarID
	for i := 0; i < nCont; i++ {
		v := p.AddVar("x", 0, 1+rng.Float64()*9)
		p.SetObj(v, rng.Float64()*4-1)
		all = append(all, v)
	}
	for i := 0; i < nBin; i++ {
		v := m.AddBinary("b")
		p.SetObj(v, rng.Float64()*6-2)
		all = append(all, v)
	}
	for i := 0; i < nPair; i++ {
		u := p.AddVar("u", 0, 1+rng.Float64()*7)
		v := p.AddVar("v", 0, 1+rng.Float64()*7)
		p.SetObj(u, rng.Float64()*3)
		p.SetObj(v, rng.Float64()*3)
		m.AddComplementarity(u, v, "uv")
		all = append(all, u, v)
	}
	nRows := 1 + rng.Intn(4)
	for i := 0; i < nRows; i++ {
		e := lp.NewExpr()
		for _, v := range all {
			if rng.Float64() < 0.6 {
				e = e.Add(v, rng.Float64()*2)
			}
		}
		if len(e.Terms) == 0 {
			e = e.Add(all[0], 1)
		}
		p.AddConstraint("r", e, lp.LE, 1+rng.Float64()*20)
	}
	return m
}

// checkModelFeasible asserts x satisfies every row, box, integrality and
// complementarity constraint of m, and returns c'x.
func checkModelFeasible(t *testing.T, m *Model, x []float64) float64 {
	t.Helper()
	p := m.P
	if len(x) != p.NumVars() {
		t.Fatalf("solution has %d vars, want %d", len(x), p.NumVars())
	}
	for ci := 0; ci < p.NumConstraints(); ci++ {
		expr, rel, rhs := p.Constraint(lp.ConID(ci))
		v := expr.Eval(x)
		switch rel {
		case lp.LE:
			if v > rhs+1e-5 {
				t.Fatalf("row %d violated: %v > %v", ci, v, rhs)
			}
		case lp.GE:
			if v < rhs-1e-5 {
				t.Fatalf("row %d violated: %v < %v", ci, v, rhs)
			}
		case lp.EQ:
			if math.Abs(v-rhs) > 1e-5 {
				t.Fatalf("row %d violated: %v != %v", ci, v, rhs)
			}
		}
	}
	obj := 0.0
	for j := 0; j < p.NumVars(); j++ {
		lo, hi := p.Bounds(lp.VarID(j))
		if x[j] < lo-1e-6 || x[j] > hi+1e-6 {
			t.Fatalf("var %d=%v out of [%v,%v]", j, x[j], lo, hi)
		}
		obj += p.Obj(lp.VarID(j)) * x[j]
	}
	for _, b := range m.Binaries() {
		if f := math.Min(x[b], 1-x[b]); f > 1e-5 {
			t.Fatalf("binary %d fractional: %v", b, x[b])
		}
	}
	for _, pr := range m.Pairs() {
		if v := math.Min(x[pr.U], x[pr.V]); v > 1e-5 {
			t.Fatalf("pair %s violated: min(%v,%v)=%v", pr.Name, x[pr.U], x[pr.V], v)
		}
	}
	return obj
}

// TestParallelMatchesSerialRandom checks, on random instances, that the
// best-bound and the depth-first searches agree on the objective and the
// bound within 1e-6 and both return model-feasible points matching their
// reported objectives.
func TestParallelMatchesSerialRandom(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		m := randomModel(rand.New(rand.NewSource(seed)))
		best, err := Solve(m, Options{})
		if err != nil {
			t.Fatalf("seed %d best-bound: %v", seed, err)
		}
		deep, err := Solve(m, Options{DepthFirst: true})
		if err != nil {
			t.Fatalf("seed %d depth-first: %v", seed, err)
		}
		if best.Status != StatusOptimal || deep.Status != StatusOptimal {
			t.Fatalf("seed %d: status %v vs %v, want optimal (boxed feasible model)",
				seed, best.Status, deep.Status)
		}
		if math.Abs(best.Objective-deep.Objective) > 1e-6 {
			t.Fatalf("seed %d: objectives diverged: best-bound %v vs depth-first %v",
				seed, best.Objective, deep.Objective)
		}
		if math.Abs(best.Bound-deep.Bound) > 1e-6 {
			t.Fatalf("seed %d: bounds diverged: best-bound %v vs depth-first %v",
				seed, best.Bound, deep.Bound)
		}
		bo := checkModelFeasible(t, m, best.X)
		do := checkModelFeasible(t, m, deep.X)
		if math.Abs(bo-best.Objective) > 1e-5 || math.Abs(do-deep.Objective) > 1e-5 {
			t.Fatalf("seed %d: reported objective does not match returned point", seed)
		}
	}
}

// TestParallelWithPolishAndTarget exercises the speculative polish path
// plus the early Target return.
func TestParallelWithPolishAndTarget(t *testing.T) {
	m := randomModel(rand.New(rand.NewSource(11)))
	plain, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A polish that rounds binaries and zeroes the larger pair side would
	// need model knowledge; instead hand back the relaxation point only when
	// it is already feasible (a pure heuristic).
	polish := func(x []float64) (float64, []float64, bool) {
		for _, b := range m.Binaries() {
			if f := math.Min(x[b], 1-x[b]); f > 1e-7 {
				return 0, nil, false
			}
		}
		obj := 0.0
		for j := range x {
			obj += m.P.Obj(lp.VarID(j)) * x[j]
		}
		for _, pr := range m.Pairs() {
			if math.Min(x[pr.U], x[pr.V]) > 1e-7 {
				return 0, nil, false
			}
		}
		return obj, append([]float64(nil), x...), true
	}
	polished, err := Solve(m, Options{Polish: polish})
	if err != nil {
		t.Fatal(err)
	}
	if polished.Status != StatusOptimal || math.Abs(polished.Objective-plain.Objective) > 1e-6 {
		t.Fatalf("polish changed the answer: %v vs %v", polished.Objective, plain.Objective)
	}

	// Target: ask for anything within 60% of the known optimum; the run must
	// stop early with a feasible incumbent at least that good.
	target := 0.6 * plain.Objective
	res, err := Solve(m, Options{Target: &target})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusFeasible && res.Status != StatusOptimal {
		t.Fatalf("target run status %v", res.Status)
	}
	if res.Objective < target-1e-6 {
		t.Fatalf("target missed: %v < %v", res.Objective, target)
	}
	checkModelFeasible(t, m, res.X)
}
