package milp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
)

// Engine differential: branch-and-bound explores a tree whose shape is
// dictated entirely by node relaxation answers. The LP engine answers a
// node either cold, from a fresh tableau, or warm, by dual-simplex repair of
// the parent's terminal basis. The two paths are built to be
// observationally identical, so switching Options.WarmStart must leave the
// explored tree invariant — same incumbent, bound, point and node / LP-solve
// counters — in either node order; only the pivot counts may differ. These
// tests pin that contract over representative models, each checked against
// its known optimum, and over seeded random instances.

// milpFixture is one model of the differential corpus with its known
// answer: the optimal objective, or StatusInfeasible.
type milpFixture struct {
	build  func() *Model
	status Status
	want   float64
}

// milpFixtures returns the differential corpus: binaries with knapsack and
// cover rows, complementarity disjunctions, indicators, and an infeasible
// instance, covering every branching rule the solver has.
func milpFixtures() map[string]milpFixture {
	return map[string]milpFixture{
		"knapsack": {status: StatusOptimal, want: 20, build: func() *Model {
			p := lp.NewProblem("knapsack", lp.Maximize)
			m := NewModel(p)
			a := m.AddBinary("a")
			b := m.AddBinary("b")
			c := m.AddBinary("c")
			p.SetObj(a, 10)
			p.SetObj(b, 13)
			p.SetObj(c, 7)
			p.AddConstraint("w", lp.NewExpr().Add(a, 3).Add(b, 4).Add(c, 2), lp.LE, 6)
			return m
		}},
		"cover-min": {status: StatusOptimal, want: 3, build: func() *Model {
			p := lp.NewProblem("cover", lp.Minimize)
			m := NewModel(p)
			a := m.AddBinary("a")
			b := m.AddBinary("b")
			c := m.AddBinary("c")
			p.SetObj(a, 4)
			p.SetObj(b, 3)
			p.SetObj(c, 5)
			p.AddConstraint("c1", lp.NewExpr().Add(a, 1).Add(b, 1), lp.GE, 1)
			p.AddConstraint("c2", lp.NewExpr().Add(b, 1).Add(c, 1), lp.GE, 1)
			return m
		}},
		"compl-chain": {status: StatusOptimal, want: 8, build: func() *Model {
			p := lp.NewProblem("chain", lp.Maximize)
			m := NewModel(p)
			u := p.AddVar("u", 0, 1)
			v := p.AddVar("v", 0, 1)
			w := p.AddVar("w", 0, 1)
			p.SetObj(u, 3)
			p.SetObj(v, 2)
			p.SetObj(w, 5)
			m.AddComplementarity(u, v, "uv")
			m.AddComplementarity(v, w, "vw")
			return m
		}},
		"indicator": {status: StatusOptimal, want: 8, build: func() *Model {
			p := lp.NewProblem("indicator", lp.Maximize)
			m := NewModel(p)
			x := p.AddVar("x", 0, 10)
			y := m.AddBinary("y")
			p.SetObj(x, 1)
			p.SetObj(y, 3)
			// y = 1 implies x <= 2: take the bonus on y or the larger x.
			m.AddIndicatorLE("x-small-if-y", y, lp.NewExpr().Add(x, 1), 2, 100)
			p.AddConstraint("cap", lp.NewExpr().Add(x, 1), lp.LE, 8)
			return m
		}},
		"infeasible": {status: StatusInfeasible, build: func() *Model {
			p := lp.NewProblem("infeasible", lp.Maximize)
			m := NewModel(p)
			a := m.AddBinary("a")
			b := m.AddBinary("b")
			p.SetObj(a, 1)
			p.AddConstraint("lo", lp.NewExpr().Add(a, 1).Add(b, 1), lp.GE, 2)
			p.AddConstraint("hi", lp.NewExpr().Add(a, 1).Add(b, 1), lp.LE, 1)
			return m
		}},
	}
}

// assertSameTree requires two B&B runs to have explored the same tree:
// status, incumbent, bound, point, and node and LP-solve counts. With
// pivots set, the LP work must match down to the pivot count too.
func assertSameTree(t *testing.T, name string, ref, got *Result, pivots bool) {
	t.Helper()
	if got.Status != ref.Status {
		t.Fatalf("%s: status %v vs %v", name, got.Status, ref.Status)
	}
	if math.Abs(got.Objective-ref.Objective) > 1e-9*(1+math.Abs(ref.Objective)) {
		t.Fatalf("%s: objective %.15g vs %.15g", name, got.Objective, ref.Objective)
	}
	if math.Abs(got.Bound-ref.Bound) > 1e-9*(1+math.Abs(ref.Bound)) {
		t.Fatalf("%s: bound %.15g vs %.15g", name, got.Bound, ref.Bound)
	}
	if got.Nodes != ref.Nodes {
		t.Fatalf("%s: nodes %d vs %d", name, got.Nodes, ref.Nodes)
	}
	if got.LPSolves != ref.LPSolves {
		t.Fatalf("%s: lp solves %d vs %d", name, got.LPSolves, ref.LPSolves)
	}
	if pivots && got.LPIters != ref.LPIters {
		t.Fatalf("%s: lp pivots %d vs %d", name, got.LPIters, ref.LPIters)
	}
	if len(got.X) != len(ref.X) {
		t.Fatalf("%s: |X| %d vs %d", name, len(got.X), len(ref.X))
	}
	for j := range ref.X {
		if math.Abs(got.X[j]-ref.X[j]) > 1e-9*(1+math.Abs(ref.X[j])) {
			t.Fatalf("%s: X[%d] = %.15g vs %.15g", name, j, got.X[j], ref.X[j])
		}
	}
}

// TestEngineDifferentialFixtures: every fixture reaches its known answer
// cold in both node orders, and the warm run replays the cold run's tree.
func TestEngineDifferentialFixtures(t *testing.T) {
	for name, fx := range milpFixtures() {
		t.Run(name, func(t *testing.T) {
			for _, depthFirst := range []bool{false, true} {
				cold, err := Solve(fx.build(), Options{DepthFirst: depthFirst})
				if err != nil {
					t.Fatalf("cold depthFirst=%t: %v", depthFirst, err)
				}
				if cold.Status != fx.status {
					t.Fatalf("cold depthFirst=%t: status %v, want %v", depthFirst, cold.Status, fx.status)
				}
				if fx.status == StatusOptimal && math.Abs(cold.Objective-fx.want) > 1e-6 {
					t.Fatalf("cold depthFirst=%t: objective %v, want %v", depthFirst, cold.Objective, fx.want)
				}
				warm, err := Solve(fx.build(), Options{DepthFirst: depthFirst, WarmStart: true})
				if err != nil {
					t.Fatalf("warm depthFirst=%t: %v", depthFirst, err)
				}
				assertSameTree(t, name, cold, warm, false)
			}
		})
	}
}

// TestEngineDifferentialRandom sweeps the shared seeded instance generator
// (the same one the fuzz harness uses) in both node orders: the warm run
// must explore the cold run's tree, and running the same options again must
// replay it down to the pivot count.
func TestEngineDifferentialRandom(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		m := randomModel(rand.New(rand.NewSource(seed)))
		for _, depthFirst := range []bool{false, true} {
			var runs [2][2]*Result // [warm][replay]
			for w, warm := range []bool{false, true} {
				for r := range runs[w] {
					res, err := Solve(m, Options{DepthFirst: depthFirst, WarmStart: warm})
					if err != nil {
						t.Fatalf("seed %d depthFirst=%t warm=%t: %v", seed, depthFirst, warm, err)
					}
					runs[w][r] = res
				}
				assertSameTree(t, "random replay", runs[w][0], runs[w][1], true)
			}
			assertSameTree(t, "random warm vs cold", runs[0][0], runs[1][0], false)
		}
	}
}
