package lp

import (
	"math"
	"math/rand"
	"testing"
)

// Differential oracle: the fixture table below and seeded random LPs are
// solved along more than one path (with and without basis capture,
// presolved, warm-started children) and checked against each other and
// against the strong-duality certificate. The table also feeds the bitwise
// golden corpus (golden_test.go).

// diffTol is the tolerance for two paths that share the canonical answer
// extraction (finishSolution + tiebreak). Deliberately far tighter than the
// feasibility tolerances: any real divergence is a pivoting bug, not
// roundoff.
const diffTol = 1e-9

// lpFixtures enumerates the differential corpus: one builder per shape the
// solver supports (senses, relations, bound patterns, degeneracy, the
// classic cycling instances, infeasible and unbounded outcomes). Builders
// return a fresh Problem each call so tests can mutate freely.
func lpFixtures() map[string]func() *Problem {
	return map[string]func() *Problem{
		"single-var-max": func() *Problem {
			p := NewProblem("single-var-max", Maximize)
			x := p.AddVar("x", 0, 10)
			p.SetObj(x, 3)
			p.AddConstraint("cap", NewExpr().Add(x, 2), LE, 8)
			return p
		},
		"min-ge": func() *Problem {
			p := NewProblem("min-ge", Minimize)
			x := p.AddVar("x", 0, Inf)
			y := p.AddVar("y", 0, Inf)
			p.SetObj(x, 2)
			p.SetObj(y, 3)
			p.AddConstraint("need", NewExpr().Add(x, 1).Add(y, 2), GE, 4)
			return p
		},
		"production": func() *Problem {
			p := NewProblem("production", Maximize)
			x := p.AddVar("x", 0, Inf)
			y := p.AddVar("y", 0, Inf)
			p.SetObj(x, 3)
			p.SetObj(y, 5)
			p.AddConstraint("m1", NewExpr().Add(x, 1), LE, 4)
			p.AddConstraint("m2", NewExpr().Add(y, 2), LE, 12)
			p.AddConstraint("m3", NewExpr().Add(x, 3).Add(y, 2), LE, 18)
			return p
		},
		"equality": func() *Problem {
			p := NewProblem("equality", Minimize)
			x := p.AddVar("x", 0, Inf)
			y := p.AddVar("y", 0, Inf)
			p.SetObj(x, 1)
			p.SetObj(y, 2)
			p.AddConstraint("eq", NewExpr().Add(x, 1).Add(y, 1), EQ, 5)
			p.AddConstraint("floor", NewExpr().Add(y, 1), GE, 1)
			return p
		},
		"free-var": func() *Problem {
			p := NewProblem("free-var", Minimize)
			x := p.AddVar("x", math.Inf(-1), Inf)
			p.SetObj(x, 1)
			p.AddConstraint("floor", NewExpr().Add(x, 1), GE, -7)
			return p
		},
		"negative-bounds": func() *Problem {
			p := NewProblem("negative-bounds", Minimize)
			x := p.AddVar("x", -5, 5)
			y := p.AddVar("y", -2, 2)
			p.SetObj(x, 1)
			p.SetObj(y, -1)
			p.AddConstraint("c", NewExpr().Add(x, 1).Add(y, 1), GE, -3)
			return p
		},
		"fixed-var": func() *Problem {
			// lo == hi pins the column; it must stay blocked out of the
			// basis entirely, not just be priced last.
			p := NewProblem("fixed-var", Maximize)
			x := p.AddVar("x", 2, 2)
			y := p.AddVar("y", 0, 6)
			p.SetObj(x, 10)
			p.SetObj(y, 1)
			p.AddConstraint("c", NewExpr().Add(x, 1).Add(y, 1), LE, 7)
			return p
		},
		"degenerate": func() *Problem {
			p := NewProblem("degenerate", Maximize)
			x := p.AddVar("x", 0, Inf)
			y := p.AddVar("y", 0, Inf)
			p.SetObj(x, 1)
			p.SetObj(y, 1)
			p.AddConstraint("a", NewExpr().Add(x, 1).Add(y, 1), LE, 1)
			p.AddConstraint("b", NewExpr().Add(x, 1), LE, 1)
			p.AddConstraint("c", NewExpr().Add(y, 1), LE, 1)
			p.AddConstraint("d", NewExpr().Add(x, 2).Add(y, 1), LE, 2)
			return p
		},
		"beale": func() *Problem {
			// Beale's cycling example; exercises the Bland fallback.
			p := NewProblem("beale", Minimize)
			x1 := p.AddVar("x1", 0, Inf)
			x2 := p.AddVar("x2", 0, Inf)
			x3 := p.AddVar("x3", 0, Inf)
			p.SetObj(x1, -0.75)
			p.SetObj(x2, 150)
			p.SetObj(x3, -0.02)
			x4 := p.AddVar("x4", 0, Inf)
			p.SetObj(x4, 6)
			p.AddConstraint("r1", NewExpr().Add(x1, 0.25).Add(x2, -60).Add(x3, -0.04).Add(x4, 9), LE, 0)
			p.AddConstraint("r2", NewExpr().Add(x1, 0.5).Add(x2, -90).Add(x3, -0.02).Add(x4, 3), LE, 0)
			p.AddConstraint("r3", NewExpr().Add(x3, 1), LE, 1)
			return p
		},
		"klee-minty-3": func() *Problem {
			p := NewProblem("klee-minty-3", Maximize)
			xs := make([]VarID, 3)
			for j := range xs {
				xs[j] = p.AddVar("x", 0, Inf)
				p.SetObj(xs[j], math.Pow(2, float64(2-j)))
			}
			for i := 0; i < 3; i++ {
				e := NewExpr()
				for j := 0; j < i; j++ {
					e = e.Add(xs[j], math.Pow(2, float64(i-j+1)))
				}
				e = e.Add(xs[i], 1)
				p.AddConstraint("km", e, LE, math.Pow(5, float64(i+1)))
			}
			return p
		},
		"transport": func() *Problem {
			// Balanced 2x3 transportation problem: equality-heavy, degenerate,
			// with a dual vector worth certifying.
			p := NewProblem("transport", Minimize)
			cost := [2][3]float64{{4, 6, 9}, {5, 3, 8}}
			supply := [2]float64{30, 25}
			demand := [3]float64{15, 20, 20}
			var xv [2][3]VarID
			for i := 0; i < 2; i++ {
				for j := 0; j < 3; j++ {
					xv[i][j] = p.AddVar("x", 0, Inf)
					p.SetObj(xv[i][j], cost[i][j])
				}
			}
			for i := 0; i < 2; i++ {
				e := NewExpr()
				for j := 0; j < 3; j++ {
					e = e.Add(xv[i][j], 1)
				}
				p.AddConstraint("supply", e, EQ, supply[i])
			}
			for j := 0; j < 3; j++ {
				e := NewExpr()
				for i := 0; i < 2; i++ {
					e = e.Add(xv[i][j], 1)
				}
				p.AddConstraint("demand", e, EQ, demand[j])
			}
			return p
		},
		"infeasible": func() *Problem {
			p := NewProblem("infeasible", Maximize)
			x := p.AddVar("x", 0, Inf)
			p.SetObj(x, 1)
			p.AddConstraint("a", NewExpr().Add(x, 1), LE, 1)
			p.AddConstraint("b", NewExpr().Add(x, 1), GE, 2)
			return p
		},
		"unbounded": func() *Problem {
			p := NewProblem("unbounded", Maximize)
			x := p.AddVar("x", 0, Inf)
			p.SetObj(x, 1)
			p.AddConstraint("floor", NewExpr().Add(x, 1), GE, 1)
			return p
		},
		"negative-rhs": func() *Problem {
			p := NewProblem("negative-rhs", Maximize)
			x := p.AddVar("x", 0, 10)
			y := p.AddVar("y", 0, 10)
			p.SetObj(x, 1)
			p.SetObj(y, 2)
			p.AddConstraint("flip", NewExpr().Add(x, -1).Add(y, -1), GE, -8)
			return p
		},
		"maxflow-ish": func() *Problem {
			// The shape the paper's OPT solves take: many path variables, LE
			// capacity rows, a sparse incidence structure.
			p := NewProblem("maxflow-ish", Maximize)
			rng := rand.New(rand.NewSource(7))
			const nPaths, nEdges = 24, 10
			paths := make([]VarID, nPaths)
			onEdge := make([][]VarID, nEdges)
			for i := range paths {
				paths[i] = p.AddVar("f", 0, Inf)
				p.SetObj(paths[i], 1)
				// each path crosses 2-4 random edges
				k := 2 + rng.Intn(3)
				for e := 0; e < k; e++ {
					idx := rng.Intn(nEdges)
					onEdge[idx] = append(onEdge[idx], paths[i])
				}
			}
			for e, vs := range onEdge {
				if len(vs) == 0 {
					continue
				}
				expr := NewExpr()
				for _, v := range vs {
					expr = expr.Add(v, 1)
				}
				p.AddConstraint("cap", expr, LE, 10+float64(e))
			}
			return p
		},
	}
}

// assertPrimalIdentical compares status, objective, point and support at
// certificate precision. Duals are checked separately: on primal-degenerate
// problems several dual vectors certify the same canonical vertex, and which
// one a solve reports depends on the terminal basis (warm vs cold may
// legitimately differ) — but two solves on the SAME path must still match.
func assertPrimalIdentical(t *testing.T, name string, ref, got *Solution) {
	t.Helper()
	if got.Status != ref.Status {
		t.Fatalf("%s: status %v vs reference %v", name, got.Status, ref.Status)
	}
	if ref.Status != StatusOptimal {
		return
	}
	if math.Abs(got.Objective-ref.Objective) > diffTol*(1+math.Abs(ref.Objective)) {
		t.Fatalf("%s: objective %.15g vs reference %.15g", name, got.Objective, ref.Objective)
	}
	if len(got.X) != len(ref.X) {
		t.Fatalf("%s: |X| %d vs %d", name, len(got.X), len(ref.X))
	}
	for j := range ref.X {
		if math.Abs(got.X[j]-ref.X[j]) > diffTol*(1+math.Abs(ref.X[j])) {
			t.Fatalf("%s: X[%d] = %.15g vs reference %.15g", name, j, got.X[j], ref.X[j])
		}
		// Support identity is stricter than closeness on degenerate faces:
		// the tiebreak must land both solves on the same vertex.
		if (math.Abs(got.X[j]) > feasTol) != (math.Abs(ref.X[j]) > feasTol) {
			t.Fatalf("%s: X[%d] support differs: %.15g vs %.15g", name, j, got.X[j], ref.X[j])
		}
	}
}

// assertSolutionsIdentical is the full contract — primal identity plus an
// identical dual vector.
func assertSolutionsIdentical(t *testing.T, name string, ref, got *Solution) {
	t.Helper()
	assertPrimalIdentical(t, name, ref, got)
	if ref.Status != StatusOptimal {
		return
	}
	if len(got.Dual) != len(ref.Dual) {
		t.Fatalf("%s: |duals| %d vs %d", name, len(got.Dual), len(ref.Dual))
	}
	for i := range ref.Dual {
		if math.Abs(got.Dual[i]-ref.Dual[i]) > diffTol*(1+math.Abs(ref.Dual[i])) {
			t.Fatalf("%s: dual[%d] = %.15g vs reference %.15g", name, i, got.Dual[i], ref.Dual[i])
		}
	}
}

// TestDifferentialWarmDenseVsSparse branches every optimal fixture the way
// branch-and-bound does — fix one variable at the floor of its relaxation
// value — and warm-starts the child from the parent's snapshot along each
// route a snapshot travels: in memory, and through the wire codec as a
// checkpoint carries it. Each warm child must match the cold child on
// status, objective and canonical point, and the warm children must match
// EACH OTHER exactly, duals and pivot count included: they start from the
// same snapshot, so any spread between them is a codec or install bug, not
// dual multiplicity. (The name dates from when a sparse revised simplex sat
// beside the dense tableau and the snapshot also crossed engines.)
func TestDifferentialWarmDenseVsSparse(t *testing.T) {
	for name, build := range lpFixtures() {
		probe, err := build().SolveWith(SolveOptions{})
		if err != nil {
			t.Fatalf("%s probe: %v", name, err)
		}
		if probe.Status != StatusOptimal {
			// A warm child needs an optimal parent to branch from.
			continue
		}
		t.Run(name, func(t *testing.T) {
			// Branch on the first fractional-ish variable, else the first.
			bv := VarID(0)
			for j, v := range probe.X {
				if math.Abs(v-math.Round(v)) > 1e-6 {
					bv = VarID(j)
					break
				}
			}
			fix := math.Floor(probe.X[bv])
			ov := map[VarID][2]float64{bv: {fix, fix}}
			coldChild, err := build().SolveWith(SolveOptions{BoundOverride: ov})
			if err != nil {
				t.Fatalf("cold child: %v", err)
			}
			capt, err := build().SolveWith(SolveOptions{CaptureBasis: true})
			if err != nil || capt.Basis == nil {
				t.Fatalf("capture: %v", err)
			}
			blob, err := capt.Basis.MarshalBinary()
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			wire, err := UnmarshalBasis(blob)
			if err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			var warmRef *Solution
			for _, route := range []struct {
				name  string
				basis *Basis
			}{{"memory", capt.Basis}, {"wire", wire}} {
				warm, err := build().SolveWith(SolveOptions{BoundOverride: ov, WarmStart: route.basis})
				if err != nil {
					t.Fatalf("warm via %s: %v", route.name, err)
				}
				if warm.Status != coldChild.Status {
					t.Fatalf("warm via %s: status %v vs cold %v", route.name, warm.Status, coldChild.Status)
				}
				if coldChild.Status != StatusOptimal {
					continue
				}
				assertPrimalIdentical(t, name+" (warm via "+route.name+" vs cold)", coldChild, warm)
				if warmRef == nil {
					warmRef = warm
					continue
				}
				assertSolutionsIdentical(t, name+" (warm spread)", warmRef, warm)
				if warm.Iterations != warmRef.Iterations || warm.Warm != warmRef.Warm ||
					warm.WarmFallback != warmRef.WarmFallback {
					t.Fatalf("warm via %s: pivots %d warm=%t fallback=%t vs memory %d %t %t",
						route.name, warm.Iterations, warm.Warm, warm.WarmFallback,
						warmRef.Iterations, warmRef.Warm, warmRef.WarmFallback)
				}
			}
		})
	}
}

// TestDifferentialRandomLPs sweeps seeded random instances — the
// property-test analogue of the fixture table, catching divergence on shapes
// nobody thought to enshrine. Capturing the basis must not perturb the solve
// (identical answer and pivot count), and every optimal answer must pass the
// strong-duality certificate.
func TestDifferentialRandomLPs(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nVars := 1 + rng.Intn(9)
		nCons := 1 + rng.Intn(9)
		p, _ := randomLP(rng, nVars, nCons)
		plain, err := p.SolveWith(SolveOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		capt, err := p.SolveWith(SolveOptions{CaptureBasis: true})
		if err != nil {
			t.Fatalf("seed %d capture: %v", seed, err)
		}
		assertSolutionsIdentical(t, "random", plain, capt)
		if capt.Iterations != plain.Iterations {
			t.Fatalf("seed %d: basis capture moved the pivot count: %d vs %d", seed, capt.Iterations, plain.Iterations)
		}
		if plain.Status != StatusOptimal {
			continue
		}
		dual, err := p.DualObjective(plain)
		if err != nil {
			t.Fatalf("seed %d: dual certificate: %v", seed, err)
		}
		if math.Abs(dual-plain.Objective) > 1e-6*(1+math.Abs(plain.Objective)) {
			t.Fatalf("seed %d: strong duality violated: primal %v dual %v", seed, plain.Objective, dual)
		}
	}
}

// TestDifferentialPresolve runs every fixture with presolve on and requires
// the same status and objective as the raw dense solve, with the returned
// duals still certifying optimality exactly (strong duality). Presolve may
// legitimately report a different vertex of a degenerate optimal face, so
// the point itself is only checked for feasibility-by-certificate, not
// equality.
func TestDifferentialPresolve(t *testing.T) {
	for name, build := range lpFixtures() {
		t.Run(name, func(t *testing.T) {
			ref, err := build().SolveWith(SolveOptions{})
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			p := build()
			pre, err := p.SolveWith(SolveOptions{Presolve: true})
			if err != nil {
				t.Fatalf("presolve: %v", err)
			}
			if pre.Status != ref.Status {
				t.Fatalf("presolve: status %v vs %v", pre.Status, ref.Status)
			}
			if ref.Status != StatusOptimal {
				return
			}
			if math.Abs(pre.Objective-ref.Objective) > 1e-7*(1+math.Abs(ref.Objective)) {
				t.Fatalf("presolve: objective %.15g vs %.15g", pre.Objective, ref.Objective)
			}
			dual, err := p.DualObjective(pre)
			if err != nil {
				t.Fatalf("presolve: dual certificate: %v", err)
			}
			if math.Abs(dual-pre.Objective) > 1e-6*(1+math.Abs(pre.Objective)) {
				t.Fatalf("presolve: strong duality violated: primal %v dual %v", pre.Objective, dual)
			}
		})
	}
}
