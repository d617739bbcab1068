package mcf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/demand"
	"repro/internal/kkt"
	"repro/internal/lp"
	"repro/internal/topology"
)

// objectiveAt evaluates the problem's objective at x.
func objectiveAt(p *lp.Problem, x []float64) float64 {
	obj := 0.0
	for v := 0; v < p.NumVars(); v++ {
		obj += p.Obj(lp.VarID(v)) * x[v]
	}
	return obj
}

// checkFeasible asserts x satisfies every variable bound and constraint of
// p within a small tolerance.
func checkFeasible(t *testing.T, p *lp.Problem, x []float64) {
	t.Helper()
	const tol = 1e-7
	for v := 0; v < p.NumVars(); v++ {
		lo, hi := p.Bounds(lp.VarID(v))
		if x[v] < lo-tol || x[v] > hi+tol {
			t.Errorf("X[%d] = %v outside bounds [%v, %v]", v, x[v], lo, hi)
		}
	}
	for c := 0; c < p.NumConstraints(); c++ {
		expr, rel, rhs := p.Constraint(lp.ConID(c))
		lhs := 0.0
		for _, tm := range expr.Terms {
			lhs += tm.Coef * x[tm.Var]
		}
		scale := 1 + math.Abs(rhs)
		switch rel {
		case lp.LE:
			if lhs > rhs+tol*scale {
				t.Errorf("constraint %s violated: %v > %v", p.ConName(lp.ConID(c)), lhs, rhs)
			}
		case lp.GE:
			if lhs < rhs-tol*scale {
				t.Errorf("constraint %s violated: %v < %v", p.ConName(lp.ConID(c)), lhs, rhs)
			}
		default:
			if math.Abs(lhs-rhs) > tol*scale {
				t.Errorf("constraint %s violated: %v != %v", p.ConName(lp.ConID(c)), lhs, rhs)
			}
		}
	}
}

// randomInstance draws a seeded random demand support with volumes in
// (0, 100] — the same input class the gap searches explore.
func randomInstance(t *testing.T, g *topology.Graph, pairs int, paths int, seed int64) *Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	set := demand.RandomPairs(g, pairs, rng)
	vols := make([]float64, set.Len())
	for k := range vols {
		vols[k] = float64(1+rng.Intn(100)) * (0.5 + 0.5*rng.Float64())
	}
	set.SetVolumes(vols)
	inst, err := NewInstance(g, set, paths)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// dpPhase2Problem reconstructs the DP phase-2 residual LP exactly as
// SolveDemandPinning builds it, so the differential can cover that shape
// without exporting the builder.
func dpPhase2Problem(t *testing.T, inst *Instance, threshold float64) *lp.Problem {
	t.Helper()
	residual, ok := residualAfterPinning(inst, threshold)
	if !ok {
		t.Fatalf("pinning infeasible at threshold %g", threshold)
	}
	pinned := Pinned(inst, threshold)
	vols := inst.Demands.Volumes()
	p := lp.NewProblem("dp-phase2", lp.Maximize)
	varOf := make(map[[2]int]lp.VarID)
	for k, ps := range inst.Paths {
		if pinned[k] {
			continue
		}
		e := lp.NewExpr()
		for pi := range ps {
			v := p.AddVar(fmt.Sprintf("f%d.%d", k, pi), 0, lp.Inf)
			p.SetObj(v, 1)
			varOf[[2]int{k, pi}] = v
			e = e.Add(v, 1)
		}
		p.AddConstraint(fmt.Sprintf("dem%d", k), e, lp.LE, vols[k])
	}
	for e := 0; e < inst.G.NumEdges(); e++ {
		expr := lp.NewExpr()
		for k, ps := range inst.Paths {
			if pinned[k] {
				continue
			}
			for pi, path := range ps {
				if path.Contains(e) {
					expr = expr.Add(varOf[[2]int{k, pi}], 1)
				}
			}
		}
		if len(expr.Terms) > 0 {
			p.AddConstraint(fmt.Sprintf("cap%d", e), expr, lp.LE, residual[e])
		}
	}
	return p
}

// TestOneShotPresolveDifferential seals the presolve wiring of the
// heuristic-side one-shot LPs (oneShotOpts): on every LP shape this package
// solves cold — the OPT/tesolve inner max-flow, the POP per-partition inner
// with fractional capacities and a restricted support, and the DP phase-2
// residual LP — a presolved solve must agree with the unpresolved reference
// on everything the gap pipeline consumes: the status, the objective value,
// a primal X that is feasible and attains that value, and duals that
// certify it (strong duality). Coordinatewise X equality is deliberately
// NOT asserted: these flow LPs have degenerate optimal faces, and
// lp.SolveOptions.Presolve documents that a presolved solve may return a
// different vertex of the same face — which is exactly why presolve stays
// out of the branch-and-bound path (DESIGN.md) and is confined to these
// one-shot value queries, whose downstream consumers (gap values, polish
// pricing, duality certificates) read only the quantities pinned here.
func TestOneShotPresolveDifferential(t *testing.T) {
	type namedLP struct {
		name string
		p    *lp.Problem
		xs   []lp.VarID
	}
	var corpus []namedLP
	addInner := func(name string, in *kkt.InnerLP) {
		t.Helper()
		p, xs, err := innerProblem(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		corpus = append(corpus, namedLP{name: name, p: p, xs: xs})
	}

	fig1 := figure1Instance(t)
	vols := fig1.Demands.Volumes()
	addInner("figure1-opt", BuildInnerMaxFlow("opt", fig1, func(k int) kkt.AffineRHS {
		return kkt.Constant(vols[k])
	}, 1, nil, 0).LP)

	b4 := randomInstance(t, topology.B4(), 8, 2, 11)
	b4vols := b4.Demands.Volumes()
	addInner("b4-opt", BuildInnerMaxFlow("opt", b4, func(k int) kkt.AffineRHS {
		return kkt.Constant(b4vols[k])
	}, 1, nil, 0).LP)

	// POP partition shape: halved capacities, only half the demands active —
	// presolve's fixed/empty-column elimination actually fires here.
	swan := randomInstance(t, topology.SWAN(), 10, 3, 7)
	swanVols := swan.Demands.Volumes()
	addInner("swan-pop-partition", BuildInnerMaxFlow("pop0", swan, func(k int) kkt.AffineRHS {
		return kkt.Constant(swanVols[k])
	}, 0.5, func(k int) bool { return k%2 == 0 }, 0).LP)

	abi := randomInstance(t, topology.Abilene(), 6, 2, 3)
	abiVols := abi.Demands.Volumes()
	addInner("abilene-opt", BuildInnerMaxFlow("opt", abi, func(k int) kkt.AffineRHS {
		return kkt.Constant(abiVols[k])
	}, 1, nil, 0).LP)

	corpus = append(corpus, namedLP{name: "b4-dp-phase2", p: dpPhase2Problem(t, b4, 30)})

	// Subtests are named "<lp>/dense" after the tableau engine both solves
	// run on.
	for _, tc := range corpus {
		t.Run(tc.name+"/dense", func(t *testing.T) {
			ref, err := tc.p.SolveWith(lp.SolveOptions{})
			if err != nil {
				t.Fatal(err)
			}
			pre, err := tc.p.SolveWith(lp.SolveOptions{Presolve: true})
			if err != nil {
				t.Fatal(err)
			}
			if pre.Status != ref.Status {
				t.Fatalf("status with presolve %v, without %v", pre.Status, ref.Status)
			}
			if ref.Status != lp.StatusOptimal {
				t.Fatalf("reference solve not optimal: %v", ref.Status)
			}
			objTol := 1e-9 * (1 + math.Abs(ref.Objective))
			if math.Abs(pre.Objective-ref.Objective) > objTol {
				t.Errorf("objective with presolve %v, without %v (delta %g)",
					pre.Objective, ref.Objective, pre.Objective-ref.Objective)
			}
			if len(pre.X) != len(ref.X) {
				t.Fatalf("X length with presolve %d, without %d", len(pre.X), len(ref.X))
			}
			// The presolved X must be a genuine optimum of the ORIGINAL
			// problem: feasible against every constraint and bound, and
			// attaining the reference objective value.
			checkFeasible(t, tc.p, pre.X)
			if got := objectiveAt(tc.p, pre.X); math.Abs(got-ref.Objective) > 1e-6*(1+math.Abs(ref.Objective)) {
				t.Errorf("objective evaluated at presolved X = %v, want %v", got, ref.Objective)
			}
			// Both dual vectors must certify their claimed objective by
			// strong duality. Coordinatewise equality is not required:
			// on a degenerate face the optimal multipliers are not
			// unique, and presolve may legitimately return a different
			// certifying vector.
			if len(pre.Dual) != len(ref.Dual) {
				t.Fatalf("dual length with presolve %d, without %d", len(pre.Dual), len(ref.Dual))
			}
			for _, c := range []struct {
				name string
				sol  *lp.Solution
			}{{"presolved", pre}, {"reference", ref}} {
				name, sol := c.name, c.sol
				dobj, err := tc.p.DualObjective(sol)
				if err != nil {
					t.Fatalf("%s duals do not certify: %v", name, err)
				}
				if math.Abs(dobj-sol.Objective) > 1e-6*(1+math.Abs(sol.Objective)) {
					t.Errorf("%s dual objective %v, primal %v", name, dobj, sol.Objective)
				}
			}
		})
	}
}
