package lp

import (
	"math"
	"testing"
)

// FuzzSimplexConsistency decodes fuzz bytes into a small LP and checks the
// solver never panics and, when it claims optimality, returns a feasible
// point whose objective matches c'x.
func FuzzSimplexConsistency(f *testing.F) {
	f.Add([]byte{10, 20, 30, 40, 50, 60, 70, 80})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 1, 128, 7, 9, 200, 33, 21, 90, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, vars, ok := fuzzLP(data)
		if !ok {
			return
		}
		nVars := len(vars)
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("solver error: %v", err)
		}
		if sol.Status != StatusOptimal {
			return // infeasible/unbounded are legitimate outcomes
		}
		// Feasibility within tolerance.
		for ci := 0; ci < p.NumConstraints(); ci++ {
			expr, rel, rhs := p.Constraint(ConID(ci))
			v := expr.Eval(sol.X)
			switch rel {
			case LE:
				if v > rhs+1e-4 {
					t.Fatalf("LE row violated: %v > %v", v, rhs)
				}
			case GE:
				if v < rhs-1e-4 {
					t.Fatalf("GE row violated: %v < %v", v, rhs)
				}
			case EQ:
				if math.Abs(v-rhs) > 1e-4 {
					t.Fatalf("EQ row violated: %v != %v", v, rhs)
				}
			}
		}
		obj := 0.0
		for j := range vars {
			if sol.X[j] < -1e-6 || sol.X[j] > 20+1e-6 {
				t.Fatalf("variable out of box: %v", sol.X[j])
			}
			obj += p.Obj(vars[j]) * sol.X[j]
		}
		if math.Abs(obj-sol.Objective) > 1e-4*(1+math.Abs(obj)) {
			t.Fatalf("objective mismatch: %v vs %v", obj, sol.Objective)
		}
		// Strong duality: the returned multipliers must certify the optimal
		// objective exactly (silent pivoting bugs fail here long before they
		// corrupt a feasibility check).
		dual, err := p.DualObjective(sol)
		if err != nil {
			t.Fatalf("dual certificate: %v", err)
		}
		if math.Abs(dual-sol.Objective) > 1e-4*(1+math.Abs(sol.Objective)) {
			t.Fatalf("strong duality violated: primal %v vs dual %v", sol.Objective, dual)
		}
		// Warm-start consistency: capture the basis, fix one variable at its
		// optimal value (a branch-and-bound style child), and require the warm
		// path to agree with a cold solve of the same child — same status and,
		// when optimal, the same objective.
		capt, err := p.SolveWith(SolveOptions{CaptureBasis: true})
		if err != nil || capt.Status != StatusOptimal || capt.Basis == nil {
			t.Fatalf("capture re-solve failed: %v status=%v basis=%v", err, capt.Status, capt.Basis)
		}
		j := int(data[0]) % nVars
		v := capt.X[j]
		ov := map[VarID][2]float64{vars[j]: {v, v}}
		coldChild, err := p.SolveWith(SolveOptions{BoundOverride: ov})
		if err != nil {
			t.Fatalf("cold child: %v", err)
		}
		warmChild, err := p.SolveWith(SolveOptions{BoundOverride: ov, WarmStart: capt.Basis})
		if err != nil {
			t.Fatalf("warm child: %v", err)
		}
		if warmChild.Status != coldChild.Status {
			t.Fatalf("warm child status %v, cold %v", warmChild.Status, coldChild.Status)
		}
		if coldChild.Status == StatusOptimal &&
			math.Abs(warmChild.Objective-coldChild.Objective) > 1e-6*(1+math.Abs(coldChild.Objective)) {
			t.Fatalf("warm child objective %v diverged from cold %v (warm=%v fallback=%v)",
				warmChild.Objective, coldChild.Objective, warmChild.Warm, warmChild.WarmFallback)
		}
	})
}

// fuzzLP decodes fuzz bytes into a small LP over a bounded box: the first
// byte picks the variable count, the second the row count, the third the
// sense, and the rest become coefficients in [-6, 6]. ok is false when the
// input is too short to decode.
func fuzzLP(data []byte) (p *Problem, vars []VarID, ok bool) {
	if len(data) < 4 {
		return nil, nil, false
	}
	nVars := 1 + int(data[0]%4)
	nCons := 1 + int(data[1]%4)
	sense := Minimize
	if data[2]%2 == 1 {
		sense = Maximize
	}
	vals := data[3:]
	at := 0
	next := func() float64 {
		if at >= len(vals) {
			return 1
		}
		v := float64(int(vals[at])%13 - 6)
		at++
		return v
	}
	p = NewProblem("fuzz", sense)
	vars = make([]VarID, nVars)
	for j := range vars {
		vars[j] = p.AddVar("x", 0, 20) // bounded box keeps it solvable
		p.SetObj(vars[j], next())
	}
	for i := 0; i < nCons; i++ {
		e := NewExpr()
		for j := 0; j < nVars; j++ {
			if c := next(); c != 0 {
				e = e.Add(vars[j], c)
			}
		}
		if len(e.Terms) == 0 {
			continue
		}
		rel := []Rel{LE, GE, EQ}[int(vals[at%max(len(vals), 1)]%3)]
		p.AddConstraint("c", e, rel, next()*3)
	}
	return p, vars, true
}
