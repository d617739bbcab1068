package lp

import (
	"context"
	"math"
	"testing"
)

const testEps = 1e-6

func almost(a, b float64) bool { return math.Abs(a-b) <= testEps*(1+math.Abs(a)+math.Abs(b)) }

func mustSolve(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("%s: solve error: %v", p.Name, err)
	}
	return sol
}

func requireOptimal(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol := mustSolve(t, p)
	if sol.Status != StatusOptimal {
		t.Fatalf("%s: status = %v, want optimal", p.Name, sol.Status)
	}
	return sol
}

func TestMaximizeSingleVar(t *testing.T) {
	p := NewProblem("max-x", Maximize)
	x := p.AddVar("x", 0, Inf)
	p.SetObj(x, 1)
	p.AddConstraint("cap", NewExpr().Add(x, 1), LE, 5)
	sol := requireOptimal(t, p)
	if !almost(sol.Objective, 5) || !almost(sol.X[x], 5) {
		t.Fatalf("obj=%v x=%v, want 5", sol.Objective, sol.X[x])
	}
	if !almost(sol.Dual[0], 1) {
		t.Fatalf("dual=%v, want 1 (LE row in a max problem)", sol.Dual[0])
	}
}

func TestMinimizeWithGE(t *testing.T) {
	p := NewProblem("min-x", Minimize)
	x := p.AddVar("x", 0, Inf)
	p.SetObj(x, 3)
	p.AddConstraint("floor", NewExpr().Add(x, 1), GE, 4)
	sol := requireOptimal(t, p)
	if !almost(sol.Objective, 12) || !almost(sol.X[x], 4) {
		t.Fatalf("obj=%v x=%v, want 12/4", sol.Objective, sol.X[x])
	}
	// Minimize with GE row: dual >= 0 and strong duality 3*4 = y*4.
	if !almost(sol.Dual[0], 3) {
		t.Fatalf("dual=%v, want 3", sol.Dual[0])
	}
}

func TestTwoVarProduction(t *testing.T) {
	// Classic: max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18.
	// Optimum at (2, 6) with value 36.
	p := NewProblem("production", Maximize)
	x := p.AddVar("x", 0, Inf)
	y := p.AddVar("y", 0, Inf)
	p.SetObj(x, 3)
	p.SetObj(y, 5)
	p.AddConstraint("c1", NewExpr().Add(x, 1), LE, 4)
	p.AddConstraint("c2", NewExpr().Add(y, 2), LE, 12)
	p.AddConstraint("c3", NewExpr().Add(x, 3).Add(y, 2), LE, 18)
	sol := requireOptimal(t, p)
	if !almost(sol.Objective, 36) {
		t.Fatalf("obj=%v, want 36", sol.Objective)
	}
	if !almost(sol.X[x], 2) || !almost(sol.X[y], 6) {
		t.Fatalf("x=%v y=%v, want (2,6)", sol.X[x], sol.X[y])
	}
	// Known duals: y1=0, y2=3/2, y3=1.
	if !almost(sol.Dual[0], 0) || !almost(sol.Dual[1], 1.5) || !almost(sol.Dual[2], 1) {
		t.Fatalf("duals=%v, want [0 1.5 1]", sol.Dual)
	}
}

func TestEqualityConstraint(t *testing.T) {
	p := NewProblem("eq", Minimize)
	x := p.AddVar("x", 0, Inf)
	y := p.AddVar("y", 0, Inf)
	p.SetObj(x, 2)
	p.SetObj(y, 1)
	p.AddConstraint("sum", NewExpr().Add(x, 1).Add(y, 1), EQ, 10)
	sol := requireOptimal(t, p)
	if !almost(sol.Objective, 10) || !almost(sol.X[y], 10) || !almost(sol.X[x], 0) {
		t.Fatalf("got obj=%v x=%v y=%v", sol.Objective, sol.X[x], sol.X[y])
	}
}

func TestFreeVariable(t *testing.T) {
	// min x subject to x >= -7 with x free: the constraint binds from below.
	p := NewProblem("free", Minimize)
	x := p.AddVar("x", math.Inf(-1), Inf)
	p.SetObj(x, 1)
	p.AddConstraint("floor", NewExpr().Add(x, 1), GE, -7)
	sol := requireOptimal(t, p)
	if !almost(sol.X[x], -7) {
		t.Fatalf("x=%v, want -7", sol.X[x])
	}
}

func TestUpperBoundedVariable(t *testing.T) {
	p := NewProblem("ub", Maximize)
	x := p.AddVar("x", 1, 3)
	p.SetObj(x, 2)
	sol := requireOptimal(t, p)
	if !almost(sol.X[x], 3) || !almost(sol.Objective, 6) {
		t.Fatalf("x=%v obj=%v, want 3/6", sol.X[x], sol.Objective)
	}
}

func TestMirroredVariable(t *testing.T) {
	// x in (-inf, 2], maximize x => 2.
	p := NewProblem("mirror", Maximize)
	x := p.AddVar("x", math.Inf(-1), 2)
	p.SetObj(x, 1)
	sol := requireOptimal(t, p)
	if !almost(sol.X[x], 2) {
		t.Fatalf("x=%v, want 2", sol.X[x])
	}
}

func TestNegativeLowerBound(t *testing.T) {
	p := NewProblem("neglo", Minimize)
	x := p.AddVar("x", -5, 5)
	p.SetObj(x, 1)
	p.AddConstraint("c", NewExpr().Add(x, 1), GE, -3)
	sol := requireOptimal(t, p)
	if !almost(sol.X[x], -3) {
		t.Fatalf("x=%v, want -3", sol.X[x])
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem("infeasible", Maximize)
	x := p.AddVar("x", 0, Inf)
	p.SetObj(x, 1)
	p.AddConstraint("a", NewExpr().Add(x, 1), LE, 1)
	p.AddConstraint("b", NewExpr().Add(x, 1), GE, 2)
	sol := mustSolve(t, p)
	if sol.Status != StatusInfeasible {
		t.Fatalf("status=%v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem("unbounded", Maximize)
	x := p.AddVar("x", 0, Inf)
	p.SetObj(x, 1)
	p.AddConstraint("floor", NewExpr().Add(x, 1), GE, 1)
	sol := mustSolve(t, p)
	if sol.Status != StatusUnbounded {
		t.Fatalf("status=%v, want unbounded", sol.Status)
	}
}

func TestDegenerate(t *testing.T) {
	// Multiple constraints meeting at the optimum; classic cycling-prone form.
	p := NewProblem("degenerate", Maximize)
	x := p.AddVar("x", 0, Inf)
	y := p.AddVar("y", 0, Inf)
	p.SetObj(x, 1)
	p.SetObj(y, 1)
	p.AddConstraint("a", NewExpr().Add(x, 1).Add(y, 1), LE, 1)
	p.AddConstraint("b", NewExpr().Add(x, 1), LE, 1)
	p.AddConstraint("c", NewExpr().Add(y, 1), LE, 1)
	p.AddConstraint("d", NewExpr().Add(x, 2).Add(y, 1), LE, 2)
	sol := requireOptimal(t, p)
	if !almost(sol.Objective, 1) {
		t.Fatalf("obj=%v, want 1", sol.Objective)
	}
}

func TestRepeatedTermsAreSummed(t *testing.T) {
	p := NewProblem("dup-terms", Maximize)
	x := p.AddVar("x", 0, Inf)
	p.SetObj(x, 1)
	// 0.5x + 0.5x <= 3  =>  x <= 3.
	p.AddConstraint("c", NewExpr().Add(x, 0.5).Add(x, 0.5), LE, 3)
	sol := requireOptimal(t, p)
	if !almost(sol.X[x], 3) {
		t.Fatalf("x=%v, want 3", sol.X[x])
	}
}

func TestBoundOverride(t *testing.T) {
	p := NewProblem("override", Maximize)
	x := p.AddVar("x", 0, 10)
	p.SetObj(x, 1)
	sol, err := p.SolveWith(SolveOptions{BoundOverride: map[VarID][2]float64{x: {0, 4}}})
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("err=%v status=%v", err, sol.Status)
	}
	if !almost(sol.X[x], 4) {
		t.Fatalf("x=%v, want 4 under override", sol.X[x])
	}
	// The problem itself must be untouched.
	if lo, hi := p.Bounds(x); lo != 0 || hi != 10 {
		t.Fatalf("bounds mutated to [%v,%v]", lo, hi)
	}
	sol2 := requireOptimal(t, p)
	if !almost(sol2.X[x], 10) {
		t.Fatalf("x=%v after override removed, want 10", sol2.X[x])
	}
}

func TestFixedVariableViaOverride(t *testing.T) {
	p := NewProblem("fix", Maximize)
	x := p.AddVar("x", 0, 10)
	y := p.AddVar("y", 0, 10)
	p.SetObj(x, 1)
	p.SetObj(y, 1)
	p.AddConstraint("c", NewExpr().Add(x, 1).Add(y, 1), LE, 12)
	sol, err := p.SolveWith(SolveOptions{BoundOverride: map[VarID][2]float64{x: {0, 0}}})
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("err=%v status=%v", err, sol.Status)
	}
	if !almost(sol.X[x], 0) || !almost(sol.X[y], 10) {
		t.Fatalf("x=%v y=%v, want 0/10", sol.X[x], sol.X[y])
	}
}

func TestClone(t *testing.T) {
	p := NewProblem("orig", Maximize)
	x := p.AddVar("x", 0, 5)
	p.SetObj(x, 1)
	p.AddConstraint("c", NewExpr().Add(x, 1), LE, 3)
	q := p.Clone()
	q.SetBounds(x, 0, 1)
	q.AddConstraint("extra", NewExpr().Add(x, 1), GE, 0)
	if p.NumConstraints() != 1 {
		t.Fatalf("clone mutation leaked into original")
	}
	sol := requireOptimal(t, p)
	if !almost(sol.X[x], 3) {
		t.Fatalf("x=%v, want 3", sol.X[x])
	}
}

func TestNegativeRHS(t *testing.T) {
	// -x <= -4 is x >= 4.
	p := NewProblem("negrhs", Minimize)
	x := p.AddVar("x", 0, Inf)
	p.SetObj(x, 1)
	p.AddConstraint("c", NewExpr().Add(x, -1), LE, -4)
	sol := requireOptimal(t, p)
	if !almost(sol.X[x], 4) {
		t.Fatalf("x=%v, want 4", sol.X[x])
	}
}

func TestStrongDualityOnTransport(t *testing.T) {
	// Small transportation problem: 2 sources (supply 20, 30),
	// 3 sinks (demand 10, 25, 15), costs c[i][j].
	cost := [2][3]float64{{8, 6, 10}, {9, 12, 13}}
	supply := [2]float64{20, 30}
	demand := [3]float64{10, 25, 15}
	p := NewProblem("transport", Minimize)
	var xs [2][3]VarID
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			v := p.AddVar("x", 0, Inf)
			p.SetObj(v, cost[i][j])
			xs[i][j] = v
		}
	}
	for i := 0; i < 2; i++ {
		e := NewExpr()
		for j := 0; j < 3; j++ {
			e = e.Add(xs[i][j], 1)
		}
		p.AddConstraint("supply", e, LE, supply[i])
	}
	for j := 0; j < 3; j++ {
		e := NewExpr()
		for i := 0; i < 2; i++ {
			e = e.Add(xs[i][j], 1)
		}
		p.AddConstraint("demand", e, GE, demand[j])
	}
	sol := requireOptimal(t, p)
	// Primal feasibility.
	for i := 0; i < 2; i++ {
		tot := 0.0
		for j := 0; j < 3; j++ {
			tot += sol.X[xs[i][j]]
		}
		if tot > supply[i]+testEps {
			t.Fatalf("supply %d violated: %v > %v", i, tot, supply[i])
		}
	}
	// Strong duality: obj == y'b over all rows.
	dualObj := 0.0
	rhs := []float64{20, 30, 10, 25, 15}
	for i, y := range sol.Dual {
		dualObj += y * rhs[i]
	}
	if !almost(sol.Objective, dualObj) {
		t.Fatalf("strong duality violated: primal=%v dual=%v (duals %v)",
			sol.Objective, dualObj, sol.Dual)
	}
}

func TestSolutionStringer(t *testing.T) {
	s := &Solution{Status: StatusOptimal, Objective: 1.5, Iterations: 3}
	if got := s.String(); got == "" {
		t.Fatal("empty String()")
	}
}

func TestSenseAndRelStrings(t *testing.T) {
	if Minimize.String() != "minimize" || Maximize.String() != "maximize" {
		t.Fatal("Sense.String broken")
	}
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "==" {
		t.Fatal("Rel.String broken")
	}
	for _, st := range []Status{StatusOptimal, StatusInfeasible, StatusUnbounded, StatusIterLimit} {
		if st.String() == "" {
			t.Fatal("Status.String broken")
		}
	}
}

func TestAddVarPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for lo > hi")
		}
	}()
	p := NewProblem("bad", Minimize)
	p.AddVar("x", 2, 1)
}

func TestExprEval(t *testing.T) {
	e := NewExpr().Add(0, 2).Add(1, -1)
	if got := e.Eval([]float64{3, 4}); !almost(got, 2) {
		t.Fatalf("eval=%v, want 2", got)
	}
	e2 := NewExpr().AddExpr(e, 2)
	if got := e2.Eval([]float64{3, 4}); !almost(got, 4) {
		t.Fatalf("scaled eval=%v, want 4", got)
	}
}

func TestSolveWithCancelledContext(t *testing.T) {
	p := NewProblem("ctx", Maximize)
	x := p.AddVar("x", 0, 10)
	p.SetObj(x, 1)
	p.AddConstraint("c", NewExpr().Add(x, 1), LE, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := p.SolveWith(SolveOptions{Ctx: ctx})
	if err != nil {
		t.Fatalf("cancelled solve errored: %v", err)
	}
	if sol.Status != StatusInterrupted {
		t.Fatalf("status = %v, want interrupted", sol.Status)
	}
	if sol.Status.String() != "interrupted" {
		t.Fatalf("status string = %q", sol.Status.String())
	}
	// A live context leaves the solve untouched.
	sol, err = p.SolveWith(SolveOptions{Ctx: context.Background()})
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("background-ctx solve: %v %v", err, sol.Status)
	}
}
