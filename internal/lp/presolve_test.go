package lp

import (
	"math"
	"testing"
)

// Presolve golden instances: each test hand-builds a problem whose reduction
// is fully predictable, then checks the reduced dimensions (via the
// PresolveRows/PresolveCols counters), the exact postsolved point, the exact
// postsolved duals, and the strong-duality certificate. Each case runs as
// "<case>/dense": presolve hands the reduced problem to the dense tableau.

func presolveCase(t *testing.T, name string, build func() *Problem, check func(t *testing.T, sol *Solution, p *Problem)) {
	t.Helper()
	t.Run(name+"/dense", func(t *testing.T) {
		p := build()
		sol, err := p.SolveWith(SolveOptions{Presolve: true})
		if err != nil {
			t.Fatalf("solve: %v", err)
		}
		check(t, sol, p)
	})
}

func wantFloat(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("%s = %.15g, want %.15g", what, got, want)
	}
}

func certify(t *testing.T, p *Problem, sol *Solution) {
	t.Helper()
	dual, err := p.DualObjective(sol)
	if err != nil {
		t.Fatalf("dual certificate: %v", err)
	}
	if math.Abs(dual-sol.Objective) > 1e-7*(1+math.Abs(sol.Objective)) {
		t.Fatalf("strong duality violated: primal %v, dual %v", sol.Objective, dual)
	}
}

// TestPresolveEmptyRow: a row whose coefficients all cancel is removed with
// dual exactly 0; a contradictory empty row is infeasible outright.
func TestPresolveEmptyRow(t *testing.T) {
	presolveCase(t, "consistent", func() *Problem {
		p := NewProblem("empty-row", Maximize)
		x := p.AddVar("x", 0, 5)
		p.SetObj(x, 2)
		// The two x terms cancel: an empty row with rhs 3 >= 0, harmless.
		p.AddConstraint("zero", NewExpr().Add(x, 1).Add(x, -1), LE, 3)
		p.AddConstraint("cap", NewExpr().Add(x, 1), LE, 4)
		return p
	}, func(t *testing.T, sol *Solution, p *Problem) {
		if sol.Status != StatusOptimal {
			t.Fatalf("status %v", sol.Status)
		}
		// The empty row goes first; "cap" is itself a singleton row, so the
		// cascade folds it into the box and eliminates x too.
		if sol.PresolveRows != 2 || sol.PresolveCols != 1 {
			t.Fatalf("presolve removed %d rows / %d cols, want 2/1", sol.PresolveRows, sol.PresolveCols)
		}
		wantFloat(t, "X", sol.X[0], 4)
		wantFloat(t, "objective", sol.Objective, 8)
		wantFloat(t, "dual[zero]", sol.Dual[0], 0)
		wantFloat(t, "dual[cap]", sol.Dual[1], 2)
		certify(t, p, sol)
	})

	presolveCase(t, "contradictory", func() *Problem {
		p := NewProblem("empty-row-bad", Minimize)
		x := p.AddVar("x", 0, 5)
		p.SetObj(x, 1)
		// 0 >= 3: infeasible before any simplex runs.
		p.AddConstraint("impossible", NewExpr().Add(x, 1).Add(x, -1), GE, 3)
		return p
	}, func(t *testing.T, sol *Solution, p *Problem) {
		if sol.Status != StatusInfeasible {
			t.Fatalf("status %v, want infeasible", sol.Status)
		}
		if sol.Iterations != 0 {
			t.Fatalf("presolve-detected infeasibility took %d pivots, want 0", sol.Iterations)
		}
	})
}

// TestPresolveSingletonRow: 2x <= 8 folds into x <= 4; the row then being
// the binding constraint, its dual is recovered from the reduced cost as
// rc/coef = 3/2.
func TestPresolveSingletonRow(t *testing.T) {
	presolveCase(t, "binding", func() *Problem {
		p := NewProblem("singleton-row", Maximize)
		x := p.AddVar("x", 0, 10)
		p.SetObj(x, 3)
		p.AddConstraint("cap", NewExpr().Add(x, 2), LE, 8)
		return p
	}, func(t *testing.T, sol *Solution, p *Problem) {
		if sol.Status != StatusOptimal {
			t.Fatalf("status %v", sol.Status)
		}
		// The singleton row folds away, which empties the column: the whole
		// problem presolves to nothing.
		if sol.PresolveRows != 1 || sol.PresolveCols != 1 {
			t.Fatalf("removed %d rows / %d cols, want 1/1", sol.PresolveRows, sol.PresolveCols)
		}
		wantFloat(t, "X", sol.X[0], 4)
		wantFloat(t, "objective", sol.Objective, 12)
		wantFloat(t, "dual[cap]", sol.Dual[0], 1.5)
		certify(t, p, sol)
	})

	// Non-binding singleton: the implied bound is slack at the optimum, so
	// the removed row's dual must stay 0.
	presolveCase(t, "slack", func() *Problem {
		p := NewProblem("singleton-slack", Maximize)
		x := p.AddVar("x", 0, 3)
		p.SetObj(x, 3)
		p.AddConstraint("loose", NewExpr().Add(x, 2), LE, 100)
		return p
	}, func(t *testing.T, sol *Solution, p *Problem) {
		if sol.Status != StatusOptimal {
			t.Fatalf("status %v", sol.Status)
		}
		wantFloat(t, "X", sol.X[0], 3)
		wantFloat(t, "objective", sol.Objective, 9)
		wantFloat(t, "dual[loose]", sol.Dual[0], 0)
		certify(t, p, sol)
	})
}

// TestPresolveSingletonColumnChain: a variable appearing only in a
// singleton row is eliminated twice over — row folds to a bound, column
// empties, value pinned by objective sign — leaving a reduced problem in
// the remaining variable only.
func TestPresolveSingletonColumnChain(t *testing.T) {
	presolveCase(t, "chain", func() *Problem {
		p := NewProblem("singleton-col", Maximize)
		x := p.AddVar("x", 0, 10) // only in its own singleton row
		y := p.AddVar("y", 0, 6)
		p.SetObj(x, 3)
		p.SetObj(y, 1)
		p.AddConstraint("xcap", NewExpr().Add(x, 2), LE, 8)
		p.AddConstraint("ycap", NewExpr().Add(y, 1), LE, 5)
		return p
	}, func(t *testing.T, sol *Solution, p *Problem) {
		if sol.Status != StatusOptimal {
			t.Fatalf("status %v", sol.Status)
		}
		if sol.PresolveRows != 2 || sol.PresolveCols != 2 {
			t.Fatalf("removed %d rows / %d cols, want 2/2", sol.PresolveRows, sol.PresolveCols)
		}
		wantFloat(t, "X[x]", sol.X[0], 4)
		wantFloat(t, "X[y]", sol.X[1], 5)
		wantFloat(t, "objective", sol.Objective, 17)
		wantFloat(t, "dual[xcap]", sol.Dual[0], 1.5)
		wantFloat(t, "dual[ycap]", sol.Dual[1], 1)
		certify(t, p, sol)
	})
}

// TestPresolveFixedColumn: lo == hi substitutes the variable out of every
// row; the remaining LP sees the adjusted rhs and the postsolved point
// restores the pinned value and the full objective.
func TestPresolveFixedColumn(t *testing.T) {
	presolveCase(t, "fixed", func() *Problem {
		p := NewProblem("fixed-col", Maximize)
		x := p.AddVar("x", 2, 2)
		y := p.AddVar("y", 0, 6)
		p.SetObj(x, 10)
		p.SetObj(y, 1)
		p.AddConstraint("c", NewExpr().Add(x, 1).Add(y, 1), LE, 7)
		return p
	}, func(t *testing.T, sol *Solution, p *Problem) {
		if sol.Status != StatusOptimal {
			t.Fatalf("status %v", sol.Status)
		}
		// Substituting x out turns the row into a singleton on y, so the
		// cascade consumes the entire problem: 1 row, both columns.
		if sol.PresolveRows != 1 || sol.PresolveCols != 2 {
			t.Fatalf("removed %d rows / %d cols, want 1/2", sol.PresolveRows, sol.PresolveCols)
		}
		wantFloat(t, "X[x]", sol.X[0], 2)
		wantFloat(t, "X[y]", sol.X[1], 5)
		wantFloat(t, "objective", sol.Objective, 25)
		wantFloat(t, "dual[c]", sol.Dual[0], 1)
		certify(t, p, sol)
	})
}

// TestPresolveRedundantRow: a row that can never bind by activity bounds is
// dropped with dual exactly 0 — and the answer matches the unpresolved
// solve.
func TestPresolveRedundantRow(t *testing.T) {
	presolveCase(t, "redundant", func() *Problem {
		p := NewProblem("redundant-row", Maximize)
		x := p.AddVar("x", 0, 10)
		y := p.AddVar("y", 0, 10)
		p.SetObj(x, 1)
		p.SetObj(y, 2)
		p.AddConstraint("loose", NewExpr().Add(x, 1).Add(y, 1), LE, 1000)
		p.AddConstraint("tight", NewExpr().Add(x, 1).Add(y, 1), LE, 12)
		return p
	}, func(t *testing.T, sol *Solution, p *Problem) {
		if sol.Status != StatusOptimal {
			t.Fatalf("status %v", sol.Status)
		}
		if sol.PresolveRows != 1 {
			t.Fatalf("removed %d rows, want 1 (the loose row)", sol.PresolveRows)
		}
		wantFloat(t, "X[x]", sol.X[0], 2)
		wantFloat(t, "X[y]", sol.X[1], 10)
		wantFloat(t, "objective", sol.Objective, 22)
		wantFloat(t, "dual[loose]", sol.Dual[0], 0)
		wantFloat(t, "dual[tight]", sol.Dual[1], 1)
		certify(t, p, sol)
	})
}

// TestPresolveInfeasibleByBounds: two singleton rows squeeze a variable's
// interval empty; presolve proves infeasibility without a single pivot.
func TestPresolveInfeasibleByBounds(t *testing.T) {
	presolveCase(t, "squeeze", func() *Problem {
		p := NewProblem("infeasible-bounds", Minimize)
		x := p.AddVar("x", 0, Inf)
		p.SetObj(x, 1)
		p.AddConstraint("hi", NewExpr().Add(x, 2), LE, 6) // x <= 3
		p.AddConstraint("lo", NewExpr().Add(x, 1), GE, 5) // x >= 5
		return p
	}, func(t *testing.T, sol *Solution, p *Problem) {
		if sol.Status != StatusInfeasible {
			t.Fatalf("status %v, want infeasible", sol.Status)
		}
		if sol.Iterations != 0 {
			t.Fatalf("bound infeasibility took %d pivots, want 0", sol.Iterations)
		}
	})
}

// TestPresolveUnboundedAfterElimination: eliminating rows leaves a column
// with an improving infinite bound; the combined verdict must be unbounded,
// not the reduced problem's local optimum.
func TestPresolveUnboundedAfterElimination(t *testing.T) {
	presolveCase(t, "unbounded", func() *Problem {
		p := NewProblem("unbounded-after", Maximize)
		free := p.AddVar("free", 0, Inf) // appears in no constraint at all
		y := p.AddVar("y", 0, 10)
		p.SetObj(free, 1)
		p.SetObj(y, 1)
		p.AddConstraint("ycap", NewExpr().Add(y, 1), LE, 5)
		return p
	}, func(t *testing.T, sol *Solution, p *Problem) {
		if sol.Status != StatusUnbounded {
			t.Fatalf("status %v, want unbounded", sol.Status)
		}
	})

	// Same shape but the leftover rows are themselves infeasible: the
	// "unbounded if feasible" flag must NOT override a genuine infeasibility.
	presolveCase(t, "unbounded-vs-infeasible", func() *Problem {
		p := NewProblem("unbounded-infeasible", Maximize)
		free := p.AddVar("free", 0, Inf)
		y := p.AddVar("y", 0, 1)
		z := p.AddVar("z", 0, 1)
		p.SetObj(free, 1)
		p.AddConstraint("need", NewExpr().Add(y, 1).Add(z, 1), GE, 5)
		return p
	}, func(t *testing.T, sol *Solution, p *Problem) {
		if sol.Status != StatusInfeasible {
			t.Fatalf("status %v, want infeasible", sol.Status)
		}
	})
}

// TestPresolveSkippedUnderWarmStart: a warm start targets the full-space
// standard form, so Presolve must quietly stand down rather than hand the
// snapshot a reduced problem it cannot fit.
func TestPresolveSkippedUnderWarmStart(t *testing.T) {
	p := NewProblem("warm-skip", Maximize)
	x := p.AddVar("x", 0, 10)
	p.SetObj(x, 3)
	p.AddConstraint("cap", NewExpr().Add(x, 2), LE, 8)
	capt, err := p.SolveWith(SolveOptions{CaptureBasis: true})
	if err != nil || capt.Basis == nil {
		t.Fatalf("capture: %v", err)
	}
	warm, err := p.SolveWith(SolveOptions{Presolve: true, WarmStart: capt.Basis})
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if warm.PresolveRows != 0 || warm.PresolveCols != 0 {
		t.Fatalf("presolve ran under a warm start (removed %d/%d)", warm.PresolveRows, warm.PresolveCols)
	}
	if !warm.Warm || warm.Status != StatusOptimal {
		t.Fatalf("warm path skipped: warm=%t status=%v", warm.Warm, warm.Status)
	}
	wantFloat(t, "objective", warm.Objective, 12)
}
