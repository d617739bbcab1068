package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// mapMergedTerms is the duplicate-term merge presolve ran before its dense
// scratch: per row, a map sums each variable's coefficients in term order
// and a second map rebuilds the nonzero sums in first-appearance order.
func mapMergedTerms(p *Problem) [][]Term {
	out := make([][]Term, len(p.cons))
	for i, con := range p.cons {
		sum := make(map[VarID]float64, len(con.expr.Terms))
		for _, t := range con.expr.Terms {
			sum[t.Var] += t.Coef
		}
		seen := make(map[VarID]bool, len(sum))
		for _, t := range con.expr.Terms {
			if seen[t.Var] {
				continue
			}
			seen[t.Var] = true
			if c := sum[t.Var]; c != 0 {
				out[i] = append(out[i], Term{Var: t.Var, Coef: c})
			}
		}
	}
	return out
}

// TestPresolveMergeMatchesMapReference: the dense stamped merge must give
// every row bitwise the terms the map-based merge gave — repeated
// variables summed in term order (so 1e16 + 1 - 1e16 rounds the same),
// sums that cancel to zero and signed zeros dropped, and first-appearance
// order kept — on hand-made rows and on random rows drawn from few
// variables so that repeats are common.
func TestPresolveMergeMatchesMapReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	p := NewProblem("merge", Minimize)
	for j := 0; j < 6; j++ {
		p.AddVar(fmt.Sprintf("x%d", j), 0, Inf)
	}
	rows := [][]Term{
		{{3, 1}, {1, 2}, {3, 4}, {0, 1}, {1, -2}},          // x1 cancels; x3 first
		{{2, 1e16}, {4, 1}, {2, 1}, {2, -1e16}, {4, 0.5}},  // order-sensitive sum
		{{5, negZero}, {0, negZero}, {0, negZero}, {1, 0}}, // signed zeros only
		{{5, negZero}, {5, 3}, {0, 0}, {0, -7}},            // -0 then a value
		{},
		{{4, 2}},
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		row := make([]Term, rng.Intn(9))
		for n := range row {
			c := []float64{1, -1, 0.1, 0.2, 0.3, negZero, 0, 1e16, -1e16, rng.NormFloat64()}[rng.Intn(10)]
			row[n] = Term{Var: VarID(rng.Intn(6)), Coef: c}
		}
		rows = append(rows, row)
	}
	for i, r := range rows {
		p.AddConstraint(fmt.Sprintf("r%d", i), NewExpr(r...), LE, 1)
	}
	want := mapMergedTerms(p)
	got := newPresolveState(p).terms
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("row %d %v: merged %v, reference %v", i, rows[i], got[i], want[i])
		}
		for n := range want[i] {
			if got[i][n].Var != want[i][n].Var || math.Float64bits(got[i][n].Coef) != math.Float64bits(want[i][n].Coef) {
				t.Fatalf("row %d %v: merged %v, reference %v", i, rows[i], got[i], want[i])
			}
		}
	}
	if len(got[0]) != 2 || got[0][0].Var != 3 || len(got[2]) != 0 || len(got[3]) != 2 {
		t.Fatalf("hand-made rows merged to %v %v %v, want x3,x0 / none / x5,x0", got[0], got[2], got[3])
	}
}

// freshPresolved solves p presolved on a state no earlier solve touched:
// the free list is empty for the call, and the state the solve releases is
// dropped with it.
func freshPresolved(t *testing.T, p *Problem) *Solution {
	t.Helper()
	freePresolve.mu.Lock()
	saved := freePresolve.list
	freePresolve.list = nil
	freePresolve.mu.Unlock()
	sol, err := p.SolveWith(SolveOptions{Presolve: true})
	freePresolve.mu.Lock()
	freePresolve.list = saved
	freePresolve.mu.Unlock()
	if err != nil {
		t.Fatalf("%s: fresh presolved solve: %v", p.Name, err)
	}
	return sol
}

// requireBitwise fails unless got reports exactly ref: status, counters,
// objective, point and duals, every float to the bit.
func requireBitwise(t *testing.T, what string, ref, got *Solution) {
	t.Helper()
	same := func(a, b []float64) bool {
		if len(a) != len(b) || (a == nil) != (b == nil) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	if got.Status != ref.Status || got.Iterations != ref.Iterations ||
		got.PresolveRows != ref.PresolveRows || got.PresolveCols != ref.PresolveCols ||
		math.Float64bits(got.Objective) != math.Float64bits(ref.Objective) ||
		!same(got.X, ref.X) || !same(got.Dual, ref.Dual) {
		t.Fatalf("%s: recycled state answers %v X=%v dual=%v, fresh state %v X=%v dual=%v",
			what, got, got.X, got.Dual, ref, ref.X, ref.Dual)
	}
}

// TestPresolveStateReuseMatchesFresh is the referee of the recycled presolve
// state: problems of different shapes, with duplicate and cancelling terms,
// fixed and empty columns and singleton rows, are solved presolved in an
// interleaved order through the one state the free list hands back each
// time, and every answer must equal, bit for bit, the same problem's solve
// on a fresh state. Every slice the state keeps carries the previous
// problem's entries, the merge stamps in particular.
func TestPresolveStateReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var probs []*Problem
	fixtures := lpFixtures()
	names := make([]string, 0, len(fixtures))
	for name := range fixtures {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		probs = append(probs, fixtures[name]())
	}
	for _, size := range [][2]int{{30, 20}, {4, 3}, {60, 45}, {12, 9}} {
		probs = append(probs, sparseLP(rng, size[0], size[1]))
		p, _ := randomLP(rng, size[0], size[1])
		probs = append(probs, p)
	}
	// Pin a few columns so the reductions fix and substitute them.
	for k, p := range probs {
		if k%3 == 0 && p.NumVars() > 1 {
			lo, _ := p.Bounds(1)
			p.SetBounds(1, lo, lo)
		}
	}
	refs := make([]*Solution, len(probs))
	for k, p := range probs {
		refs[k] = freshPresolved(t, p)
	}
	ps := newPresolveState(probs[0])
	ps.release()
	for round := 0; round < 3; round++ {
		for _, k := range rng.Perm(len(probs)) {
			if again := newPresolveState(probs[k]); again != ps {
				t.Fatal("the free list did not hand back the one recycled state")
			} else {
				again.release()
			}
			got, err := probs[k].SolveWith(SolveOptions{Presolve: true})
			if err != nil {
				t.Fatalf("%s: %v", probs[k].Name, err)
			}
			requireBitwise(t, fmt.Sprintf("round %d, problem %d (%s)", round, k, probs[k].Name), refs[k], got)
		}
	}
}
