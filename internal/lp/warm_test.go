package lp

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// warmChild solves p with the given overrides twice — cold and warm from
// parentBasis — and asserts the observable outcome (status, objective, point,
// duals) is identical within tolerance. It returns the two solutions.
func warmChild(t *testing.T, p *Problem, parentBasis *Basis,
	ov map[VarID][2]float64) (cold, warm *Solution) {
	t.Helper()
	cold, err := p.SolveWith(SolveOptions{BoundOverride: ov})
	if err != nil {
		t.Fatalf("cold child solve: %v", err)
	}
	warm, err = p.SolveWith(SolveOptions{BoundOverride: ov, WarmStart: parentBasis})
	if err != nil {
		t.Fatalf("warm child solve: %v", err)
	}
	if warm.Status != cold.Status {
		t.Fatalf("status diverged: warm %v vs cold %v", warm.Status, cold.Status)
	}
	if cold.Status != StatusOptimal {
		return cold, warm
	}
	tol := 1e-6 * (1 + math.Abs(cold.Objective))
	if math.Abs(warm.Objective-cold.Objective) > tol {
		t.Fatalf("objective diverged: warm %v vs cold %v (warm=%v fallback=%v)",
			warm.Objective, cold.Objective, warm.Warm, warm.WarmFallback)
	}
	// The warm point must satisfy the overridden bounds and every row; X and
	// Dual themselves may differ between alternate optimal bases, so the
	// objective (above) and feasibility are the right identity checks.
	// (DualObjective certifies against the Problem's own bounds, which the
	// override replaces — it is not a valid oracle here.)
	checkFeasible := func(sol *Solution) {
		for j := 0; j < p.NumVars(); j++ {
			lo, hi := p.Bounds(VarID(j))
			if b, ok := ov[VarID(j)]; ok {
				lo, hi = b[0], b[1]
			}
			if sol.X[j] < lo-1e-6 || sol.X[j] > hi+1e-6 {
				t.Fatalf("warm=%v: var %d=%v out of [%v,%v]", sol.Warm, j, sol.X[j], lo, hi)
			}
		}
		for ci := 0; ci < p.NumConstraints(); ci++ {
			expr, rel, rhs := p.Constraint(ConID(ci))
			v := expr.Eval(sol.X)
			switch rel {
			case LE:
				if v > rhs+1e-5 {
					t.Fatalf("warm=%v: row %d violated: %v > %v", sol.Warm, ci, v, rhs)
				}
			case GE:
				if v < rhs-1e-5 {
					t.Fatalf("warm=%v: row %d violated: %v < %v", sol.Warm, ci, v, rhs)
				}
			case EQ:
				if math.Abs(v-rhs) > 1e-5 {
					t.Fatalf("warm=%v: row %d violated: %v != %v", sol.Warm, ci, v, rhs)
				}
			}
		}
	}
	checkFeasible(cold)
	checkFeasible(warm)
	return cold, warm
}

// TestWarmCaptureOnlyWhenRequested pins the snapshot contract: Basis is nil
// unless CaptureBasis is set, and non-nil (with one basic column per row of
// the standard form) when it is.
func TestWarmCaptureOnlyWhenRequested(t *testing.T) {
	p, _ := randomLP(rand.New(rand.NewSource(1)), 4, 4)
	sol, err := p.Solve()
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("solve: %v %v", err, sol.Status)
	}
	if sol.Basis != nil {
		t.Fatalf("Basis captured without CaptureBasis")
	}
	sol, err = p.SolveWith(SolveOptions{CaptureBasis: true})
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("solve: %v %v", err, sol.Status)
	}
	if sol.Basis == nil || sol.Basis.NumBasic() == 0 {
		t.Fatalf("CaptureBasis produced no snapshot")
	}
}

// TestWarmFixedUnboundedVarStaysFixed exercises the column-blocking path: a
// variable with an infinite upper bound is basic (positive) in the parent and
// then fixed to [0,0] in the child — exactly what branch-and-bound's
// complementarity branching does. The warm solve must keep it at zero and
// agree with the cold solve.
func TestWarmFixedUnboundedVarStaysFixed(t *testing.T) {
	p := NewProblem("fix", Maximize)
	u := p.AddVar("u", 0, Inf)
	v := p.AddVar("v", 0, Inf)
	w := p.AddVar("w", 0, 6)
	p.SetObj(u, 3)
	p.SetObj(v, 2)
	p.SetObj(w, 1)
	p.AddConstraint("cap", NewExpr().Add(u, 1).Add(v, 1).Add(w, 1), LE, 10)
	p.AddConstraint("mix", NewExpr().Add(u, 1).Add(v, -1), LE, 4)

	parent, err := p.SolveWith(SolveOptions{CaptureBasis: true})
	if err != nil || parent.Status != StatusOptimal {
		t.Fatalf("parent: %v %v", err, parent.Status)
	}
	if parent.X[u] <= 1 {
		t.Fatalf("test premise broken: u=%v not basic-positive in parent", parent.X[u])
	}
	ov := map[VarID][2]float64{u: {0, 0}}
	cold, warm := warmChild(t, p, parent.Basis, ov)
	if !warm.Warm {
		t.Fatalf("warm path not taken (fallback=%v); the blocking rule should make the parent basis transplantable", warm.WarmFallback)
	}
	if math.Abs(warm.X[u]) > 1e-7 || math.Abs(cold.X[u]) > 1e-7 {
		t.Fatalf("fixed variable moved: warm u=%v cold u=%v", warm.X[u], cold.X[u])
	}
	if math.Abs(warm.X[v]-cold.X[v]) > 1e-6 || math.Abs(warm.X[w]-cold.X[w]) > 1e-6 {
		t.Fatalf("points diverged: warm (%v,%v) cold (%v,%v)", warm.X[v], warm.X[w], cold.X[v], cold.X[w])
	}
}

// TestWarmMatchesColdRandom sweeps random LPs: capture the parent basis, fix
// a random subset of variables at their parent values (bounded vars, so the
// child differs only in upper-row right-hand sides and shifts), and require
// warm and cold child solves to agree. At least some of the children must
// actually complete on the warm path — otherwise the test is vacuous.
func TestWarmMatchesColdRandom(t *testing.T) {
	warmUsed := 0
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, _ := randomLP(rng, 2+rng.Intn(6), 2+rng.Intn(6))
		parent, err := p.SolveWith(SolveOptions{CaptureBasis: true})
		if err != nil {
			t.Fatalf("seed %d parent: %v", seed, err)
		}
		if parent.Status != StatusOptimal {
			continue
		}
		ov := map[VarID][2]float64{}
		for j := 0; j < p.NumVars(); j++ {
			if rng.Float64() < 0.4 {
				val := math.Max(0, parent.X[j])
				ov[VarID(j)] = [2]float64{val, val}
			}
		}
		if len(ov) == 0 {
			ov[VarID(0)] = [2]float64{0, 0}
		}
		_, warm := warmChild(t, p, parent.Basis, ov)
		if warm.Warm {
			warmUsed++
		}
	}
	if warmUsed == 0 {
		t.Fatalf("warm path never completed a child solve across the sweep")
	}
	t.Logf("warm path completed %d child solves", warmUsed)
}

// TestWarmStructureMismatchFallsBack hands a basis from a differently-shaped
// problem to the solver: it must ignore it (signature mismatch), answer via
// the cold path, and mark the solution as a fallback.
func TestWarmStructureMismatchFallsBack(t *testing.T) {
	a, _ := randomLP(rand.New(rand.NewSource(3)), 5, 5)
	b, _ := randomLP(rand.New(rand.NewSource(4)), 3, 6)
	solA, err := a.SolveWith(SolveOptions{CaptureBasis: true})
	if err != nil || solA.Status != StatusOptimal {
		t.Fatalf("a: %v %v", err, solA.Status)
	}
	cold, err := b.Solve()
	if err != nil {
		t.Fatal(err)
	}
	warm, err := b.SolveWith(SolveOptions{WarmStart: solA.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Warm || !warm.WarmFallback {
		t.Fatalf("foreign basis accepted: warm=%v fallback=%v", warm.Warm, warm.WarmFallback)
	}
	if warm.Status != cold.Status || math.Abs(warm.Objective-cold.Objective) > 1e-9 {
		t.Fatalf("fallback result differs from cold: %v/%v vs %v/%v",
			warm.Status, warm.Objective, cold.Status, cold.Objective)
	}
}

// TestWarmRepeatSolveIsPivotFree re-solves the identical problem from its own
// terminal basis: the dual repair has nothing to do, so the warm solve must
// succeed with zero iterations.
func TestWarmRepeatSolveIsPivotFree(t *testing.T) {
	p, _ := randomLP(rand.New(rand.NewSource(9)), 6, 6)
	parent, err := p.SolveWith(SolveOptions{CaptureBasis: true})
	if err != nil || parent.Status != StatusOptimal {
		t.Fatalf("parent: %v %v", err, parent.Status)
	}
	again, err := p.SolveWith(SolveOptions{WarmStart: parent.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Warm {
		t.Fatalf("identical re-solve fell back to cold")
	}
	if again.Iterations != 0 {
		t.Fatalf("identical re-solve took %d pivots, want 0", again.Iterations)
	}
	if math.Abs(again.Objective-parent.Objective) > 1e-9 {
		t.Fatalf("objective drifted on re-solve: %v vs %v", again.Objective, parent.Objective)
	}
}

// TestWarmDeadline checks the warm path honors an expired deadline with
// StatusDeadline and a nil point, like the cold path.
func TestWarmDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	p, _ := randomLP(rng, 8, 8)
	parent, err := p.SolveWith(SolveOptions{CaptureBasis: true})
	if err != nil || parent.Status != StatusOptimal {
		t.Fatalf("parent: %v %v", err, parent.Status)
	}
	sol, err := p.SolveWith(SolveOptions{
		WarmStart: parent.Basis,
		Deadline:  time.Now().Add(-time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusDeadline {
		t.Fatalf("status=%v, want deadline", sol.Status)
	}
	if sol.X != nil || sol.Dual != nil {
		t.Fatalf("X/Dual must be nil on deadline per the Solution contract")
	}
}

// dualCheckProblem builds one LP whose duals are known in closed form:
//
//	max 5x + 4y
//	s.t.  x + y == 4      (EQ row, dual 4)
//	      x - y >= -2     (GE row with negative rhs => the builder flips it)
//	     -x     >= -3     (upper bound written as a flipped GE row, dual 1)
//
// Optimum at x=3, y=1: objective 19. Duals follow the package convention (for
// Maximize, GE rows have duals <= 0): EQ row 4 (rhs 4->5 moves the optimum
// 19->23), the slack GE row 0 (x-y = 2 > -2), the binding -x >= -3 row -1
// (rhs -3->-2 tightens x <= 2, optimum 19->18).
func dualCheckProblem() (*Problem, VarID, VarID) {
	p := NewProblem("dualcheck", Maximize)
	x := p.AddVar("x", 0, Inf)
	y := p.AddVar("y", 0, Inf)
	p.SetObj(x, 5)
	p.SetObj(y, 4)
	p.AddConstraint("eq", NewExpr().Add(x, 1).Add(y, 1), EQ, 4)
	p.AddConstraint("ge-neg", NewExpr().Add(x, 1).Add(y, -1), GE, -2)
	p.AddConstraint("cap", NewExpr().Add(x, -1), GE, -3)
	return p, x, y
}

// TestRowUnitDualsEQGEFlipped is the regression for the rowUnit sentinel fix:
// with 0 as the "unset" marker, a row whose unit column genuinely is column 0
// was indistinguishable from an unset row. The closed-form instance below
// exercises EQ rows, GE rows, and rows the builder flips for a negative rhs,
// and pins the exact dual values.
func TestRowUnitDualsEQGEFlipped(t *testing.T) {
	p, x, y := dualCheckProblem()
	sol, err := p.Solve()
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("solve: %v %v", err, sol.Status)
	}
	if math.Abs(sol.X[x]-3) > 1e-7 || math.Abs(sol.X[y]-1) > 1e-7 {
		t.Fatalf("point (%v,%v), want (3,1)", sol.X[x], sol.X[y])
	}
	if math.Abs(sol.Objective-19) > 1e-7 {
		t.Fatalf("objective %v, want 19", sol.Objective)
	}
	want := []float64{4, 0, -1}
	for i, w := range want {
		if math.Abs(sol.Dual[i]-w) > 1e-7 {
			t.Fatalf("dual[%d]=%v, want %v (all: %v)", i, sol.Dual[i], w, sol.Dual)
		}
	}
	// And the generic certificate agrees.
	dual, err := p.DualObjective(sol)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dual-19) > 1e-7 {
		t.Fatalf("dual objective %v, want 19", dual)
	}
}

// TestRowUnitDualsRandomEQGE cross-checks the dual read-off on random
// EQ/GE-heavy instances via strong duality — the property that broke when
// rowUnit's sentinel collided with column 0.
func TestRowUnitDualsRandomEQGE(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0xd0a1))
		nVars := 2 + rng.Intn(5)
		p := NewProblem("eqge", Minimize)
		x0 := make([]float64, nVars)
		vars := make([]VarID, nVars)
		for j := range vars {
			x0[j] = rng.Float64() * 5
			vars[j] = p.AddVar("x", 0, 15)
			p.SetObj(vars[j], rng.Float64()*3)
		}
		nRows := 1 + rng.Intn(4)
		for i := 0; i < nRows; i++ {
			e := NewExpr()
			lhs := 0.0
			for j := 0; j < nVars; j++ {
				coef := rng.Float64()*4 - 2 // mixed signs => some rows get flipped
				e = e.Add(vars[j], coef)
				lhs += coef * x0[j]
			}
			if rng.Float64() < 0.5 {
				p.AddConstraint("eq", e, EQ, lhs)
			} else {
				p.AddConstraint("ge", e, GE, lhs-rng.Float64())
			}
		}
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("seed %d: status %v on feasible-by-construction LP", seed, sol.Status)
		}
		dual, err := p.DualObjective(sol)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if math.Abs(dual-sol.Objective) > 1e-5*(1+math.Abs(sol.Objective)) {
			t.Fatalf("seed %d: strong duality violated: primal %v dual %v",
				seed, sol.Objective, dual)
		}
	}
}

// TestWarmCertificateRejectedFallsBack drifts a warm-started form away from
// its pristine snapshot: the dense right-hand side of the cap row reads -1,
// the snapshot still reads 8. By the tableau's tolerances the row is an
// infeasibility certificate (b < -feasTol, no negative entry to pivot on);
// on the form as built it is not (yᵀb₀ = 8). The re-check must refuse it,
// and the warm attempt must hand the solve back to the cold path (nil).
func TestWarmCertificateRejectedFallsBack(t *testing.T) {
	p := NewProblem("drift", Maximize)
	x := p.AddVar("x", 0, Inf)
	y := p.AddVar("y", 0, Inf)
	p.SetObj(x, 2)
	p.SetObj(y, 1)
	p.AddConstraint("cap", NewExpr().Add(x, 1).Add(y, 1), LE, 8)
	parent, err := p.SolveWith(SolveOptions{CaptureBasis: true})
	if err != nil || parent.Status != StatusOptimal {
		t.Fatalf("parent: %v %v", err, parent)
	}
	opts := SolveOptions{WarmStart: parent.Basis}

	s, err := buildStandard(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.release()
	tab := newTableau(s, opts)
	if !tab.install(parent.Basis.cols) {
		t.Fatal("install refused the parent basis")
	}
	tab.resetCosts(s.c)
	s.b[0] = -1
	if st := tab.runDual(); st != statusWarmAbort {
		t.Fatalf("dual repair on the drifted row: %v, want the warm abort", st)
	}
	if tab.certifies(0, false) {
		t.Fatal("re-check accepted a certificate that fails on the pristine snapshot")
	}

	s2, err := buildStandard(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.release()
	s2.b[0] = -1
	if sol := p.solveWarm(s2, opts, false); sol != nil {
		t.Fatalf("drifted warm solve answered %v (warm=%v); want it handed to the cold path", sol.Status, sol.Warm)
	}
}

// TestDiveRefusesSwappedFlips pins why a dive checks the form's shape and
// not its sig: raising x's lower bound to 9 unflips row lo (-x <= -3) and
// flips row hi (x - y <= 8), so the two rows trade their ±1 flips, which
// sig's xor-multiply step cannot always tell apart. Padding variables walk
// the hash state until sig collides; the dive must then refuse the parent's
// matrix, and the child must still get the cold answer.
func TestDiveRefusesSwappedFlips(t *testing.T) {
	collided := 0
	for pad := 0; pad < 32; pad++ {
		p := NewProblem("flips", Maximize)
		for k := 0; k < pad; k++ {
			p.AddVar("pad", 0, 1)
		}
		x, y := p.AddVar("x", 0, 10), p.AddVar("y", 0, 10)
		p.SetObj(x, 1)
		p.SetObj(y, 1)
		p.AddConstraint("lo", NewExpr().Add(x, -1), LE, -3)
		p.AddConstraint("hi", NewExpr().Add(x, 1).Add(y, -1), LE, 8)
		child := map[VarID][2]float64{x: {9, 10}}
		a, errA := buildStandard(p, nil)
		b, errB := buildStandard(p, child)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		sameSig, sameShape := a.sig == b.sig, a.shape == b.shape
		a.release()
		b.release()
		if sameShape {
			t.Fatalf("pad %d: the flipped rows left the shape unchanged", pad)
		}
		if !sameSig {
			continue
		}
		collided++
		d := new(Dive)
		parent, err := p.SolveWith(SolveOptions{CaptureBasis: true, Dive: d})
		if err != nil || parent.Status != StatusOptimal {
			t.Fatalf("pad %d parent: %v %v", pad, err, parent)
		}
		cold, _ := p.SolveWith(SolveOptions{BoundOverride: child})
		sol, err := p.SolveWith(SolveOptions{BoundOverride: child, WarmStart: parent.Basis, Dive: d})
		d.Release()
		if err != nil || sol.Dived {
			t.Fatalf("pad %d: err=%v dived=%v, want the dive refused", pad, err, sol != nil && sol.Dived)
		}
		if sol.Status != cold.Status || sol.Objective != cold.Objective {
			t.Fatalf("pad %d: %v, want the cold answer %v", pad, sol, cold)
		}
	}
	if collided == 0 {
		t.Fatal("no padding made sig collide; the test no longer covers the collision")
	}
}
