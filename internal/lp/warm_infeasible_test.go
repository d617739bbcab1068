package lp_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
	"repro/internal/obs"
)

// warmVerdict solves p under ov cold and warm-started from parent and
// requires the same status, and both forms' slabs to come back to the free
// list with every nonzero on a set bit or a dense row. It reports whether
// the warm solve ended at the dual repair's infeasibility certificate, which
// must then be a warm solve with no fallback and no point or duals, traced
// as "warm-infeasible".
func warmVerdict(t *testing.T, p *lp.Problem, parent *lp.Basis, ov map[lp.VarID][2]float64) bool {
	t.Helper()
	cold, err := p.SolveWith(lp.SolveOptions{BoundOverride: ov})
	if err != nil {
		t.Fatalf("cold child: %v", err)
	}
	col := &obs.Collector{}
	warm, err := p.SolveWith(lp.SolveOptions{BoundOverride: ov, WarmStart: parent, Tracer: obs.NewTracer(col)})
	if err != nil {
		t.Fatalf("warm child: %v", err)
	}
	lp.CheckFreeSlabs(t, "warm child")
	events := col.Events()
	detail := events[len(events)-1].Detail
	if warm.Status != cold.Status {
		t.Fatalf("status diverged: warm %v (warm=%v fallback=%v) vs cold %v",
			warm.Status, warm.Warm, warm.WarmFallback, cold.Status)
	}
	if verdict := warm.Warm && warm.Status == lp.StatusInfeasible; verdict != (detail == "warm-infeasible") {
		t.Fatalf("warm=%v status %v traced as %q", warm.Warm, warm.Status, detail)
	}
	if detail != "warm-infeasible" {
		return false
	}
	if warm.WarmFallback || warm.X != nil || warm.Dual != nil {
		t.Fatalf("certificate verdict: fallback=%v X=%v Dual=%v, want no fallback and nil X/Dual",
			warm.WarmFallback, warm.X, warm.Dual)
	}
	return true
}

// upCertificateLP is min u s.t. u - w >= 2 over u, w >= 0. Its optimum has
// u = 2 basic; a child that fixes u at zero blocks u's column while u is
// basic and positive, and its row cannot bring u down (both nonbasic
// entries are negative): the "up" certificate, y = -(row of B⁻¹).
func upCertificateLP() (*lp.Problem, lp.VarID) {
	p := lp.NewProblem("up-certificate", lp.Minimize)
	u := p.AddVar("u", 0, lp.Inf)
	w := p.AddVar("w", 0, lp.Inf)
	p.SetObj(u, 1)
	p.AddConstraint("floor", lp.NewExpr().Add(u, 1).Add(w, -1), lp.GE, 2)
	return p, u
}

// scaledFloorLP is min x s.t. 1e-4·x >= 1e-4 over x in [0, 10]. Its
// optimal basis has B⁻¹ entries of 1e4, so a child that caps x a hair
// below 1 leaves a row whose raw yᵀb₀ (-1e-5) is past -feasTol while the
// cold phase 1 ends with an artificial residual of only 1e-9: feasible.
func scaledFloorLP() (*lp.Problem, lp.VarID) {
	p := lp.NewProblem("scaled-floor", lp.Minimize)
	x := p.AddVar("x", 0, 10)
	p.SetObj(x, 1)
	p.AddConstraint("floor", lp.NewExpr().Add(x, 1e-4), lp.GE, 1e-4)
	return p, x
}

// TestWarmInfeasibleMatchesCold requires warm-started children that the
// dual repair proves infeasible to report exactly the cold solve's status,
// on random LPs with variables pushed to their upper bounds, on the "up"
// certificate LP, on a badly scaled LP whose child is feasible within
// tolerance, and on both children at every depth of the B4 smoke
// model's dive. It counts the certificate verdicts so it cannot pass
// vacuously.
func TestWarmInfeasibleMatchesCold(t *testing.T) {
	verdicts := 0

	p, u := upCertificateLP()
	parent, err := p.SolveWith(lp.SolveOptions{CaptureBasis: true})
	if err != nil || parent.Status != lp.StatusOptimal {
		t.Fatalf("up-certificate parent: %v %v", err, parent)
	}
	if !warmVerdict(t, p, parent.Basis, map[lp.VarID][2]float64{u: {0, 0}}) {
		t.Fatal("up-certificate child fell back to cold; want the negated row accepted as a certificate")
	}
	verdicts++

	p, x := scaledFloorLP()
	parent, err = p.SolveWith(lp.SolveOptions{CaptureBasis: true})
	if err != nil || parent.Status != lp.StatusOptimal {
		t.Fatalf("scaled-floor parent: %v %v", err, parent)
	}
	warmVerdict(t, p, parent.Basis, map[lp.VarID][2]float64{x: {0, 1 - 1e-5}})

	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, _ := lp.RandomLP(rng, 2+rng.Intn(6), 2+rng.Intn(6))
		parent, err := p.SolveWith(lp.SolveOptions{CaptureBasis: true})
		if err != nil {
			t.Fatalf("seed %d parent: %v", seed, err)
		}
		if parent.Status != lp.StatusOptimal {
			continue
		}
		ov := map[lp.VarID][2]float64{}
		for j := 0; j < p.NumVars(); j++ {
			if rng.Float64() < 0.5 {
				_, hi := p.Bounds(lp.VarID(j))
				ov[lp.VarID(j)] = [2]float64{hi, hi}
			}
		}
		if warmVerdict(t, p, parent.Basis, ov) {
			verdicts++
		}
	}

	mod := b4NodeModel(t)
	parent, err = mod.P.SolveWith(lp.SolveOptions{CaptureBasis: true})
	ov := map[lp.VarID][2]float64{}
	b4Verdicts := 0
	for depth := 0; depth < 10 && err == nil && parent.Status == lp.StatusOptimal; depth++ {
		fixes, ok := b4Branch(mod, parent.X)
		if !ok {
			break
		}
		var next *lp.Solution
		for _, fix := range fixes {
			child := withFix(ov, fix)
			if warmVerdict(t, mod.P, parent.Basis, child) {
				b4Verdicts++
			}
			sol, err := mod.P.SolveWith(lp.SolveOptions{BoundOverride: child,
				WarmStart: parent.Basis, CaptureBasis: true})
			if err != nil {
				t.Fatalf("depth %d: %v", depth, err)
			}
			if next == nil && sol.Status == lp.StatusOptimal {
				next, ov = sol, child
			}
		}
		if next == nil {
			break
		}
		parent = next
	}
	if err != nil {
		t.Fatal(err)
	}
	if b4Verdicts == 0 {
		t.Error("no B4 child ended at a certificate verdict")
	}
	t.Logf("%d certificate verdicts, %d of them on the B4 dive", verdicts+b4Verdicts, b4Verdicts)
}

// FuzzWarmInfeasible tightens the bounds of a problem's variables after
// capturing its optimal basis, the way branching does, and requires the
// warm-started child to report the cold child's status. Each data byte
// picks a tightening for one variable: leave it, fix it at its lower or
// upper bound, or raise its lower bound part of the way up.
func FuzzWarmInfeasible(f *testing.F) {
	lp.IndexSeeds(func(src uint8, seed int64, data []byte) { f.Add(src, seed, data) })
	f.Fuzz(func(t *testing.T, src uint8, seed int64, data []byte) {
		p, ok := lp.IndexProblem(src, seed, data)
		if !ok || p.NumVars() == 0 {
			return
		}
		parent, err := p.SolveWith(lp.SolveOptions{CaptureBasis: true})
		if err != nil || parent.Status != lp.StatusOptimal {
			return
		}
		ov := map[lp.VarID][2]float64{}
		for k, b := range data {
			v := lp.VarID(k % p.NumVars())
			lo, hi := p.Bounds(v)
			if math.IsInf(lo, -1) {
				continue
			}
			span := 25.0
			if !math.IsInf(hi, 1) {
				span = hi - lo
			}
			switch b % 4 {
			case 1:
				ov[v] = [2]float64{lo, lo}
			case 2:
				if !math.IsInf(hi, 1) {
					ov[v] = [2]float64{hi, hi}
				}
			case 3:
				ov[v] = [2]float64{lo + span*float64(b>>2)/63, hi}
			}
		}
		warmVerdict(t, p, parent.Basis, ov)
	})
}
