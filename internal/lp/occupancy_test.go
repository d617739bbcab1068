package lp

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// checkLayout requires the slab's occupancy invariant over its current
// layout: every nonzero entry sits on a set bit.
func checkLayout(t testing.TB, what string, sl *stdSlab) {
	t.Helper()
	for i := 0; i < sl.m; i++ {
		for j, v := range sl.data[i*sl.n : (i+1)*sl.n] {
			if v != 0 && sl.occ[i*sl.w+j>>6]&(1<<(j&63)) == 0 {
				t.Fatalf("%s: a[%d][%d] = %v with its bit clear", what, i, j, v)
			}
		}
	}
}

// checkFreeSlabs requires the occupancy invariant of every slab on the free
// list, each over the layout of the form that released it.
func checkFreeSlabs(t testing.TB, what string) {
	t.Helper()
	freeSlabs.mu.Lock()
	defer freeSlabs.mu.Unlock()
	for k, sl := range freeSlabs.list {
		checkLayout(t, fmt.Sprintf("%s: free slab %d", what, k), sl)
	}
}

// sparseLP builds a random LP with a handful of small integer coefficients
// per row, zeros and repeated variables included, feasible by construction
// at a random point. Its rows span several occupancy words and stay sparse
// under elimination, and the integer data cancels to exact zeros.
func sparseLP(rng *rand.Rand, nVars, nCons int) *Problem {
	p := NewProblem("sparse", Maximize)
	x0 := make([]float64, nVars)
	for j := range x0 {
		x0[j] = rng.Float64() * 10
		p.SetObj(p.AddVar("x", 0, 25), rng.Float64()*4-1)
	}
	for i := 0; i < nCons; i++ {
		e, lhs := NewExpr(), 0.0
		for k := 2 + rng.Intn(4); k > 0; k-- {
			j := rng.Intn(nVars)
			coef := float64(rng.Intn(5) - 2)
			e = e.Add(VarID(j), coef)
			lhs += coef * x0[j]
		}
		switch rng.Intn(3) {
		case 0:
			p.AddConstraint("le", e, LE, lhs+rng.Float64()*5)
		case 1:
			p.AddConstraint("ge", e, GE, lhs-rng.Float64()*5)
		default:
			p.AddConstraint("eq", e, EQ, lhs)
		}
	}
	return p
}

// TestEverySolveOutcomeKeepsOccupancy is the referee of the occupancy
// invariant. It drives a solve to every outcome — cold, warm,
// warm-infeasible, a warm fallback after an install, the iteration cap, the
// deadline and an interrupt, each also on a dived form — and after each
// requires the released slab to have a set bit under every nonzero, as the
// solve's row scans assumed; so too the slab a Dive handle holds, and the
// one it hands back on Release. The problems run from a one-word row to
// wide random LPs whose rows span several occupancy words.
func TestEverySolveOutcomeKeepsOccupancy(t *testing.T) {
	seen := map[string]int{}
	solve := func(what string, p *Problem, opts SolveOptions) *Solution {
		t.Helper()
		sol, err := p.SolveWith(opts)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		key := fmt.Sprintf("%s/%v", sol.WarmMode(), sol.Status)
		if sol.Dived {
			key = "dive:" + key
		}
		seen[key]++
		checkFreeSlabs(t, what)
		if d := opts.Dive; d != nil && d.s != nil {
			checkLayout(t, what+": held slab", d.s.slab)
		}
		return sol
	}
	// dive solves p's root into a Dive handle, then the child under opts on
	// the root's tableau, and releases the handle.
	dive := func(what string, p *Problem, opts SolveOptions) *Solution {
		t.Helper()
		d := new(Dive)
		root := solve(what+" root", p, SolveOptions{CaptureBasis: true, Dive: d})
		opts.WarmStart, opts.Dive, opts.CaptureBasis = root.Basis, d, true
		sol := solve(what, p, opts)
		d.Release()
		if d.s != nil {
			t.Fatalf("%s: the handle still holds a form after Release", what)
		}
		checkFreeSlabs(t, what+" released")
		return sol
	}

	// Production: max 3x+5y over x <= 4, 2y <= 12, 3x+2y <= 18.
	prod := lpFixtures()["production"]()
	parent := solve("production", prod, SolveOptions{CaptureBasis: true})
	solve("production warm child", prod, SolveOptions{WarmStart: parent.Basis,
		BoundOverride: map[VarID][2]float64{0: {1, 1}}})
	s, err := buildStandard(prod, nil)
	if err != nil {
		t.Fatal(err)
	}
	shape := s.shape
	s.release()
	// x basic in row m1 with the other two rows' slacks: a nonsingular basis
	// whose install replays an eta, and whose reduced cost for y is
	// negative, so the warm attempt falls back to a rebuild.
	notOptimal := &Basis{cols: []int32{0, 3, 4}, shape: shape}
	if sol := solve("production fallback", prod, SolveOptions{WarmStart: notOptimal}); sol.WarmMode() != "warm-fallback" {
		t.Fatalf("dual-infeasible basis: mode %q, want warm-fallback", sol.WarmMode())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ov := map[VarID][2]float64{0: {1, 1}}
	for _, ws := range []*Basis{nil, parent.Basis} {
		solve("production cap", prod, SolveOptions{WarmStart: ws, BoundOverride: ov, MaxIters: 1})
		solve("production deadline", prod, SolveOptions{WarmStart: ws, BoundOverride: ov, Deadline: time.Unix(1, 0)})
		solve("production interrupt", prod, SolveOptions{WarmStart: ws, BoundOverride: ov, Ctx: ctx})
	}
	dive("production dive", prod, SolveOptions{BoundOverride: ov})
	dive("production dive cap", prod, SolveOptions{BoundOverride: ov, MaxIters: 1})
	dive("production dive deadline", prod, SolveOptions{BoundOverride: ov, Deadline: time.Unix(1, 0)})
	dive("production dive interrupt", prod, SolveOptions{BoundOverride: ov, Ctx: ctx})

	// min u s.t. u - w >= 2, then u fixed at zero: the "up" certificate.
	up := NewProblem("up", Minimize)
	u := up.AddVar("u", 0, Inf)
	w := up.AddVar("w", 0, Inf)
	up.SetObj(u, 1)
	up.AddConstraint("floor", NewExpr().Add(u, 1).Add(w, -1), GE, 2)
	upParent := solve("up", up, SolveOptions{CaptureBasis: true})
	solve("up child", up, SolveOptions{WarmStart: upParent.Basis, BoundOverride: map[VarID][2]float64{u: {0, 0}}})
	dive("up dive", up, SolveOptions{BoundOverride: map[VarID][2]float64{u: {0, 0}}})

	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 40; k++ {
		p, what := sparseLP(rng, 60+rng.Intn(100), 30+rng.Intn(60)), fmt.Sprintf("sparse#%d", k)
		if k%2 == 0 {
			p, _ = randomLP(rng, 40+rng.Intn(60), 20+rng.Intn(30))
			what = fmt.Sprintf("random#%d", k)
		}
		par := solve(what, p, SolveOptions{CaptureBasis: true})
		if par.Status != StatusOptimal {
			continue
		}
		for v := 0; v < p.NumVars(); v += 1 + rng.Intn(8) {
			lo, hi := p.Bounds(VarID(v))
			fix := par.X[v]
			if rng.Intn(2) == 0 && hi < Inf {
				fix = hi
			} else if rng.Intn(2) == 0 {
				fix = lo
			}
			child := map[VarID][2]float64{VarID(v): {fix, fix}}
			solve(fmt.Sprintf("%s child %d", what, v), p, SolveOptions{WarmStart: par.Basis, BoundOverride: child})
			dive(fmt.Sprintf("%s dive %d", what, v), p, SolveOptions{BoundOverride: child})
		}
	}
	for _, want := range []string{
		"/optimal", "warm/optimal", "warm-infeasible/infeasible", "warm-fallback/optimal",
		"/iteration-limit", "/deadline", "/interrupted",
		"warm/deadline", "warm/interrupted",
		"dive:warm/optimal", "dive:warm-infeasible/infeasible", "dive:warm/deadline", "dive:warm/interrupted",
	} {
		if seen[want] == 0 {
			t.Errorf("no solve ended %q; outcomes seen: %v", want, seen)
		}
	}
}
