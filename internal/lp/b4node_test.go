package lp_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/demand"
	"repro/internal/kkt"
	"repro/internal/lp"
	"repro/internal/mcf"
	"repro/internal/milp"
	"repro/internal/topology"
)

// b4NodeModel builds the DP gap meta model of the smoke search — B4, four
// random pairs from seed 5, two paths per pair, threshold 5, demands in
// [0, 100] — with the phase-2 heuristic encoding: KKT-certified max-flows,
// McCormick pinned volumes and big-M threshold links. Its relaxations are
// the node LPs branch and bound solves on that search.
func b4NodeModel(t testing.TB) *milp.Model {
	t.Helper()
	const maxD, threshold = 100.0, 5.0
	g := topology.B4()
	inst, err := mcf.NewInstance(g, demand.RandomPairs(g, 4, rand.New(rand.NewSource(5))), 2)
	if err != nil {
		t.Fatal(err)
	}
	n := inst.Demands.Len()
	p := lp.NewProblem("b4-dp-gap", lp.Maximize)
	m := milp.NewModel(p)
	d := make([]lp.VarID, n)
	for k := range d {
		d[k] = p.AddVar(fmt.Sprintf("d%d", k), 0, maxD)
	}
	opt := mcf.BuildInnerMaxFlow("opt", inst, func(k int) kkt.AffineRHS {
		return kkt.Var(d[k], 1, 0)
	}, 1, nil, maxD)
	optRes, err := kkt.Emit(m, opt.LP, false)
	if err != nil {
		t.Fatal(err)
	}

	z := make([]lp.VarID, n)
	w := make([]lp.VarID, n)
	for k := 0; k < n; k++ {
		z[k] = m.AddBinary(fmt.Sprintf("z%d", k))
		w[k] = p.AddVar(fmt.Sprintf("w%d", k), 0, maxD)
		p.AddConstraint("w.le-zd", lp.NewExpr().Add(w[k], 1).Add(z[k], -maxD), lp.LE, 0)
		p.AddConstraint("w.le-d", lp.NewExpr().Add(w[k], 1).Add(d[k], -1), lp.LE, 0)
		p.AddConstraint("w.ge", lp.NewExpr().Add(w[k], 1).Add(d[k], -1).Add(z[k], -maxD), lp.GE, -maxD)
	}
	pinLoad := make([]lp.Expr, g.NumEdges())
	for k := 0; k < n; k++ {
		for _, e := range inst.ShortestPath(k).Edges {
			pinLoad[e] = pinLoad[e].Add(w[k], 1)
		}
	}
	dp := mcf.BuildInnerMaxFlow("dp2", inst, func(k int) kkt.AffineRHS {
		return kkt.AffineRHS{Terms: []lp.Term{{Var: d[k], Coef: 1}, {Var: w[k], Coef: -1}}}
	}, 1, nil, maxD)
	for e := 0; e < g.NumEdges(); e++ {
		row := &dp.LP.Rows[dp.CapRows[e]]
		for _, tm := range pinLoad[e].Terms {
			row.RHS.Terms = append(row.RHS.Terms, lp.Term{Var: tm.Var, Coef: -tm.Coef})
		}
	}
	dpRes, err := kkt.Emit(m, dp.LP, true)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		p.AddConstraint("link.hi", lp.NewExpr().Add(d[k], 1).Add(z[k], maxD-threshold), lp.LE, maxD)
		p.AddConstraint("link.lo", lp.NewExpr().Add(d[k], 1).Add(z[k], threshold), lp.GE, threshold)
	}
	for _, tm := range optRes.Obj.Terms {
		p.SetObj(tm.Var, tm.Coef)
	}
	for _, tm := range dpRes.Obj.Terms {
		p.SetObj(tm.Var, -tm.Coef)
	}
	for k := 0; k < n; k++ {
		p.SetObj(w[k], p.Obj(w[k])-1)
	}
	return m
}

// b4Branch picks the next branching decision for relaxation point x the way
// branch and bound does — the most fractional binary or the most violated
// complementarity pair, binaries winning ties — and returns the two child
// fixings in the order a depth-first dive tries them. ok is false when x is
// feasible for the full model.
func b4Branch(m *milp.Model, x []float64) (fixes [2]map[lp.VarID][2]float64, ok bool) {
	const tol = 1e-6
	bestVar, bestFrac := lp.VarID(-1), tol
	for _, v := range m.Binaries() {
		if f := math.Min(x[v], 1-x[v]); f > bestFrac {
			bestVar, bestFrac = v, f
		}
	}
	bestPair, bestViol := -1, tol
	for i, pr := range m.Pairs() {
		if viol := math.Min(math.Max(x[pr.U], 0), math.Max(x[pr.V], 0)); viol > bestViol {
			bestPair, bestViol = i, viol
		}
	}
	switch {
	case bestVar != -1 && bestFrac >= bestViol:
		return [2]map[lp.VarID][2]float64{{bestVar: {1, 1}}, {bestVar: {0, 0}}}, true
	case bestPair != -1:
		pr := m.Pairs()[bestPair]
		return [2]map[lp.VarID][2]float64{{pr.U: {0, 0}}, {pr.V: {0, 0}}}, true
	}
	return fixes, false
}

// withFix returns a copy of the override map with fix applied on top.
func withFix(ov, fix map[lp.VarID][2]float64) map[lp.VarID][2]float64 {
	out := make(map[lp.VarID][2]float64, len(ov)+len(fix))
	for v, b := range ov {
		out[v] = b
	}
	for v, b := range fix {
		out[v] = b
	}
	return out
}

// TestWarmResolveAllocBelowDenseMatrix bounds the memory a warm-started
// node LP allocates: re-solving a fixed B4 node from its parent's basis must
// average less than one dense m x n standard-form matrix (m*n*8 bytes) per
// solve. The standard form's matrix comes from the slab free list and the
// elimination kernels work in tableau scratch, so only O(m+n) bookkeeping
// remains. Each solve follows two garbage collections, which would empty a
// sync.Pool: recycling must not depend on when the collector runs.
func TestWarmResolveAllocBelowDenseMatrix(t *testing.T) {
	mod := b4NodeModel(t)
	root, err := mod.P.SolveWith(lp.SolveOptions{CaptureBasis: true})
	if err != nil || root.Status != lp.StatusOptimal {
		t.Fatalf("root: %v %v", err, root)
	}
	fixes, ok := b4Branch(mod, root.X)
	if !ok {
		t.Fatal("root relaxation is already feasible; no child to re-solve")
	}
	opts := lp.SolveOptions{BoundOverride: fixes[0], WarmStart: root.Basis}
	m, n, err := lp.StdShape(mod.P, fixes[0])
	if err != nil {
		t.Fatal(err)
	}
	solve := func() {
		sol, err := mod.P.SolveWith(opts)
		if err != nil || !sol.Warm {
			t.Fatalf("warm re-solve: err=%v warm=%v", err, sol != nil && sol.Warm)
		}
	}
	solve() // fill the slab free list

	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		runtime.GC()
		runtime.GC()
		solve()
	}
	runtime.ReadMemStats(&after)
	perSolve := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(m * n * 8); perSolve >= limit {
		t.Errorf("warm re-solve allocates %d bytes on average, want < %d (one dense %dx%d matrix)",
			perSolve, limit, m, n)
	}
}

// TestConcurrentSolvesShareSlabPool runs B4 node LPs from several goroutines
// at once — the way milp workers and gapserved jobs do — and requires every
// answer to equal its serial reference bit for bit. All of them draw their
// standard-form matrices from one free list, so a slab released while still in
// use, or handed to two solves, shows up here (and under -race).
func TestConcurrentSolvesShareSlabPool(t *testing.T) {
	mod := b4NodeModel(t)
	root, err := mod.P.SolveWith(lp.SolveOptions{CaptureBasis: true})
	if err != nil || root.Status != lp.StatusOptimal {
		t.Fatalf("root: %v %v", err, root)
	}
	fixes, ok := b4Branch(mod, root.X)
	if !ok {
		t.Fatal("root relaxation is already feasible; no child to solve")
	}
	cases := []lp.SolveOptions{{}}
	for _, fix := range fixes {
		cases = append(cases,
			lp.SolveOptions{BoundOverride: fix},
			lp.SolveOptions{BoundOverride: fix, WarmStart: root.Basis})
	}
	ref := make([]*lp.Solution, len(cases))
	for i, opts := range cases {
		if ref[i], err = mod.P.SolveWith(opts); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
	}

	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range cases {
					i := (k + w) % len(cases) // stagger so different shapes overlap
					got, err := mod.P.SolveWith(cases[i])
					if err != nil {
						t.Errorf("worker %d case %d: %v", w, i, err)
						return
					}
					want := ref[i]
					same := got.Status == want.Status && got.Iterations == want.Iterations &&
						math.Float64bits(got.Objective) == math.Float64bits(want.Objective) &&
						len(got.X) == len(want.X)
					for j := 0; same && j < len(got.X); j++ {
						same = math.Float64bits(got.X[j]) == math.Float64bits(want.X[j])
					}
					if !same {
						t.Errorf("worker %d case %d: concurrent answer differs from the serial one", w, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
