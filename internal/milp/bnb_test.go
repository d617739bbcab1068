package milp

import (
	"math"
	"testing"
	"time"

	"repro/internal/lp"
)

func TestSeedsInstallIncumbent(t *testing.T) {
	p := lp.NewProblem("seeded", lp.Maximize)
	m := NewModel(p)
	a := m.AddBinary("a")
	b := m.AddBinary("b")
	p.SetObj(a, 3)
	p.SetObj(b, 2)
	p.AddConstraint("w", lp.NewExpr().Add(a, 1).Add(b, 1), lp.LE, 1)
	// Seed with the known optimum; zero node budget means the answer can
	// only come from the seed.
	seedX := make([]float64, p.NumVars())
	seedX[a] = 1
	res, err := Solve(m, Options{MaxNodes: 0, TimeLimit: time.Nanosecond,
		Seeds: []Seed{{Objective: 3, X: seedX}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == StatusNoIncumbent || math.Abs(res.Objective-3) > 1e-9 {
		t.Fatalf("seed ignored: status=%v obj=%v", res.Status, res.Objective)
	}
	if res.X[a] != 1 {
		t.Fatalf("seed X not returned")
	}
}

func TestSeedsDoNotOverrideBetterSearch(t *testing.T) {
	p := lp.NewProblem("seeded2", lp.Maximize)
	m := NewModel(p)
	a := m.AddBinary("a")
	p.SetObj(a, 5)
	weak := make([]float64, p.NumVars())
	res, err := Solve(m, Options{Seeds: []Seed{{Objective: 0, X: weak}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal || math.Abs(res.Objective-5) > 1e-9 {
		t.Fatalf("status=%v obj=%v, want optimal/5", res.Status, res.Objective)
	}
}

func TestSeedSatisfiesTargetImmediately(t *testing.T) {
	p := lp.NewProblem("seeded3", lp.Maximize)
	m := NewModel(p)
	a := m.AddBinary("a")
	p.SetObj(a, 1)
	target := 0.5
	seedX := make([]float64, p.NumVars())
	seedX[a] = 1
	res, err := Solve(m, Options{Target: &target,
		Seeds: []Seed{{Objective: 1, X: seedX}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusFeasible || res.Nodes != 0 {
		t.Fatalf("target seed should return before any node: status=%v nodes=%d",
			res.Status, res.Nodes)
	}
}

func TestTraceRecordsImprovements(t *testing.T) {
	p := lp.NewProblem("trace", lp.Maximize)
	m := NewModel(p)
	var vars []lp.VarID
	for i := 0; i < 6; i++ {
		v := m.AddBinary("b")
		p.SetObj(v, float64(i+1))
		vars = append(vars, v)
	}
	e := lp.NewExpr()
	for _, v := range vars {
		e = e.Add(v, 2)
	}
	p.AddConstraint("w", e, lp.LE, 7)
	res, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
	last := res.Trace[len(res.Trace)-1]
	if math.Abs(last.Objective-res.Objective) > 1e-9 {
		t.Fatalf("trace tail %v != final objective %v", last.Objective, res.Objective)
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].Objective < res.Trace[i-1].Objective {
			t.Fatal("trace not monotone")
		}
	}
}

func TestPolishInstallsIncumbents(t *testing.T) {
	// A model whose relaxation is fractional; polish rounds it to a known
	// feasible point with a strong objective, which must appear as the
	// result even with a tiny node budget. Each call is timed into
	// bnb_polish_seconds.
	p := lp.NewProblem("polish", lp.Maximize)
	m := NewModel(p)
	a := m.AddBinary("a")
	b := m.AddBinary("b")
	p.SetObj(a, 2)
	p.SetObj(b, 2)
	p.AddConstraint("w", lp.NewExpr().Add(a, 1).Add(b, 1), lp.LE, 1.5)
	calls := 0
	observed := bnbPolishSeconds.Count()
	res, err := Solve(m, Options{
		MaxNodes: 1,
		Polish: func(x []float64) (float64, []float64, bool) {
			calls++
			sol := make([]float64, len(x))
			sol[a] = 1
			return 2, sol, true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("polish never called")
	}
	if got := bnbPolishSeconds.Count() - observed; got != uint64(calls) {
		t.Fatalf("bnb_polish_seconds observed %d polish calls, want %d", got, calls)
	}
	if res.Objective < 2-1e-9 {
		t.Fatalf("polished incumbent lost: %v", res.Objective)
	}
}

func TestStallWindowStopsSearch(t *testing.T) {
	// Large symmetric knapsack that cannot be closed instantly; with an
	// aggressive stall rule the search must stop well before the time cap.
	p := lp.NewProblem("stall", lp.Maximize)
	m := NewModel(p)
	var e lp.Expr
	for i := 0; i < 40; i++ {
		v := m.AddBinary("b")
		p.SetObj(v, 1) // fully symmetric: bound closure is slow
		e = e.Add(v, 2)
	}
	p.AddConstraint("w", e, lp.LE, 39)
	start := time.Now()
	res, err := Solve(m, Options{
		TimeLimit:    30 * time.Second,
		StallWindow:  50 * time.Millisecond,
		StallImprove: 0.005,
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("stall rule did not fire (ran %v, status %v)", elapsed, res.Status)
	}
	if res.Status == StatusNoIncumbent {
		t.Fatalf("no incumbent found before stall")
	}
}

func TestBigMReplacementSolvesSame(t *testing.T) {
	build := func() (*Model, lp.VarID, lp.VarID) {
		p := lp.NewProblem("bigm", lp.Maximize)
		m := NewModel(p)
		u := p.AddVar("u", 0, 4)
		v := p.AddVar("v", 0, 6)
		p.SetObj(u, 2)
		p.SetObj(v, 1)
		m.AddComplementarity(u, v, "uv")
		return m, u, v
	}
	sos, _, _ := build()
	resSOS, err := Solve(sos, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bigm, _, _ := build()
	bigm.ReplacePairsWithBigM(10)
	if bigm.NumComplementarities() != 0 {
		t.Fatal("pairs not cleared")
	}
	resM, err := Solve(bigm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resSOS.Objective-resM.Objective) > 1e-6 {
		t.Fatalf("SOS %v != bigM %v", resSOS.Objective, resM.Objective)
	}
}
