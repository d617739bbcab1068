package lp

import "testing"

// kernelTableau returns a small tableau installed on its slack basis with
// the phase-2 costs reset, so every kernel has real work to do. The caller
// releases the standard form.
func kernelTableau(t *testing.T) (*tableau, *stdForm) {
	t.Helper()
	p := NewProblem("kernels", Maximize)
	x := p.AddVar("x", 0, 10)
	y := p.AddVar("y", 0, Inf)
	z := p.AddVar("z", 0, Inf)
	p.SetObj(x, 3)
	p.SetObj(y, 2)
	p.SetObj(z, 1)
	p.AddConstraint("a", NewExpr().Add(x, 2).Add(y, 1), LE, 8)
	p.AddConstraint("b", NewExpr().Add(y, 3).Add(z, -1), LE, 9)
	p.AddConstraint("c", NewExpr().Add(x, 1).Add(z, 4), LE, 7)
	s, err := buildStandard(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	tab := newTableau(s, SolveOptions{})
	for i := range tab.basis {
		tab.basis[i] = s.rowUnit[i]
		tab.inBasis[s.rowUnit[i]] = true
	}
	tab.resetCosts(s.c)
	return tab, s
}

// TestHotpathSolveKernelsDoNotAllocate seals the two selection kernels the
// simplex loop runs before every pivot: price (entering column, Dantzig
// and Bland) and ratio (leaving row). They scan the tableau in place, so a
// single heap allocation in either would multiply into millions per search.
func TestHotpathSolveKernelsDoNotAllocate(t *testing.T) {
	tab, s := kernelTableau(t)
	defer s.release()
	pc := tab.price(false)
	if pc == -1 || tab.price(true) == -1 {
		t.Fatal("slack basis priced optimal; the kernels would do no work")
	}
	if tab.ratio(pc) == -1 {
		t.Fatal("entering column is unbounded; the ratio test would do no work")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		tab.price(false)
		tab.price(true)
	}); allocs != 0 {
		t.Errorf("price allocates %.0f times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		tab.ratio(pc)
	}); allocs != 0 {
		t.Errorf("ratio allocates %.0f times per run, want 0", allocs)
	}
}

// The //gapvet:hotpath annotations on the tableau kernels are a static
// promise; TestHotpathDenseKernelsDoNotAllocate seals the two elimination
// kernels with the runtime's own counter: gauss (warm install and canonical
// extraction) and pivot (every simplex step) keep their nonzero list in the
// tableau's presized scratch, so neither may allocate per call.
func TestHotpathDenseKernelsDoNotAllocate(t *testing.T) {
	tab, s := kernelTableau(t)
	defer s.release()

	// Alternate between two pivot positions so every call does real
	// scaling and elimination work.
	if allocs := testing.AllocsPerRun(100, func() {
		tab.gauss(0, 0)
		tab.gauss(0, 1)
	}); allocs != 0 {
		t.Errorf("gauss allocates %.0f times per run, want 0 (//gapvet:hotpath contract)", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		tab.pivot(2, 2)
		tab.pivot(2, 0)
	}); allocs != 0 {
		t.Errorf("pivot allocates %.0f times per run, want 0 (//gapvet:hotpath contract)", allocs)
	}
}
