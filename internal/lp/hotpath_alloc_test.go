package lp

import "testing"

// The //gapvet:hotpath annotations on the sparse engine's per-pivot
// kernels are a static promise; this test seals the two solve kernels with
// the runtime's own counter. ftran and btran run once per pivot (and ftran
// again per pricing probe), so a single heap allocation in either would
// multiply into millions per search — AllocsPerRun must read exactly zero
// once the factor's buffers exist. appendEta is excluded on purpose: it
// allocates its exactly-sized eta arrays by design (the hotalloc evidence
// rule), so its cost shows up in the eta-file growth benchmarks instead.
func TestHotpathSolveKernelsDoNotAllocate(t *testing.T) {
	a := denseCSC(3,
		[]float64{0, 2, 1},
		[]float64{3, 1, 0},
		[]float64{1, 0, 4},
	)
	var lu luFactor
	if !lu.factorize(a, []int{0, 1, 2}) {
		t.Fatal("factorize failed on a nonsingular basis")
	}
	// One eta in the file so the update loops run too.
	lu.appendEta(1, []float64{0.5, 2, -1})

	rhs := []float64{5, -2, 3}
	v := make([]float64, 3)
	z := make([]float64, 3)
	if allocs := testing.AllocsPerRun(100, func() {
		copy(v, rhs)
		lu.ftran(v, z)
	}); allocs != 0 {
		t.Errorf("ftran allocates %.0f times per run, want 0 (//gapvet:hotpath contract)", allocs)
	}

	cost := []float64{-1, 4, 2}
	c := make([]float64, 3)
	y := make([]float64, 3)
	if allocs := testing.AllocsPerRun(100, func() {
		copy(c, cost)
		lu.btran(c, y)
	}); allocs != 0 {
		t.Errorf("btran allocates %.0f times per run, want 0 (//gapvet:hotpath contract)", allocs)
	}
}

// TestHotpathDenseKernelsDoNotAllocate seals the dense tableau's two
// elimination kernels the same way: gauss (warm install and canonical
// extraction) and pivot (every simplex step) keep their nonzero list in the
// tableau's presized scratch, so neither may allocate per call.
func TestHotpathDenseKernelsDoNotAllocate(t *testing.T) {
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
	defer s.release()
	tab := newTableau(s, SolveOptions{})
	for i := range tab.basis {
		tab.basis[i] = s.rowUnit[i]
		tab.inBasis[s.rowUnit[i]] = true
	}
	tab.resetCosts(s.c)

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
