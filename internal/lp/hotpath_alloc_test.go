package lp

import (
	"slices"
	"testing"
)

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

// formState is a copy of everything gauss, pivot and the installs write to
// a form: the matrix, the right-hand side and the column index. restore puts it back
// without allocating, so one prepared form can be installed over and over.
type formState struct {
	data, b               []float64
	unit, colRows, colLen []int32
}

func saveForm(s *stdForm) formState {
	return formState{
		data:    slices.Clone(s.slab.data),
		b:       slices.Clone(s.b),
		unit:    slices.Clone(s.unit),
		colRows: slices.Clone(s.colRows),
		colLen:  slices.Clone(s.colLen),
	}
}

func (st formState) restore(t *tableau) {
	s := t.s
	copy(s.slab.data, st.data)
	copy(s.b, st.b)
	copy(s.unit, st.unit)
	copy(s.colRows, st.colRows)
	copy(s.colLen, st.colLen)
	s.indexStale = false
	clear(t.inBasis)
}

// The //gapvet:hotpath annotations on the tableau kernels are a static
// promise; TestHotpathDenseKernelsDoNotAllocate seals the two elimination
// kernels with the runtime's own counter: gauss (warm install) and pivot
// (every simplex step) keep their nonzero list in the
// tableau's presized scratch, and gauss's fill-in goes to the row lists in
// the recycled slab, so neither may allocate per call.
func TestHotpathDenseKernelsDoNotAllocate(t *testing.T) {
	tab, s := kernelTableau(t)
	defer s.release()
	pristine := saveForm(s)

	// Alternate between two pivot positions so every call does real
	// scaling and elimination work, and fill-in through the index.
	if allocs := testing.AllocsPerRun(100, func() {
		tab.gauss(0, 0)
		tab.gauss(0, 1)
	}); allocs != 0 {
		t.Errorf("gauss allocates %.0f times per run, want 0 (//gapvet:hotpath contract)", allocs)
	}
	checkIndex(t, s)

	// Row 0's slack (column 3) is e_0 with its row list padded to m with
	// duplicates. gauss(0, 0) fills it in on rows 2 and 3, where x is
	// nonzero, so the first fill-in compacts the full list.
	const slack0 = 3
	compacting := func() {
		pristine.restore(tab)
		for k := 0; k < s.m; k++ {
			s.colRows[slack0*s.m+k] = 0
		}
		s.colLen[slack0] = int32(s.m)
		tab.gauss(0, 0)
	}
	compacting()
	checkIndex(t, s)
	if got := s.col(slack0); !slices.Equal(got, []int32{0, 2, 3}) {
		t.Fatalf("slack row list after a compacting gauss = %v, want [0 2 3]", got)
	}
	if allocs := testing.AllocsPerRun(100, compacting); allocs != 0 {
		t.Errorf("gauss with a compaction allocates %.0f times per run, want 0 (//gapvet:hotpath contract)", allocs)
	}

	pristine.restore(tab)
	if allocs := testing.AllocsPerRun(100, func() {
		tab.pivot(2, 2)
		tab.pivot(2, 0)
	}); allocs != 0 {
		t.Errorf("pivot allocates %.0f times per run, want 0 (//gapvet:hotpath contract)", allocs)
	}
}

// TestHotpathInstallsDoNotAllocate seals the warm install on a prepared
// form and the canonical extraction: placing a column, through the unit
// shortcut or a gauss step, reuses the tableau and the slab, and the rows
// already assigned are read off the basis itself; the extraction's work
// column and eta file live in the slab too.
func TestHotpathInstallsDoNotAllocate(t *testing.T) {
	tab, s := kernelTableau(t)
	defer s.release()
	pristine := saveForm(s)

	// x, y, z and the upper-bound row's slack: nonsingular, three gauss
	// steps and one unit placement.
	cols := []int32{0, 1, 2, 6}
	install := func() {
		pristine.restore(tab)
		if !tab.install(cols) {
			t.Fatal("install failed on a nonsingular column set")
		}
	}
	install()
	checkIndex(t, s)
	if allocs := testing.AllocsPerRun(100, install); allocs != 0 {
		t.Errorf("install allocates %.0f times per run, want 0 (//gapvet:hotpath contract)", allocs)
	}

	// The extraction reads only the form's pristine snapshot, so it runs
	// as is on the installed form.
	support := []int{0, 2}
	extract := func() {
		if _, _, _, ok := s.slab.ext.canonical(support, tab.blocked, s.c); !ok {
			t.Fatal("canonical extraction failed to complete a basis")
		}
	}
	extract()
	if allocs := testing.AllocsPerRun(100, extract); allocs != 0 {
		t.Errorf("canonical extraction allocates %.0f times per run, want 0 (//gapvet:hotpath contract)", allocs)
	}
}

// TestHotpathCostKernelsDoNotAllocate seals the two O(m·n) cost-row
// rebuilds every optimal solve runs: resetCosts (each phase start) and
// tiebreak (the phase-3 walk, whose secondary reduced costs go to tableau
// scratch). The tableau is driven to optimality first, so tiebreak does its
// full set-up and scan on every call.
func TestHotpathCostKernelsDoNotAllocate(t *testing.T) {
	tab, s := kernelTableau(t)
	defer s.release()
	if st := tab.run(); st != StatusOptimal {
		t.Fatalf("kernel LP: %v", st)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		tab.resetCosts(s.c)
	}); allocs != 0 {
		t.Errorf("resetCosts allocates %.0f times per run, want 0 (//gapvet:hotpath contract)", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if st := tab.tiebreak(); st != StatusOptimal {
			t.Fatalf("tiebreak: %v", st)
		}
	}); allocs != 0 {
		t.Errorf("tiebreak allocates %.0f times per run, want 0 (//gapvet:hotpath contract)", allocs)
	}
}
