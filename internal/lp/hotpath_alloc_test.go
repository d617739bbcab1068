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
// a form: the matrix and the right-hand side. restore puts it back without
// allocating, so one prepared form can be installed over and over.
type formState struct {
	data, b []float64
}

func saveForm(s *stdForm) formState {
	return formState{data: slices.Clone(s.slab.data), b: slices.Clone(s.b)}
}

func (st formState) restore(t *tableau) {
	s := t.s
	copy(s.slab.data, st.data)
	copy(s.b, st.b)
	s.pivoted = false
	clear(t.inBasis)
}

// otherRows lists the rows other than pr where column pc of s is nonzero:
// the multiplier rows of a Gauss-Jordan step on (pr, pc).
func otherRows(s *stdForm, pr, pc int) []int32 {
	var rows []int32
	for i := 0; i < s.m; i++ {
		if i != pr && s.a[i][pc] != 0 {
			rows = append(rows, int32(i))
		}
	}
	return rows
}

// The //gapvet:hotpath annotations on the tableau kernels are a static
// promise; TestHotpathDenseKernelsDoNotAllocate seals the two elimination
// kernels with the runtime's own counter: gauss (one replayed step of a
// warm install) and pivot (every simplex step) keep their nonzero list in
// the tableau's presized scratch, so neither may allocate per call.
func TestHotpathDenseKernelsDoNotAllocate(t *testing.T) {
	tab, s := kernelTableau(t)
	defer s.release()
	pristine := saveForm(s)

	// x is nonzero in rows 0, 2 and 3, so each step scales row 0 and
	// eliminates from two more rows.
	rows := otherRows(s, 0, 0)
	if len(rows) != 2 {
		t.Fatalf("column x is nonzero in rows %v besides row 0, want two", rows)
	}
	gauss := func() {
		pristine.restore(tab)
		tab.gauss(0, 0, rows)
	}
	gauss()
	ref := saveForm(s)
	pristine.restore(tab)
	refGauss(tab, 0, 0)
	if !slices.Equal(s.slab.data, ref.data) || !slices.Equal(s.b, ref.b) {
		t.Fatal("gauss over the column's other rows differs from the dense step")
	}
	if allocs := testing.AllocsPerRun(100, gauss); allocs != 0 {
		t.Errorf("gauss allocates %.0f times per run, want 0 (//gapvet:hotpath contract)", allocs)
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
// form and the canonical extraction: placing the columns on the snapshot
// and replaying the eta file reuse the tableau and the slab, and the rows
// already assigned are read off the basis itself; the extraction's work
// column and eta file live in the slab too.
func TestHotpathInstallsDoNotAllocate(t *testing.T) {
	tab, s := kernelTableau(t)
	defer s.release()
	pristine := saveForm(s)

	// x, y, z and the upper-bound row's slack: nonsingular, three replayed
	// steps and one unit placement.
	cols := []int32{0, 1, 2, 6}
	install := func() {
		pristine.restore(tab)
		if !tab.install(cols) {
			t.Fatal("install failed on a nonsingular column set")
		}
	}
	install()
	if got := len(s.slab.ext.etaRow); got != 3 {
		t.Fatalf("install recorded %d etas, want 3", got)
	}
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
