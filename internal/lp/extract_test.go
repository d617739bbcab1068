package lp

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// refExtract is the dense reference for extraction.canonical: build a fresh
// standard form, bar its artificials, install the support canonically with
// the dense reference kernels, reset the phase-2 costs for the objective
// and clamp the refactorization dust. It returns copies.
func refExtract(t testing.TB, p *Problem, ov map[VarID][2]float64, support []int) (basis []int, b []float64, obj float64, ok bool) {
	t.Helper()
	s, err := buildStandard(p, ov)
	if err != nil {
		t.Fatal(err)
	}
	defer s.release()
	tab := newTableau(s, SolveOptions{})
	for j := s.artFrom; j < s.n; j++ {
		tab.blocked[j] = true
	}
	if !refInstallCanonical(tab, support) {
		return nil, nil, 0, false
	}
	tab.resetCosts(s.c)
	for i := range s.b {
		if s.b[i] < 0 && s.b[i] > -feasTol {
			s.b[i] = 0
		}
	}
	return slices.Clone(tab.basis), slices.Clone(s.b), tab.obj, true
}

// extractDifferential runs extraction.canonical for support on a form of p
// after an install of cols, which moves the matrix and right-hand side off
// the pristine data when it succeeds and leaves its eta file in the slab
// either way, and compares it with refExtract: the same success or failure
// and, on success, bitwise-equal basis, b and objective. The kernel runs
// twice on the same slab to check that it resets its workspace.
func extractDifferential(t testing.TB, p *Problem, ov map[VarID][2]float64, cols []int32, support []int) {
	t.Helper()
	s, err := buildStandard(p, ov)
	if err != nil {
		return
	}
	defer s.release()
	wantBasis, wantB, wantObj, wantOK := refExtract(t, p, ov, support)
	tab := newTableau(s, SolveOptions{})
	for j := s.artFrom; j < s.n; j++ {
		tab.blocked[j] = true
	}
	tab.install(cols)
	checkLayout(t, fmt.Sprintf("install(%v)", cols), s.slab)
	for round := 0; round < 2; round++ {
		what := fmt.Sprintf("canonical(%v), round %d", support, round)
		basis, b, obj, ok := s.slab.ext.canonical(support, tab.blocked, s.c)
		if ok != wantOK {
			t.Fatalf("%s: ok = %v, reference %v", what, ok, wantOK)
		}
		if !ok {
			continue
		}
		if !slices.Equal(basis, wantBasis) {
			t.Fatalf("%s: basis %v, reference %v", what, basis, wantBasis)
		}
		for i := range wantB {
			if math.Float64bits(b[i]) != math.Float64bits(wantB[i]) {
				t.Fatalf("%s: b[%d] = %v, reference %v", what, i, b[i], wantB[i])
			}
		}
		if math.Float64bits(obj) != math.Float64bits(wantObj) {
			t.Fatalf("%s: objective %v, reference %v", what, obj, wantObj)
		}
	}
}

// vertexSupport installs cols on a fresh form of p and returns the support
// finishSolution would extract from that basis: its columns with value
// above feasTol, ascending. nil when the install fails.
func vertexSupport(p *Problem, ov map[VarID][2]float64, cols []int32) []int {
	s, err := buildStandard(p, ov)
	if err != nil {
		return nil
	}
	defer s.release()
	tab := newTableau(s, SolveOptions{})
	if !tab.install(cols) {
		return nil
	}
	var support []int
	for i, col := range tab.basis {
		if s.b[i] > feasTol {
			support = append(support, col)
		}
	}
	slices.Sort(support)
	return support
}

// checkCanonicalExtraction is the FuzzCanonicalExtraction protocol for one
// problem under overrides ov: extract a byte-picked support (singular,
// repeated and out-of-range columns included) and, when the problem solves,
// the support of its optimal basis and of that basis on a child that fixes
// one variable, each compared with the dense reference by
// extractDifferential. The forms installed on and the slabs the solve
// released must keep the occupancy invariant.
func checkCanonicalExtraction(t testing.TB, p *Problem, ov map[VarID][2]float64, data []byte) {
	t.Helper()
	m, n, err := StdShape(p, ov)
	if err != nil {
		return
	}
	cols, support := pickColumns(data, m, n)
	if len(data) > 1 && data[1]%4 == 0 {
		// A repeated column, which both paths must reject.
		support = append(support, support...)
	}
	extractDifferential(t, p, ov, cols, support)
	sol, err := p.SolveWith(SolveOptions{BoundOverride: ov, CaptureBasis: true})
	checkFreeSlabs(t, "solve")
	if err != nil || sol.Status != StatusOptimal {
		return
	}
	extractDifferential(t, p, ov, cols, vertexSupport(p, ov, sol.Basis.cols))
	pick := 0
	if len(data) > 0 {
		pick = int(data[0])
	}
	v := VarID(pick % p.NumVars())
	fix := sol.X[v]
	if pick%2 == 1 {
		fix = math.Floor(fix)
	}
	child := map[VarID][2]float64{v: {fix, fix}}
	for u, b := range ov {
		if u != v {
			child[u] = b
		}
	}
	extractDifferential(t, p, child, sol.Basis.cols, vertexSupport(p, child, sol.Basis.cols))
}

// TestCanonicalExtractionRejects pins the failure cases: a support column
// out of range, a repeated one, and a column parallel to an earlier one
// (singular) make both the kernel and the dense reference return false.
// Completion itself cannot fail once the support is placed: every row keeps
// its own slack or artificial unit column, untouched by etas on other rows.
func TestCanonicalExtractionRejects(t *testing.T) {
	p := NewProblem("parallel", Maximize)
	x := p.AddVar("x", 0, Inf)
	y := p.AddVar("y", 0, Inf)
	p.SetObj(x, 1)
	p.SetObj(y, 1)
	p.AddConstraint("a", NewExpr().Add(x, 1).Add(y, 2), LE, 4)
	p.AddConstraint("b", NewExpr().Add(x, 2).Add(y, 4), LE, 9)
	m, n, err := StdShape(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, support := range [][]int{{0, n}, {-1}, {0, 0}, {0, 1}} {
		if _, _, _, ok := refExtract(t, p, nil, support); ok {
			t.Fatalf("reference accepted support %v of a %dx%d form", support, m, n)
		}
		extractDifferential(t, p, nil, nil, support)
	}
	if _, _, _, ok := refExtract(t, p, nil, []int{1}); !ok {
		t.Fatal("reference rejected a single nonzero column")
	}
	extractDifferential(t, p, nil, nil, []int{1})
}
