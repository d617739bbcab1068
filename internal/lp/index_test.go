package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// refPivotRow is the dense pivot-row choice that extraction.place makes
// over a column's nonzeros: an ascending scan over every row that keeps the
// first strict maximum of |a[i][j]| above pivotTol among unassigned rows.
func refPivotRow(t *tableau, j int) int {
	s := t.s
	best, bestAbs := -1, pivotTol
	for i := 0; i < s.m; i++ {
		if t.basis[i] != -1 {
			continue
		}
		if ab := math.Abs(s.a[i][j]); ab > bestAbs {
			best, bestAbs = i, ab
		}
	}
	return best
}

// refGauss is the dense Gauss-Jordan step that the eta replay reproduces:
// it scales row pr by a full scan, skipping zeros, and eliminates column pc
// from every row. It shares no code with the kernels it referees, and it
// sets the bits of every nonzero it leaves in the rows it eliminates, so
// the form keeps its occupancy invariant.
func refGauss(t *tableau, pr, pc int) {
	s := t.s
	prow := s.a[pr]
	inv := 1 / prow[pc]
	var nz []int
	for j, v := range prow {
		if v != 0 {
			prow[j] = v * inv
			nz = append(nz, j)
		}
	}
	prow[pc] = 1
	s.b[pr] *= inv
	for i := 0; i < s.m; i++ {
		if i == pr {
			continue
		}
		row := s.a[i]
		f := row[pc]
		if f == 0 {
			continue
		}
		for _, j := range nz {
			row[j] -= f * prow[j]
		}
		row[pc] = 0
		s.b[i] -= f * s.b[pr]
		for j, v := range row {
			if v != 0 {
				s.slab.occ[i*s.slab.w+j>>6] |= 1 << (j & 63)
			}
		}
	}
}

// refPlace makes column j basic with the dense reference kernels.
func refPlace(t *tableau, j int) bool {
	pr := refPivotRow(t, j)
	if pr == -1 {
		return false
	}
	refGauss(t, pr, j)
	t.basis[pr] = j
	t.inBasis[j] = true
	return true
}

// refInstall is install over the dense reference kernels: no snapshot, no
// eta file.
func refInstall(t *tableau, cols []int32) bool {
	s := t.s
	if len(cols) != s.m {
		return false
	}
	for i := range t.basis {
		t.basis[i] = -1
	}
	for _, c32 := range cols {
		j := int(c32)
		if j < 0 || j >= s.n || t.inBasis[j] || !refPlace(t, j) {
			return false
		}
	}
	return true
}

// refInstallCanonical is the canonical install that extraction.canonical
// replays, over the dense reference kernels: the support columns are placed
// first (they are independent at a vertex), then the basis is completed by
// scanning all columns in ascending index — unblocked columns first,
// blocked/artificial filler only for rows nothing else can cover
// (redundant rows). It returns false when the support is not extendable to
// a basis.
func refInstallCanonical(t *tableau, support []int) bool {
	s := t.s
	for i := range t.basis {
		t.basis[i] = -1
	}
	placed := 0
	for _, j := range support {
		if j < 0 || j >= s.n || t.inBasis[j] || !refPlace(t, j) {
			return false
		}
		placed++
	}
	for j := 0; j < s.n && placed < s.m; j++ {
		if !t.inBasis[j] && !t.blocked[j] && refPlace(t, j) {
			placed++
		}
	}
	for j := 0; j < s.n && placed < s.m; j++ {
		if !t.inBasis[j] && refPlace(t, j) {
			placed++
		}
	}
	return placed == s.m
}

// sameMatrix requires bitwise-equal a and b in two standard forms.
func sameMatrix(t *testing.T, what string, got, want *stdForm) {
	t.Helper()
	for i := 0; i < want.m; i++ {
		if math.Float64bits(got.b[i]) != math.Float64bits(want.b[i]) {
			t.Fatalf("%s: b[%d] = %v, reference %v", what, i, got.b[i], want.b[i])
		}
		for j := 0; j < want.n; j++ {
			if math.Float64bits(got.a[i][j]) != math.Float64bits(want.a[i][j]) {
				t.Fatalf("%s: a[%d][%d] = %v, reference %v", what, i, j, got.a[i][j], want.a[i][j])
			}
		}
	}
}

// formPair builds the standard form of p twice, each with an artificial-
// blocked tableau, so install and the reference kernels start from equal
// data. The caller releases both forms.
func formPair(t *testing.T, p *Problem, ov map[VarID][2]float64) (idx, ref *tableau, ok bool) {
	t.Helper()
	s1, err1 := buildStandard(p, ov)
	s2, err2 := buildStandard(p, ov)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("builds disagree: %v vs %v", err1, err2)
	}
	if err1 != nil {
		return nil, nil, false
	}
	idx, ref = newTableau(s1, SolveOptions{}), newTableau(s2, SolveOptions{})
	for j := s1.artFrom; j < s1.n; j++ {
		idx.blocked[j], ref.blocked[j] = true, true
	}
	return idx, ref, true
}

// installDifferential installs cols with install on one fresh form and
// with the dense reference kernels on another, and requires the same
// success or failure. On success a, b and the basis must be bitwise those
// of the reference; a rejected install must leave a and b bitwise as built.
// Either way every nonzero must sit on a set bit or a dense row.
// Last, it extracts support with extraction.canonical against the dense
// reference.
func installDifferential(t *testing.T, p *Problem, ov map[VarID][2]float64, cols []int32, support []int) {
	t.Helper()
	idx, ref, ok := formPair(t, p, ov)
	if !ok {
		return
	}
	defer idx.s.release()
	defer ref.s.release()
	what := fmt.Sprintf("install(%v)", cols)
	gotOK, wantOK := idx.install(cols), refInstall(ref, cols)
	if gotOK != wantOK {
		t.Fatalf("%s = %v, reference %v", what, gotOK, wantOK)
	}
	checkLayout(t, what, idx.s.slab)
	checkLayout(t, what+" reference", ref.s.slab)
	if gotOK {
		sameMatrix(t, what, idx.s, ref.s)
		if !slices.Equal(idx.basis, ref.basis) {
			t.Fatalf("%s: basis %v, reference %v", what, idx.basis, ref.basis)
		}
	} else {
		fresh, err := buildStandard(p, ov)
		if err != nil {
			t.Fatal(err)
		}
		sameMatrix(t, what+" rejected", idx.s, fresh)
		fresh.release()
	}
	extractDifferential(t, p, ov, cols, support)
}

// pickColumns derives an install column set and a canonical support from
// the fuzz bytes: m columns in byte order, with out-of-range and repeated
// picks left in on purpose (install must reject them as the reference
// does), and a support of about m/2 columns, sorted and deduplicated.
func pickColumns(data []byte, m, n int) (cols []int32, support []int) {
	for k := 0; k < m; k++ {
		b := 0
		if len(data) > 0 {
			b = int(data[(k*7+5)%len(data)])
		}
		cols = append(cols, int32(b%(n+1)))
		if k%2 == 0 {
			support = append(support, b%n)
		}
	}
	slices.Sort(support)
	return cols, slices.Compact(support)
}

// compactingLP lists one variable twice in every row, the second time
// after another variable's term, so the build notes each of its entries
// twice and not back to back.
func compactingLP() *Problem {
	p := NewProblem("compacting", Maximize)
	x := p.AddVar("x", 0, Inf)
	y := p.AddVar("y", 0, Inf)
	p.SetObj(x, 1)
	p.SetObj(y, 2)
	for i := 0; i < 4; i++ {
		c := float64(i + 1)
		p.AddConstraint("d", NewExpr().Add(x, c).Add(y, 1).Add(x, 1), LE, 10*c)
	}
	return p
}

// TestBuildCompactsFullRowList pins the compaction of the build's notes
// into the pristine snapshot: compactingLP's duplicate terms must give
// column x one entry per row, holding the summed coefficient, and every
// column must list each of its nonzeros once with its built value.
func TestBuildCompactsFullRowList(t *testing.T) {
	s, err := buildStandard(compactingLP(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.release()
	e := &s.slab.ext
	x := e.pCol[0]
	rows, vals := e.pRow[x:e.pCol[1]], e.pVal[x:e.pCol[1]]
	if !slices.Equal(rows, []int32{0, 1, 2, 3}) || !slices.Equal(vals, []float64{2, 3, 4, 5}) {
		t.Fatalf("column x snapshot rows %v values %v, want rows 0..3 once with values 2..5", rows, vals)
	}
	for j := 0; j < s.n; j++ {
		for i := 0; i < s.m; i++ {
			var got float64
			for p := e.pCol[j]; p < e.pCol[j+1]; p++ {
				if int(e.pRow[p]) == i {
					if got != 0 {
						t.Fatalf("column %d lists row %d twice", j, i)
					}
					got = e.pVal[p]
				}
			}
			if got != s.a[i][j] {
				t.Fatalf("snapshot a[%d][%d] = %v, built %v", i, j, got, s.a[i][j])
			}
		}
	}
}

// fixtureNames lists the lpFixtures names in sorted order.
func fixtureNames() []string {
	var names []string
	for name := range lpFixtures() {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// Problem sources of FuzzIndexedInstall.
const (
	srcFuzzLP     = iota // fuzzLP decodes the bytes
	srcFixture           // lpFixtures, by sorted name, index seed
	srcRandomLP          // randomLP seeded with seed
	srcCompacting        // compactingLP
	numSources
)

// indexProblem returns the problem a FuzzIndexedInstall input names.
func indexProblem(src uint8, seed int64, data []byte) (*Problem, bool) {
	switch src % numSources {
	case srcFixture:
		names := fixtureNames()
		return lpFixtures()[names[int(uint64(seed)%uint64(len(names)))]](), true
	case srcRandomLP:
		rng := rand.New(rand.NewSource(seed))
		p, _ := randomLP(rng, 1+rng.Intn(7), 1+rng.Intn(7))
		return p, true
	case srcCompacting:
		return compactingLP(), true
	}
	p, _, ok := fuzzLP(data)
	return p, ok
}

// indexSeed is one seed input of FuzzIndexedInstall (and of
// FuzzCanonicalExtraction, which starts from the same corpus).
type indexSeed struct {
	src  uint8
	seed int64
	data []byte
}

// indexSeeds is FuzzIndexedInstall's seed corpus.
func indexSeeds() []indexSeed {
	var seeds []indexSeed
	for _, data := range [][]byte{
		{10, 20, 30, 40, 50, 60, 70, 80},
		{0, 0, 0, 0},
		{255, 1, 128, 7, 9, 200, 33, 21, 90, 3},
	} {
		seeds = append(seeds, indexSeed{srcFuzzLP, 0, data})
	}
	// A fuzz-found LP on which both the byte-picked install and the
	// canonical placement fill in heavily.
	seeds = append(seeds, indexSeed{srcFuzzLP, 0, []byte{91, 183, 132, 148, 6, 177, 1, 21, 87}})
	for k := range len(lpFixtures()) {
		seeds = append(seeds, indexSeed{srcFixture, int64(k), []byte{byte(k), 3, 1, 4}})
	}
	for k := range 24 {
		seeds = append(seeds, indexSeed{srcRandomLP, int64(k), []byte{byte(k), 7, 2, 9, 5}})
	}
	return append(seeds, indexSeed{srcCompacting, 0, []byte{0, 1, 2, 3}})
}

// FuzzIndexedInstall is the kernel differential of the warm install. For a
// problem (decoded by fuzzLP, or a seed-selected lpFixtures or randomLP
// case) it installs the same column set once by replaying the snapshot's
// eta file and once with the dense reference kernels. It requires the same
// success or failure, bitwise-equal a, b and basis on success, and a form
// left exactly as built on failure; then it checks the canonical extraction
// of a support against its dense reference. The column sets are a
// byte-derived pick (singular and invalid sets included) and, when the
// problem solves, its captured basis installed on a child that fixes one
// variable, as a warm solve installs it.
func FuzzIndexedInstall(f *testing.F) {
	for _, sd := range indexSeeds() {
		f.Add(sd.src, sd.seed, sd.data)
	}
	f.Fuzz(func(t *testing.T, src uint8, seed int64, data []byte) {
		p, ok := indexProblem(src, seed, data)
		if !ok {
			return
		}
		m, n, err := StdShape(p, nil)
		if err != nil {
			return
		}
		cols, support := pickColumns(data, m, n)
		installDifferential(t, p, nil, cols, support)
		sol, err := p.SolveWith(SolveOptions{CaptureBasis: true})
		if err != nil || sol.Status != StatusOptimal {
			return
		}
		pick := 0
		if len(data) > 0 {
			pick = int(data[0])
		}
		v := VarID(pick % p.NumVars())
		fix := sol.X[v]
		if pick%2 == 1 {
			fix = math.Floor(fix)
		}
		installDifferential(t, p, map[VarID][2]float64{v: {fix, fix}}, sol.Basis.cols, support)
	})
}

// solveProtocol runs a problem through every solve kind the warm path and
// the extraction meet: cold, presolved, captured, and two branched children
// (a variable fixed at its optimal value and at its floor), each cold and
// warm-started from the captured basis.
func solveProtocol(t *testing.T, p *Problem, pick int) {
	t.Helper()
	for _, opts := range []SolveOptions{{}, {Presolve: true}} {
		if _, err := p.SolveWith(opts); err != nil {
			t.Fatal(err)
		}
	}
	capt, err := p.SolveWith(SolveOptions{CaptureBasis: true})
	if err != nil {
		t.Fatal(err)
	}
	if capt.Status != StatusOptimal {
		return
	}
	v := VarID(pick % p.NumVars())
	for _, val := range []float64{capt.X[v], math.Floor(capt.X[v])} {
		ov := map[VarID][2]float64{v: {val, val}}
		if _, err := p.SolveWith(SolveOptions{BoundOverride: ov}); err != nil {
			t.Fatal(err)
		}
		if _, err := p.SolveWith(SolveOptions{BoundOverride: ov, WarmStart: capt.Basis}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSolvesNeverGaussOnStaleIndex runs every lpFixtures and randomLP case
// through the full solve protocol and fails if any solve reaches gauss on a
// standard form that a pivot has already touched: the eta file a warm
// install replays is recorded from the form as built, so installs must only
// ever run on freshly built forms.
func TestSolvesNeverGaussOnStaleIndex(t *testing.T) {
	run := func(name string, p *Problem, pick int) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: %v", name, r)
			}
		}()
		solveProtocol(t, p, pick)
	}
	for _, name := range fixtureNames() {
		run(name, lpFixtures()[name](), 0)
	}
	rng := rand.New(rand.NewSource(11))
	for k := 0; k < 60; k++ {
		p, _ := randomLP(rng, 1+rng.Intn(7), 1+rng.Intn(7))
		run(fmt.Sprintf("random#%d", k), p, k)
	}
}

// TestGaussAfterPivotPanics pins the replay's guard: the eta file describes
// the form as built, so replaying a step on a pivoted form would eliminate
// over the wrong rows, and gauss must panic instead.
func TestGaussAfterPivotPanics(t *testing.T) {
	tab, s := kernelTableau(t)
	defer s.release()
	rows := otherRows(s, 1, 1)
	tab.pivot(0, 0)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("gauss after pivot did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "pivoted standard form") {
			t.Fatalf("panic %q does not name the invariant", msg)
		}
	}()
	tab.gauss(1, 1, rows)
}
