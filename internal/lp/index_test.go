package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// refPivotRow is the dense pivot-row choice the column index replaced: an
// ascending scan over every row that keeps the first strict maximum of
// |a[i][j]| above pivotTol among unassigned rows.
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

// refGauss is the dense Gauss-Jordan step the column index replaced: it
// eliminates column pc from every row and ignores the index.
func refGauss(t *tableau, pr, pc int) {
	s := t.s
	nz, inv := t.scaleRow(pr, pc)
	prow := s.a[pr]
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
	}
}

// refPlace is place over the dense reference kernels: no unit shortcut.
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

// refInstall is install over the dense reference kernels.
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

// installCanonical is the canonical install that extraction.canonical
// replays, over the indexed kernels: the support columns are placed first
// (they are independent at a vertex), then the basis is completed by
// scanning all columns in ascending index — unblocked columns first,
// blocked/artificial filler only for rows nothing else can cover
// (redundant rows). It returns false when the support is not extendable to
// a basis. It is a test reference: installDifferential checks the column
// index under exactly the placement order the extraction uses.
func (t *tableau) installCanonical(support []int) bool {
	s := t.s
	for i := range t.basis {
		t.basis[i] = -1
	}
	placed := 0
	for _, j := range support {
		if j < 0 || j >= s.n || t.inBasis[j] || !t.place(j) {
			return false
		}
		placed++
	}
	for j := 0; j < s.n && placed < s.m; j++ {
		if !t.inBasis[j] && !t.blocked[j] && t.place(j) {
			placed++
		}
	}
	for j := 0; j < s.n && placed < s.m; j++ {
		if !t.inBasis[j] && t.place(j) {
			placed++
		}
	}
	return placed == s.m
}

// refInstallCanonical is installCanonical over the dense reference kernels.
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

// checkIndex verifies the column index of s against its matrix: every
// nonzero (i, j) is listed for column j, no list exceeds m, and unit[j] = r
// only when column j is exactly e_r.
func checkIndex(t *testing.T, s *stdForm) {
	t.Helper()
	listed := make([]bool, s.m)
	for j := 0; j < s.n; j++ {
		if l := int(s.colLen[j]); l < 0 || l > s.m {
			t.Fatalf("column %d: list length %d outside [0, %d]", j, l, s.m)
		}
		clear(listed)
		for _, i := range s.col(j) {
			listed[i] = true
		}
		for i := 0; i < s.m; i++ {
			if s.a[i][j] != 0 && !listed[i] {
				t.Fatalf("nonzero a[%d][%d] = %g missing from column %d's row list %v", i, j, s.a[i][j], j, s.col(j))
			}
		}
		r := int(s.unit[j])
		if r < 0 {
			continue
		}
		for i := 0; i < s.m; i++ {
			want := 0.0
			if i == r {
				want = 1
			}
			if s.a[i][j] != want {
				t.Fatalf("unit[%d] = %d but a[%d][%d] = %g", j, r, i, j, s.a[i][j])
			}
		}
	}
}

// sameForm requires bitwise-equal a, b and basis in two tableaus.
func sameForm(t *testing.T, what string, got, want *tableau) {
	t.Helper()
	gs, ws := got.s, want.s
	for i := 0; i < ws.m; i++ {
		if math.Float64bits(gs.b[i]) != math.Float64bits(ws.b[i]) {
			t.Fatalf("%s: b[%d] = %v, reference %v", what, i, gs.b[i], ws.b[i])
		}
		for j := 0; j < ws.n; j++ {
			if math.Float64bits(gs.a[i][j]) != math.Float64bits(ws.a[i][j]) {
				t.Fatalf("%s: a[%d][%d] = %v, reference %v", what, i, j, gs.a[i][j], ws.a[i][j])
			}
		}
	}
	if !slices.Equal(got.basis, want.basis) {
		t.Fatalf("%s: basis %v, reference %v", what, got.basis, want.basis)
	}
}

// formPair builds the standard form of p twice, each with an artificial-
// blocked tableau, so the indexed and reference kernels start from equal
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

// installDifferential installs cols with the indexed kernels on one fresh
// form and with the reference kernels on another, then installs support
// canonically the same two ways, and requires identical outcomes,
// bitwise-identical tableaus and a valid index. Last, it extracts support
// with extraction.canonical against the same dense reference.
func installDifferential(t *testing.T, p *Problem, ov map[VarID][2]float64, cols []int32, support []int) {
	t.Helper()
	idx, ref, ok := formPair(t, p, ov)
	if !ok {
		return
	}
	checkIndex(t, idx.s)
	gotOK, wantOK := idx.install(cols), refInstall(ref, cols)
	if gotOK != wantOK {
		t.Fatalf("install(%v) = %v, reference %v", cols, gotOK, wantOK)
	}
	sameForm(t, fmt.Sprintf("install(%v)", cols), idx, ref)
	checkIndex(t, idx.s)
	idx.s.release()
	ref.s.release()

	if idx, ref, ok = formPair(t, p, ov); !ok {
		return
	}
	gotOK, wantOK = idx.installCanonical(support), refInstallCanonical(ref, support)
	if gotOK != wantOK {
		t.Fatalf("installCanonical(%v) = %v, reference %v", support, gotOK, wantOK)
	}
	sameForm(t, fmt.Sprintf("installCanonical(%v)", support), idx, ref)
	checkIndex(t, idx.s)
	idx.s.release()
	ref.s.release()

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

// compactingLP lists one variable in every row twice over, so its row list
// fills with duplicates while the form is built and must be compacted
// before the later rows fit.
func compactingLP() *Problem {
	p := NewProblem("compacting", Maximize)
	x := p.AddVar("x", 0, Inf)
	y := p.AddVar("y", 0, Inf)
	p.SetObj(x, 1)
	p.SetObj(y, 2)
	for i := 0; i < 4; i++ {
		c := float64(i + 1)
		p.AddConstraint("d", NewExpr().Add(x, c).Add(x, 1).Add(y, 1), LE, 10*c)
	}
	return p
}

// TestBuildCompactsFullRowList pins the compaction path of the index: the
// duplicate terms of compactingLP overflow x's row list during the build,
// and the compacted list must hold each row exactly once.
func TestBuildCompactsFullRowList(t *testing.T) {
	s, err := buildStandard(compactingLP(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.release()
	checkIndex(t, s)
	got := slices.Clone(s.col(0))
	slices.Sort(got)
	if !slices.Equal(got, []int32{0, 1, 2, 3}) {
		t.Fatalf("column x lists rows %v after compaction, want each of 0..3 once", got)
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
	// On this LP both the byte-picked install and the canonical install
	// fill a row list up to m, so gauss compacts it on fill-in.
	seeds = append(seeds, indexSeed{srcFuzzLP, 0, []byte{91, 183, 132, 148, 6, 177, 1, 21, 87}})
	for k := range len(lpFixtures()) {
		seeds = append(seeds, indexSeed{srcFixture, int64(k), []byte{byte(k), 3, 1, 4}})
	}
	for k := range 24 {
		seeds = append(seeds, indexSeed{srcRandomLP, int64(k), []byte{byte(k), 7, 2, 9, 5}})
	}
	return append(seeds, indexSeed{srcCompacting, 0, []byte{0, 1, 2, 3}})
}

// FuzzIndexedInstall is the kernel differential of the column index. For a
// problem (decoded by fuzzLP, or a seed-selected lpFixtures or randomLP
// case) it installs the same column set, and the same canonical support,
// once with the indexed kernels and once with the dense reference scan. It
// requires the same success or failure, bitwise-equal a, b and basis, and an
// index that still lists every nonzero and names only true unit columns.
// The column sets are a byte-derived pick (singular and invalid sets
// included) and, when the problem solves, its captured basis installed on a
// child that fixes one variable, as a warm solve installs it.
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
// standard form that pivot has already touched: warm installs must only
// ever run on freshly built forms, and the extraction runs on its snapshot.
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

// TestGaussAfterPivotPanics pins the stale-index guard: pivot does not keep
// the row lists, so a gauss step on a pivoted form would eliminate over an
// incomplete row set, and it must panic instead.
func TestGaussAfterPivotPanics(t *testing.T) {
	tab, s := kernelTableau(t)
	defer s.release()
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
	tab.gauss(1, 1)
}
