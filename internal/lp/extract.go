package lp

import (
	"math"
	"math/bits"
)

// extraction is the one refactorization kernel of the package, kept in the
// recycled slab next to the matrix it refactorizes. buildStandard notes
// where it writes the constraint matrix, and record turns those notes and
// the right-hand side into a pristine column-compressed snapshot before any
// pivot touches the form. Both basis placements run on that snapshot:
// install (the warm start's basis, whose eta file tableau.install replays
// on the dense form) and canonical (finishSolution's extraction, which
// needs only b and one objective).
//
// Gauss-Jordan elimination is column-separable: a step on (pr, pc) scales
// a column's pivot-row entry by the reciprocal pivot when that entry is
// nonzero, and then subtracts multiplier times that entry from every row
// where column pc is nonzero. What happens to one column depends only on
// that column and on the step. So a placement records each step as an eta
// (pivot row and column, reciprocal, the pivot column's nonzero
// multipliers) and pushes a column through the eta file only when the
// placement scan reaches it. b is eliminated as each eta is recorded, so
// it gets the same float operations as in a full elimination.
type extraction struct {
	m, n int

	// notes lists the (row, column) positions buildStandard wrote, in fill
	// order, possibly repeated; record compresses them by column.
	notes []entry

	// Pristine form: column j's nonzeros are rows pRow[pCol[j]:pCol[j+1]]
	// with values pVal[...]; pB is the right-hand side as built.
	pCol []int32 // n+1
	pRow []int32
	pVal []float64
	pB   []float64 // m

	// Work column: x is zero outside the listed rows; listed marks the rows
	// in list[:nList]. It is reset through the list after every column, so
	// a column costs its own nonzeros, never m.
	x      []float64 // m
	listed []bool    // m
	list   []int32   // m
	nList  int

	// Eta file. Eta e pivots on row etaRow[e] and column etaCol[e] with
	// reciprocal etaInv[e]; its multipliers are mults(e). rowEta[i] names
	// the eta that pivots on row i, or -1. pend holds one bit per eta that
	// the work column may still need, walked in ascending order.
	etaRow []int32
	etaCol []int32
	etaInv []float64
	etaEnd []int32
	mulRow []int32
	mulVal []float64
	rowEta []int32   // m
	pend   []uint64  // ceil(m/64)
	basis  []int     // m: basic column per row, -1 while unassigned
	b      []float64 // m: the right-hand side under the etas so far
	placed []bool    // n: column is basic
	sup    []int     // m: finishSolution's support scratch
}

// entry is a (row, column) position of the constraint matrix.
type entry struct{ row, col int32 }

// resize returns s with length n, reusing its backing array when large
// enough. The contents are not preserved.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// note records that buildStandard wrote position (i, j) of the matrix.
func (e *extraction) note(i, j int) {
	e.notes = append(e.notes, entry{int32(i), int32(j)})
}

// record snapshots s's freshly built matrix and right-hand side into the
// slab's extraction state and sizes its workspace. A counting sort groups
// the notes by column; the snapshot then keeps each nonzero once, whatever
// order the notes came in.
func (e *extraction) record(s *stdForm) {
	m, n := s.m, s.n
	e.m, e.n = m, n
	e.pB = resize(e.pB, m)
	copy(e.pB, s.b)
	e.x = resize(e.x, m)
	e.listed = resize(e.listed, m)
	e.list = resize(e.list, m)
	e.rowEta = resize(e.rowEta, m)
	e.pend = resize(e.pend, (m+63)/64)
	e.basis = resize(e.basis, m)
	e.b = resize(e.b, m)
	e.placed = resize(e.placed, n)
	e.sup = resize(e.sup, m)
	if cap(e.etaRow) < m {
		e.etaRow = make([]int32, 0, m)
		e.etaCol = make([]int32, 0, m)
		e.etaInv = make([]float64, 0, m)
		e.etaEnd = make([]int32, 0, m)
	}

	// Counting sort: pCol[j+1] counts column j's notes, the prefix sums
	// turn pCol[j] into the start of column j, and filling advances it to
	// the column's end.
	e.pCol = resize(e.pCol, n+1)
	clear(e.pCol)
	for _, nt := range e.notes {
		e.pCol[nt.col+1]++
	}
	for j := 0; j < n; j++ {
		e.pCol[j+1] += e.pCol[j]
	}
	e.pRow = resize(e.pRow, len(e.notes))
	e.pVal = resize(e.pVal, len(e.notes))
	for _, nt := range e.notes {
		e.pRow[e.pCol[nt.col]] = nt.row
		e.pCol[nt.col]++
	}

	// Compact in place, back to column starts: drop zeros and the repeats
	// of a row within a column. rowEta doubles as the last column that
	// kept each row; reset clears it before any placement.
	seen := e.rowEta
	for i := range seen {
		seen[i] = -1
	}
	k, from := int32(0), int32(0)
	for j := 0; j < n; j++ {
		to := e.pCol[j]
		e.pCol[j] = k
		for _, i := range e.pRow[from:to] {
			if v := s.a[i][j]; v != 0 && seen[i] != int32(j) {
				seen[i] = int32(j)
				e.pRow[k], e.pVal[k] = i, v
				k++
			}
		}
		from = to
	}
	e.pCol[n] = k
}

// reset empties the eta file and the basis and reloads the pristine b.
func (e *extraction) reset() {
	clear(e.x)
	clear(e.listed)
	clear(e.pend)
	clear(e.placed)
	for i := range e.rowEta {
		e.rowEta[i] = -1
		e.basis[i] = -1
	}
	copy(e.b, e.pB)
	e.etaRow, e.etaCol = e.etaRow[:0], e.etaCol[:0]
	e.etaInv, e.etaEnd = e.etaInv[:0], e.etaEnd[:0]
	e.mulRow, e.mulVal = e.mulRow[:0], e.mulVal[:0]
}

// mults returns the multiplier rows and values of eta k.
func (e *extraction) mults(k int) ([]int32, []float64) {
	from := int32(0)
	if k > 0 {
		from = e.etaEnd[k-1]
	}
	return e.mulRow[from:e.etaEnd[k]], e.mulVal[from:e.etaEnd[k]]
}

// install places cols on the pristine form in the order given, each in the
// unassigned row where it is largest in magnitude, ties to the lower row,
// and leaves the eta file of that Gauss-Jordan install behind for
// tableau.install to replay. It reports false when a column is out of
// range or repeated, or no unassigned row holds an entry of it above
// pivotTol.
//
//gapvet:hotpath one warm install per warm node LP; the work column and the eta file live in the recycled slab
func (e *extraction) install(cols []int32) bool {
	e.reset()
	for _, c := range cols {
		j := int(c)
		if j < 0 || j >= e.n || e.placed[j] || !e.place(j) {
			return false
		}
	}
	return true
}

// canonical places the canonical basis of the vertex with the given support
// on the pristine form, in the canonical placement order: the support columns
// ascending, then every unblocked column by ascending index, then blocked
// filler for the rows nothing else covers. Each column goes to the
// unassigned row where it is largest in magnitude, ties to the lower row.
// It returns the basis, the basic values (dust above -feasTol clamped to
// zero) and the objective c'x summed in row order before the clamp, all
// bitwise what a full Gauss-Jordan install on a fresh form yields. The
// slices alias the slab. ok is false when the support is out of range,
// repeated or singular, or no basis completes it.
//
//gapvet:hotpath one canonical extraction per optimal solve; the work column and the eta file live in the recycled slab
func (e *extraction) canonical(support []int, blocked []bool, c []float64) (basis []int, b []float64, obj float64, ok bool) {
	e.reset()

	placed := 0
	for _, j := range support {
		if j < 0 || j >= e.n || e.placed[j] || !e.place(j) {
			return nil, nil, 0, false
		}
		placed++
	}
	for j := 0; j < e.n && placed < e.m; j++ {
		if !e.placed[j] && !blocked[j] && e.place(j) {
			placed++
		}
	}
	for j := 0; j < e.n && placed < e.m; j++ {
		if !e.placed[j] && e.place(j) {
			placed++
		}
	}
	if placed < e.m {
		return nil, nil, 0, false
	}
	// resetCosts' objective: row order, zero costs skipped.
	for i, col := range e.basis {
		cb := c[col]
		if cb == 0 {
			continue
		}
		obj += cb * e.b[i]
	}
	// Refactorization dust: basic values that came out a hair negative are
	// exactly zero at the vertex the search terminated on.
	for i, v := range e.b {
		if v < 0 && v > -feasTol {
			e.b[i] = 0
		}
	}
	return e.basis, e.b, obj, true
}

// place pushes column j through the eta file and, when some unassigned row
// holds an entry above pivotTol, makes it basic there and records its
// elimination step.
//
//gapvet:hotpath one call per column the extraction tests
func (e *extraction) place(j int) bool {
	e.transform(j)
	pr, best := -1, pivotTol
	for _, i32 := range e.list[:e.nList] {
		i := int(i32)
		if e.basis[i] != -1 {
			continue
		}
		ab := math.Abs(e.x[i])
		//gapvet:allow floateq reproduces the ascending scan's strict-> rule: among equal magnitudes the lowest row wins
		if ab > best || ab == best && pr != -1 && i < pr {
			pr, best = i, ab
		}
	}
	if pr != -1 {
		e.eliminate(pr, j)
		e.basis[pr] = j
		e.placed[j] = true
	}
	for _, i := range e.list[:e.nList] {
		e.x[i], e.listed[i] = 0, false
	}
	e.nList = 0
	return pr != -1
}

// transform loads pristine column j into the work column and applies, in
// order, every eta whose pivot row it is nonzero in at that eta's turn:
// scale the pivot-row entry, then subtract multiplier times it from each
// multiplier row. An eta matters only when the column is nonzero in its
// pivot row, and a column starts with few nonzeros, so the etas to visit
// are tracked as pending bits (set when an entry appears in a later eta's
// pivot row) instead of walking the whole file.
//
//gapvet:hotpath one call per column the extraction tests
func (e *extraction) transform(j int) {
	for p := e.pCol[j]; p < e.pCol[j+1]; p++ {
		i := e.pRow[p]
		e.x[i] = e.pVal[p]
		e.listed[i] = true
		e.list[e.nList] = i
		e.nList++
		if k := e.rowEta[i]; k >= 0 {
			e.pend[k>>6] |= 1 << (k & 63)
		}
	}
	words := (len(e.etaRow) + 63) / 64
	for w := 0; w < words; w++ {
		for e.pend[w] != 0 {
			bit := bits.TrailingZeros64(e.pend[w])
			e.pend[w] &^= 1 << bit
			k := w<<6 | bit
			pr := e.etaRow[k]
			v := e.x[pr]
			if v == 0 {
				continue
			}
			v *= e.etaInv[k]
			e.x[pr] = v
			rows, vals := e.mults(k)
			x, listed, rowEta := e.x, e.listed, e.rowEta
			for q, i := range rows {
				if !listed[i] {
					listed[i] = true
					e.list[e.nList] = i
					e.nList++
				}
				x[i] -= vals[q] * v
				if k2 := rowEta[i]; int(k2) > k {
					e.pend[k2>>6] |= 1 << (k2 & 63)
				}
			}
		}
	}
}

// eliminate records the Gauss-Jordan step that makes column j, now in the
// work column, basic in row pr, and applies it to b: scale b[pr], then
// subtract multiplier times b[pr] from every other row where the column is
// nonzero. A step that scales by 1 and eliminates nothing (a unit column)
// changes no bits anywhere, so it is left out of the file.
//
//gapvet:hotpath one call per placed column; the eta file's capacity is kept across solves by the slab
func (e *extraction) eliminate(pr, j int) {
	inv := 1 / e.x[pr]
	e.b[pr] *= inv
	from := len(e.mulRow)
	for _, i := range e.list[:e.nList] {
		f := e.x[i]
		if int(i) == pr || f == 0 {
			continue
		}
		e.mulRow = append(e.mulRow, i)
		e.mulVal = append(e.mulVal, f)
		e.b[i] -= f * e.b[pr]
	}
	if inv == 1 && len(e.mulRow) == from {
		return
	}
	e.rowEta[pr] = int32(len(e.etaRow))
	e.etaRow = append(e.etaRow, int32(pr))
	e.etaCol = append(e.etaCol, int32(j))
	e.etaInv = append(e.etaInv, inv)
	e.etaEnd = append(e.etaEnd, int32(len(e.mulRow)))
}
