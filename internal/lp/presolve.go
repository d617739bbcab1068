package lp

// Presolve: Andersen & Andersen (1995)-style reductions applied to the user
// problem before it ever reaches the simplex, with a journal that maps
// the reduced answer back to the original variable and constraint spaces.
//
// The reductions are deliberately restricted to the set with an exact dual
// postsolve: empty rows (dual 0), strictly redundant rows by activity bounds
// (dual 0), singleton rows folded into variable bounds (dual recovered from
// the variable's reduced cost when the folded bound is the binding one),
// fixed columns substituted out, and empty columns pinned by objective sign.
// General multi-variable bound propagation is used only as an infeasibility
// probe — it never modifies bounds — because an implied bound that becomes
// binding has no clean constraint dual to hand back. The result: a presolved
// solve reports the same status and objective as an unpresolved one and
// duals that pass the DualObjective strong-duality certificate, though on a
// degenerate optimal face it may report a different (equally optimal)
// vertex.

import (
	"math"
)

type psKind int

const (
	psEmptyRow psKind = iota // removed row, dual 0
	psRedundantRow
	psSingletonRow // removed row folded into a bound on one variable
	psFixedCol     // variable substituted at a fixed value
	psEmptyCol     // variable pinned by objective sign
)

// psEntry is one journal record. Postsolve replays the journal in reverse.
type psEntry struct {
	kind  psKind
	row   int     // original constraint index (row kinds)
	col   int     // original variable index (psSingletonRow and column kinds)
	coef  float64 // psSingletonRow: the row's single coefficient
	val   float64 // column kinds: the pinned value; psSingletonRow: the implied bound
	upper bool    // psSingletonRow: implied bound is an upper bound
}

// presolveState is the working reduction state over the original problem.
type presolveState struct {
	p        *Problem
	lo, hi   []float64
	terms    [][]Term // deduplicated per row, zero coefficients dropped
	rhs      []float64
	rel      []Rel
	rowAlive []bool
	colAlive []bool
	journal  []psEntry

	infeasible bool
	// unboundedIfFeasible is set when an empty column's certifying bound is
	// infinite: the problem is unbounded provided the rest is feasible, which
	// only the reduced solve can decide.
	unboundedIfFeasible bool
}

func newPresolveState(p *Problem) *presolveState {
	ps := &presolveState{p: p}
	n, m := len(p.vars), len(p.cons)
	ps.lo = make([]float64, n)
	ps.hi = make([]float64, n)
	ps.colAlive = make([]bool, n)
	for j, v := range p.vars {
		ps.lo[j], ps.hi[j] = v.lo, v.hi
		ps.colAlive[j] = true
	}
	ps.terms = make([][]Term, m)
	ps.rhs = make([]float64, m)
	ps.rel = make([]Rel, m)
	ps.rowAlive = make([]bool, m)
	nnz := 0
	for _, con := range p.cons {
		nnz += len(con.expr.Terms)
	}
	// Merge each row's duplicate terms on a dense scratch: sum[j] adds up
	// column j's coefficients in term order from zero, stamp[j] == i+1 marks
	// j as seen in row i, and order keeps the row's columns in
	// first-appearance order (never map order), so the reduced constraint
	// matrix is a pure function of the input problem. Every row's merged
	// terms live in one backing slice.
	sum := make([]float64, n)
	stamp := make([]int, n)
	var order []VarID
	merged := make([]Term, 0, nnz)
	for i, con := range p.cons {
		order = order[:0]
		for _, t := range con.expr.Terms {
			if stamp[t.Var] != i+1 {
				stamp[t.Var] = i + 1
				sum[t.Var] = 0
				order = append(order, t.Var)
			}
			sum[t.Var] += t.Coef
		}
		start := len(merged)
		for _, v := range order {
			if c := sum[v]; c != 0 {
				merged = append(merged, Term{Var: v, Coef: c})
			}
		}
		ps.terms[i] = merged[start:len(merged):len(merged)]
		ps.rhs[i] = con.rhs
		ps.rel[i] = con.rel
		ps.rowAlive[i] = true
	}
	return ps
}

// tightenLo/tightenHi fold an implied bound in, reporting infeasibility when
// the interval empties beyond tolerance (a sub-tolerance crossing snaps).
func (ps *presolveState) tightenLo(j int, v float64) {
	if v <= ps.lo[j] {
		return
	}
	if v > ps.hi[j]+feasTol {
		ps.infeasible = true
		return
	}
	ps.lo[j] = math.Min(v, ps.hi[j])
}

func (ps *presolveState) tightenHi(j int, v float64) {
	if v >= ps.hi[j] {
		return
	}
	if v < ps.lo[j]-feasTol {
		ps.infeasible = true
		return
	}
	ps.hi[j] = math.Max(v, ps.lo[j])
}

// activityBounds returns the min/max of a row's left-hand side over the
// current bounds.
func (ps *presolveState) activityBounds(i int) (minAct, maxAct float64) {
	for _, t := range ps.terms[i] {
		if !ps.colAlive[int(t.Var)] {
			continue
		}
		lo, hi := ps.lo[t.Var], ps.hi[t.Var]
		if t.Coef > 0 {
			minAct += t.Coef * lo
			maxAct += t.Coef * hi
		} else {
			minAct += t.Coef * hi
			maxAct += t.Coef * lo
		}
	}
	return minAct, maxAct
}

// reduce runs reduction passes to a fixpoint (bounded by the problem size —
// every pass that changes anything removes a row or column or tightens a
// bound through a removed row).
func (ps *presolveState) reduce() {
	maxPasses := len(ps.rowAlive) + len(ps.colAlive) + 2
	for pass := 0; pass < maxPasses; pass++ {
		if ps.infeasible {
			return
		}
		changed := false
		if ps.reduceRows() {
			changed = true
		}
		if ps.infeasible {
			return
		}
		if ps.reduceCols() {
			changed = true
		}
		if !changed {
			break
		}
	}
	if !ps.infeasible {
		ps.probeInfeasibility()
	}
}

// liveTerms counts the alive terms of row i, stopping at two, and returns
// the first of them.
func (ps *presolveState) liveTerms(i int) (n int, first Term) {
	for _, t := range ps.terms[i] {
		if ps.colAlive[int(t.Var)] {
			if n == 0 {
				first = t
			}
			if n++; n == 2 {
				break
			}
		}
	}
	return n, first
}

func (ps *presolveState) reduceRows() bool {
	changed := false
	for i := range ps.rowAlive {
		if !ps.rowAlive[i] || ps.infeasible {
			continue
		}
		n, t := ps.liveTerms(i)
		switch n {
		case 0:
			// Empty row: 0 rel rhs must hold on its own.
			ok := true
			switch ps.rel[i] {
			case LE:
				ok = ps.rhs[i] >= -feasTol
			case GE:
				ok = ps.rhs[i] <= feasTol
			case EQ:
				ok = math.Abs(ps.rhs[i]) <= feasTol
			}
			if !ok {
				ps.infeasible = true
				continue
			}
			ps.rowAlive[i] = false
			ps.journal = append(ps.journal, psEntry{kind: psEmptyRow, row: i})
			changed = true
		case 1:
			j := int(t.Var)
			v := ps.rhs[i] / t.Coef
			switch {
			case ps.rel[i] == EQ:
				ps.tightenLo(j, v)
				ps.tightenHi(j, v)
				ps.journal = append(ps.journal, psEntry{kind: psSingletonRow, row: i, col: j, coef: t.Coef, val: v, upper: true})
			case (ps.rel[i] == LE) == (t.Coef > 0):
				// a·x <= rhs with a>0, or a·x >= rhs with a<0: upper bound.
				ps.tightenHi(j, v)
				ps.journal = append(ps.journal, psEntry{kind: psSingletonRow, row: i, col: j, coef: t.Coef, val: v, upper: true})
			default:
				ps.tightenLo(j, v)
				ps.journal = append(ps.journal, psEntry{kind: psSingletonRow, row: i, col: j, coef: t.Coef, val: v, upper: false})
			}
			ps.rowAlive[i] = false
			changed = true
		default:
			// Strict redundancy by activity bounds: the row can never bind,
			// so its dual is exactly zero. (A row tight only at the activity
			// extreme is kept — it may carry a dual.)
			minAct, maxAct := ps.activityBounds(i)
			redundant := false
			switch ps.rel[i] {
			case LE:
				redundant = maxAct <= ps.rhs[i]-feasTol
			case GE:
				redundant = minAct >= ps.rhs[i]+feasTol
			}
			if redundant {
				ps.rowAlive[i] = false
				ps.journal = append(ps.journal, psEntry{kind: psRedundantRow, row: i})
				changed = true
			}
		}
	}
	return changed
}

func (ps *presolveState) reduceCols() bool {
	changed := false
	// Count live appearances per column.
	appears := make([]int, len(ps.colAlive))
	for i := range ps.rowAlive {
		if !ps.rowAlive[i] {
			continue
		}
		for _, t := range ps.terms[i] {
			if ps.colAlive[int(t.Var)] {
				appears[t.Var]++
			}
		}
	}
	objSign := 1.0
	if ps.p.sense == Maximize {
		objSign = -1
	}
	for j := range ps.colAlive {
		if !ps.colAlive[j] || ps.infeasible {
			continue
		}
		lo, hi := ps.lo[j], ps.hi[j]
		if lo >= hi {
			// Fixed column: substitute into every live row.
			v := lo
			for i := range ps.rowAlive {
				if !ps.rowAlive[i] {
					continue
				}
				for _, t := range ps.terms[i] {
					if int(t.Var) == j {
						ps.rhs[i] -= t.Coef * v
					}
				}
			}
			ps.colAlive[j] = false
			ps.journal = append(ps.journal, psEntry{kind: psFixedCol, col: j, val: v})
			changed = true
			continue
		}
		if appears[j] > 0 {
			continue
		}
		// Empty column: pinned by its objective coefficient alone.
		cmin := ps.p.vars[j].obj * objSign // cost in the minimize sense
		var v float64
		switch {
		case cmin > 0:
			v = lo
			if math.IsInf(lo, -1) {
				ps.unboundedIfFeasible = true
			}
		case cmin < 0:
			v = hi
			if math.IsInf(hi, 1) {
				ps.unboundedIfFeasible = true
			}
		default:
			switch {
			case !math.IsInf(lo, -1):
				v = lo
			case !math.IsInf(hi, 1):
				v = hi
			default:
				v = 0
			}
		}
		ps.colAlive[j] = false
		ps.journal = append(ps.journal, psEntry{kind: psEmptyCol, col: j, val: v})
		changed = true
	}
	return changed
}

// probeInfeasibility runs one constraint-propagation sweep purely as a
// feasibility check: an implied interval that is empty beyond tolerance
// proves infeasibility. Bounds are never modified (see the package comment —
// implied bounds have no clean dual postsolve).
func (ps *presolveState) probeInfeasibility() {
	for i := range ps.rowAlive {
		if !ps.rowAlive[i] {
			continue
		}
		minAct, maxAct := ps.activityBounds(i)
		switch ps.rel[i] {
		case LE:
			if minAct > ps.rhs[i]+feasTol {
				ps.infeasible = true
				return
			}
		case GE:
			if maxAct < ps.rhs[i]-feasTol {
				ps.infeasible = true
				return
			}
		case EQ:
			if minAct > ps.rhs[i]+feasTol || maxAct < ps.rhs[i]-feasTol {
				ps.infeasible = true
				return
			}
		}
	}
}

// buildReduced assembles the reduced Problem plus the column/row maps into
// the original spaces.
func (ps *presolveState) buildReduced() (q *Problem, colMap []int, rowMap []int) {
	p := ps.p
	q = NewProblem(p.Name, p.sense)
	cols, rows, nnz := 0, 0, 0
	for _, alive := range ps.colAlive {
		if alive {
			cols++
		}
	}
	for i, alive := range ps.rowAlive {
		if alive {
			rows++
			nnz += len(ps.terms[i])
		}
	}
	q.Grow(cols, rows)
	rowMap = make([]int, 0, rows)
	colMap = make([]int, len(p.vars)) // original -> reduced, -1 if removed
	for j := range colMap {
		colMap[j] = -1
	}
	for j, v := range p.vars {
		if !ps.colAlive[j] {
			continue
		}
		id := q.AddVar(v.name, ps.lo[j], ps.hi[j])
		q.SetObj(id, v.obj)
		colMap[j] = int(id)
	}
	terms := make([]Term, 0, nnz) // one backing slice for every reduced row's terms
	for i, con := range p.cons {
		if !ps.rowAlive[i] {
			continue
		}
		start := len(terms)
		for _, t := range ps.terms[i] {
			if cj := colMap[int(t.Var)]; cj >= 0 {
				terms = append(terms, Term{Var: VarID(cj), Coef: t.Coef})
			}
		}
		q.AddConstraint(con.name, Expr{Terms: terms[start:len(terms):len(terms)]}, ps.rel[i], ps.rhs[i])
		rowMap = append(rowMap, i)
	}
	return q, colMap, rowMap
}

// postsolve maps the reduced solution back to the original spaces in place
// on sol: X for every original variable, duals for every original row —
// removed rows recover theirs from the journal in reverse order.
func (ps *presolveState) postsolve(sol *Solution, reduced *Solution, colMap, rowMap []int) {
	p := ps.p
	sol.X = make([]float64, len(p.vars))
	sol.Dual = make([]float64, len(p.cons))
	for j := range p.vars {
		if cj := colMap[j]; cj >= 0 {
			sol.X[j] = reduced.X[cj]
		}
	}
	for k, i := range rowMap {
		sol.Dual[i] = reduced.Dual[k]
	}
	// Reverse-replay the journal: restore pinned values first, then recover
	// singleton-row duals against the progressively completed dual vector.
	for e := len(ps.journal) - 1; e >= 0; e-- {
		en := ps.journal[e]
		switch en.kind {
		case psFixedCol, psEmptyCol:
			sol.X[en.col] = en.val
		case psSingletonRow:
			// The folded bound carries a multiplier exactly when it is the
			// binding bound at the solution and the variable's reduced cost
			// (under the duals recovered so far) is nonzero; assigning
			// rc/coef to the row zeroes the reduced cost, so stacked
			// singleton rows on one variable settle one at a time.
			if math.Abs(sol.X[en.col]-en.val) > 1e-6 {
				continue
			}
			rc := p.vars[en.col].obj
			for i, con := range p.cons {
				if sol.Dual[i] == 0 {
					continue
				}
				for _, t := range con.expr.Terms {
					if int(t.Var) == en.col {
						rc -= sol.Dual[i] * t.Coef
					}
				}
			}
			if math.Abs(rc) <= optTol {
				continue
			}
			sol.Dual[en.row] = rc / en.coef
		}
	}
}

// solvePresolved is the Presolve dispatch: reduce, solve the reduced problem,
// and postsolve the answer. Presolve-detected infeasibility or unboundedness
// short-circuits the simplex entirely.
func (p *Problem) solvePresolved(opts SolveOptions) (*Solution, error) {
	ps := newPresolveState(p)
	ps.reduce()
	removedRows, removedCols := 0, 0
	for _, alive := range ps.rowAlive {
		if !alive {
			removedRows++
		}
	}
	for _, alive := range ps.colAlive {
		if !alive {
			removedCols++
		}
	}
	if ps.infeasible {
		return &Solution{Status: StatusInfeasible,
			PresolveRows: removedRows, PresolveCols: removedCols}, nil
	}
	q, colMap, rowMap := ps.buildReduced()
	inner := opts
	inner.Presolve = false
	inner.CaptureBasis = false // a reduced-space basis must not leak out
	inner.WarmStart = nil
	inner.Tracer = nil
	reduced, err := q.solveDense(inner)
	if err != nil {
		return nil, err
	}
	sol := &Solution{
		Status:           reduced.Status,
		Iterations:       reduced.Iterations,
		Phase1Iterations: reduced.Phase1Iterations,
		DegeneratePivots: reduced.DegeneratePivots,
		PresolveRows:     removedRows,
		PresolveCols:     removedCols,
	}
	if ps.unboundedIfFeasible {
		// An empty column rides to infinity as soon as the rest is feasible.
		switch reduced.Status {
		case StatusOptimal, StatusUnbounded:
			sol.Status = StatusUnbounded
		}
		return sol, nil
	}
	if reduced.Status != StatusOptimal {
		return sol, nil
	}
	ps.postsolve(sol, reduced, colMap, rowMap)
	objConst := 0.0
	for j := range p.vars {
		if colMap[j] == -1 {
			objConst += p.vars[j].obj * sol.X[j]
		}
	}
	sol.Objective = reduced.Objective + objConst
	return sol, nil
}
