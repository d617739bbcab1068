package lp

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
)

// Process-wide LP counters, bumped once per solve (not per pivot) so the
// cost is three atomic adds regardless of problem size. They cover every
// SolveWith call in the process: direct heuristic pricing, KKT relaxations,
// and branch-and-bound nodes alike.
var (
	lpSolves     = obs.Default.Counter("lp_solves_total")
	lpIters      = obs.Default.Counter("lp_iterations_total")
	lpDegenerate = obs.Default.Counter("lp_degenerate_pivots_total")
	// Warm-start accounting: lp_warm_solves_total counts solves completed by
	// the basis-reinstall + dual-repair path, lp_warm_fallbacks_total counts
	// solves where a warm start was requested but the cold two-phase method
	// produced the answer (structure mismatch, singular basis, or a repair
	// that did not converge). lp_solves_total covers both kinds.
	lpWarmSolves    = obs.Default.Counter("lp_warm_solves_total")
	lpWarmFallbacks = obs.Default.Counter("lp_warm_fallbacks_total")
)

// Per-phase attribution: where simplex time and pivots go, not just how
// much. The histograms record one observation per phase execution (seconds);
// the counters split total pivots into phase-1 (feasibility), phase-2
// (optimality + tie-break), warm repair (dual + cleanup + tie-break), and
// blocked-column eviction. All of it is observability output only — nothing
// here feeds back into a solve — which is what the gapvet:allow walltime
// annotations at the measurement sites assert.
var (
	lpPhase1Seconds     = obs.Default.Histogram("lp_phase1_seconds")
	lpPhase2Seconds     = obs.Default.Histogram("lp_phase2_seconds")
	lpWarmRepairSeconds = obs.Default.Histogram("lp_warm_repair_seconds")
	// lpExtractSeconds times finishSolution's canonical extraction: the
	// support placement and basis completion replayed on the form's
	// pristine snapshot through an eta file, and the objective. On a warm
	// solve the same span also lies inside lp_warm_repair_seconds.
	lpExtractSeconds = obs.Default.Histogram("lp_extract_seconds")

	lpPhase1Pivots     = obs.Default.Counter("lp_phase1_pivots_total")
	lpPhase2Pivots     = obs.Default.Counter("lp_phase2_pivots_total")
	lpWarmRepairPivots = obs.Default.Counter("lp_warm_repair_pivots_total")
	lpWarmEvictPivots  = obs.Default.Counter("lp_warm_evict_pivots_total")
)

// Tolerances for the simplex method. They are package-level constants rather
// than options because every consumer in this repository operates on
// similarly scaled data (capacities and demands in the 1..1e4 range).
const (
	pivotTol = 1e-9 // smallest usable pivot element
	feasTol  = 1e-7 // feasibility / phase-1 residual tolerance
	optTol   = 1e-9 // reduced-cost optimality tolerance

	// tieTol is the selection-stability window shared by every pivot-choice
	// rule (pricing, dual leaving row, dual ratio test): a candidate only
	// displaces the incumbent when it wins by more than this margin, so the
	// ascending scan order breaks near-ties by index. Without the window a
	// tie split by accumulated roundoff (~1e-15) would pick the pivot on
	// degenerate problems, so the pivot path and its counters would hinge
	// on the order of earlier eliminations rather than on the data.
	tieTol = 1e-7
)

// statusWarmAbort is an internal sentinel: the warm-start path gave up and
// the cold two-phase solve must produce the canonical answer. Never escapes
// this package.
const statusWarmAbort Status = -1

// warmDualTol bounds how negative a reduced cost may be after reinstalling
// a parent basis before the snapshot is declared unusable. The parent basis
// is dual feasible for the child in exact arithmetic (A and c are shared),
// so anything beyond refactorization noise means the basis does not fit.
const warmDualTol = 1e-7

// Basis is an opaque snapshot of a terminal simplex basis: the set of basic
// columns of the standard form, plus a signature of that form's shape so a
// later solve can tell whether the snapshot is transplantable. Create one
// with SolveOptions.CaptureBasis; consume it with SolveOptions.WarmStart.
// A Basis is immutable after creation and safe to share across goroutines
// (branch-and-bound hands one parent snapshot to both children).
type Basis struct {
	cols []int32 // basic columns, ascending
	sig  uint64  // structure signature of the originating stdForm
}

// NumBasic reports how many basic columns the snapshot holds (the row count
// of the standard form it was taken from).
func (b *Basis) NumBasic() int { return len(b.cols) }

func newBasis(basis []int, sig uint64) *Basis {
	cols := make([]int32, len(basis))
	for i, c := range basis {
		cols[i] = int32(c)
	}
	slices.Sort(cols)
	return &Basis{cols: cols, sig: sig}
}

// stdForm is the computational form: minimize c'x subject to Ax = b, x >= 0,
// with b >= 0. It also remembers how to map a standard solution back to the
// user's variables and duals.
type stdForm struct {
	m, n int // rows, structural+slack+artificial columns

	a    [][]float64 // m x n, rows of slab
	slab *stdSlab    // recycled backing store of a; nil once released
	b    []float64   // m
	c    []float64   // n, phase-2 costs (0 for slacks/artificials)

	// pivoted is set by the first pivot. From then on a no longer holds
	// the pristine matrix that the slab's eta file is recorded from, so
	// gauss, which replays that file, refuses to run.
	pivoted bool

	nStruct int // columns 0..nStruct-1 are structural (user-derived)
	artFrom int // columns >= artFrom are artificials

	// rowUnit[i] is a column that is a (+/-)1 unit vector for row i,
	// used to read duals off the reduced-cost row; rowUnitSign is its sign.
	rowUnit     []int
	rowUnitSign []float64

	// rowFlip[i] is -1 if user row i was negated to make b >= 0, else +1.
	// Only the first len(p.cons) rows correspond to user constraints.
	rowFlip []float64

	// varMap describes how each user variable maps onto structural columns:
	// x_user = shift + sign*x[col] (+ negPart handling for free variables).
	varMap []stdVarMap

	// fixed lists structural columns pinned at zero by a bound override that
	// fixes a variable whose base problem is unbounded above. Pinning via
	// column blocking (instead of an upper row) keeps the standard form's
	// shape independent of such overrides, which is what makes a parent
	// basis transplantable onto a child that fixes one more variable.
	fixed []int

	// sig is a hash of everything that determines the standard form's shape
	// (row/column counts and the column layout), deliberately excluding the
	// fixed set and all numeric values. Two forms with equal sig from the
	// same Problem have identical column meanings, so a basis from one is
	// well-defined in the other.
	sig uint64

	objConst float64 // constant folded out of the objective by shifts
	negate   bool    // true when the user problem was Maximize
}

type stdVarMap struct {
	col    int     // primary structural column
	negCol int     // second column for free variables (-1 if none)
	shift  float64 // additive shift
	sign   float64 // +1 or -1 (mirrored upper-bounded variables)
}

// stdSlab is the recycled backing store of a standard form's constraint
// matrix: one contiguous m*n slab and the m row headers into it, plus the
// pristine snapshot, eta file and workspace of the refactorization kernel
// (extract.go) that both the warm install and the canonical extraction run
// on. Every node LP of a search builds one or more standard forms of the
// same shape, so recycling the slab turns a fresh m*n allocation per build
// into a memclr.
type stdSlab struct {
	data []float64
	rows [][]float64

	ext extraction
}

// freeSlabs is the free list of released slabs, last in first out. Unlike
// a sync.Pool it is not emptied by garbage collection, so a solve reuses a
// slab whenever one is free and its cost and allocation do not depend on
// when the collector last ran. One solve holds one slab at a time: its
// form, whose slab also carries the refactorization kernel (the warm path
// releases its form before a fallback rebuild). The list keeps two per P,
// so solves on more goroutines than Ps (parallel branch-and-bound waves,
// concurrent daemon jobs) still mostly find one, and drops the rest to the
// collector.
var freeSlabs struct {
	mu   sync.Mutex
	list []*stdSlab
}

// maxFreeSlabs bounds freeSlabs: two slabs per P.
var maxFreeSlabs = 2 * runtime.GOMAXPROCS(0)

// getSlab returns an all-zero m x n matrix backed by a recycled slab when
// one is free.
func getSlab(m, n int) *stdSlab {
	var sl *stdSlab
	freeSlabs.mu.Lock()
	if k := len(freeSlabs.list); k > 0 {
		sl = freeSlabs.list[k-1]
		freeSlabs.list[k-1] = nil
		freeSlabs.list = freeSlabs.list[:k-1]
	}
	freeSlabs.mu.Unlock()
	if sl == nil {
		sl = new(stdSlab)
	}
	if need := m * n; cap(sl.data) < need {
		sl.data = make([]float64, need)
	} else {
		sl.data = sl.data[:need]
		clear(sl.data)
	}
	if cap(sl.rows) < m {
		sl.rows = make([][]float64, m)
	}
	sl.rows = sl.rows[:m]
	for i := range sl.rows {
		sl.rows[i] = sl.data[i*n : (i+1)*n : (i+1)*n]
	}
	return sl
}

// release hands the constraint matrix back to the free list. The form must
// not be pivoted or read through a afterwards; nothing a solve returns (X,
// Dual, Basis) aliases the matrix. Releasing twice is a no-op.
func (s *stdForm) release() {
	if s.slab == nil {
		return
	}
	freeSlabs.mu.Lock()
	if len(freeSlabs.list) < maxFreeSlabs {
		freeSlabs.list = append(freeSlabs.list, s.slab)
	}
	freeSlabs.mu.Unlock()
	s.slab, s.a = nil, nil
}

// buildStandard converts p (with optional bound overrides) to standard form.
// The constraint matrix comes from the slab free list; the caller releases it
// when the solve is done with the form.
func buildStandard(p *Problem, override map[VarID][2]float64) (*stdForm, error) {
	s := &stdForm{negate: p.sense == Maximize}
	s.varMap = make([]stdVarMap, len(p.vars))

	bounds := func(v int) (float64, float64) {
		if override != nil {
			if b, ok := override[VarID(v)]; ok {
				return b[0], b[1]
			}
		}
		return p.vars[v].lo, p.vars[v].hi
	}

	// Assign structural columns.
	type upperRow struct {
		col int
		rhs float64
	}
	var uppers []upperRow
	ncols := 0
	for j := range p.vars {
		lo, hi := bounds(j)
		if lo > hi {
			return nil, fmt.Errorf("lp: variable %q has lo %g > hi %g", p.vars[j].name, lo, hi)
		}
		vm := stdVarMap{col: ncols, negCol: -1, sign: 1}
		switch {
		case math.IsInf(lo, -1) && math.IsInf(hi, 1):
			vm.negCol = ncols + 1
			ncols += 2
		case math.IsInf(lo, -1):
			// x = hi - x', x' >= 0.
			vm.shift = hi
			vm.sign = -1
			ncols++
		default:
			// x = lo + x', x' >= 0, optionally x' <= hi-lo.
			vm.shift = lo
			ncols++
			switch {
			//gapvet:allow floateq branch-and-bound fixings store identical endpoints, so equality is exact
			case lo == hi && math.IsInf(p.vars[j].hi, 1) && !math.IsInf(p.vars[j].lo, -1):
				// Fixed by an override while the base problem is unbounded
				// above: pin the column at zero (it may never enter the
				// basis) instead of adding an upper row with zero rhs. The
				// standard form then keeps the base problem's shape — the
				// warm-start transplant depends on that.
				s.fixed = append(s.fixed, vm.col)
			case !math.IsInf(hi, 1):
				uppers = append(uppers, upperRow{col: vm.col, rhs: hi - lo})
			}
		}
		s.varMap[j] = vm
	}
	s.nStruct = ncols

	objSign := 1.0
	if s.negate {
		objSign = -1
	}

	// Right-hand sides and relations first: a row's sign decides its
	// slack/artificial columns, and so the width of the matrix.
	// nnz counts the structural entries the fill below writes.
	nUser := len(p.cons)
	m := nUser + len(uppers)
	rhs := make([]float64, m)
	rels := make([]Rel, m)
	nnz := 0
	for i, con := range p.cons {
		r := con.rhs
		for _, t := range con.expr.Terms {
			if vm := s.varMap[t.Var]; vm.negCol < 0 {
				r -= t.Coef * vm.shift
			} else {
				nnz++
			}
		}
		rhs[i], rels[i] = r, con.rel
		nnz += len(con.expr.Terms)
	}
	for k, u := range uppers {
		rhs[nUser+k], rels[nUser+k] = u.rhs, LE
	}

	// Normalize b >= 0, then lay out slack/surplus and artificial columns.
	s.rowFlip = make([]float64, m)
	s.rowUnit = make([]int, m)
	for i := range s.rowUnit {
		s.rowUnit[i] = -1 // -1 = no unit column yet; 0 is a real column index
	}
	s.rowUnitSign = make([]float64, m)
	type extra struct {
		row  int
		coef float64
		art  bool
	}
	var extras []extra
	for i := 0; i < m; i++ {
		s.rowFlip[i] = 1
		if rhs[i] < 0 {
			s.rowFlip[i] = -1
			rhs[i] = -rhs[i]
			switch rels[i] {
			case LE:
				rels[i] = GE
			case GE:
				rels[i] = LE
			}
		}
		switch rels[i] {
		case LE:
			extras = append(extras, extra{row: i, coef: 1})
		case GE:
			extras = append(extras, extra{row: i, coef: -1})
			extras = append(extras, extra{row: i, coef: 1, art: true})
		case EQ:
			extras = append(extras, extra{row: i, coef: 1, art: true})
		}
	}
	total := ncols + len(extras)
	// Place non-artificial slacks first, then artificials, so that
	// "column >= artFrom" identifies artificials.
	colOf := make([]int, len(extras))
	next := ncols
	for k, e := range extras {
		if !e.art {
			colOf[k] = next
			next++
		}
	}
	s.artFrom = next
	for k, e := range extras {
		if e.art {
			colOf[k] = next
			next++
		}
	}

	// Fill the matrix in place: structural coefficients (negated on flipped
	// rows), upper-bound rows, then the slack/artificial unit entries. Every
	// written position is noted for the pristine snapshot.
	s.m, s.n = m, total
	s.slab = getSlab(m, total)
	s.a = s.slab.rows
	s.b = rhs
	ext := &s.slab.ext
	ext.notes = resize(ext.notes, nnz+len(uppers)+len(extras))[:0]
	for i, con := range p.cons {
		row := s.a[i]
		for _, t := range con.expr.Terms {
			vm := s.varMap[t.Var]
			if vm.negCol >= 0 {
				row[vm.col] += t.Coef
				row[vm.negCol] -= t.Coef
				ext.note(i, vm.col)
				ext.note(i, vm.negCol)
				continue
			}
			row[vm.col] += t.Coef * vm.sign
			ext.note(i, vm.col)
		}
	}
	for k, u := range uppers {
		s.a[nUser+k][u.col] = 1
		ext.note(nUser+k, u.col)
	}
	for i := 0; i < m; i++ {
		if s.rowFlip[i] < 0 {
			row := s.a[i][:ncols]
			for j := range row {
				row[j] = -row[j]
			}
		}
	}
	for k, e := range extras {
		col := colOf[k]
		s.a[e.row][col] = e.coef
		ext.note(e.row, col)
		// Unit columns with +1 give the cleanest dual read-off; prefer the
		// artificial when present (GE rows), else the slack.
		if e.coef > 0 || s.rowUnit[e.row] == -1 {
			s.rowUnit[e.row] = col
			s.rowUnitSign[e.row] = e.coef
		}
	}
	ext.record(s)

	// Objective over structural columns; slacks and artificials cost 0.
	s.c = make([]float64, total)
	for j := range p.vars {
		cj := p.vars[j].obj * objSign
		if cj == 0 {
			continue
		}
		vm := s.varMap[j]
		if vm.negCol >= 0 {
			s.c[vm.col] += cj
			s.c[vm.negCol] -= cj
			continue
		}
		s.c[vm.col] += cj * vm.sign
		s.objConst += cj * vm.shift
	}

	// Structure signature: everything that fixes the shape and column layout
	// of the standard form (never numeric values, never the fixed set — a
	// child that pins one more column must still match its parent). FNV-1a
	// over the layout-determining integers.
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	mix := func(v uint64) {
		h ^= v
		h *= fnvPrime
	}
	mix(uint64(s.m))
	mix(uint64(s.n))
	mix(uint64(s.nStruct))
	mix(uint64(s.artFrom))
	mix(uint64(nUser))
	for _, vm := range s.varMap {
		mix(uint64(vm.col))
		mix(uint64(int64(vm.negCol)))
		mix(math.Float64bits(vm.sign))
	}
	for _, u := range uppers {
		mix(uint64(u.col))
	}
	for i := 0; i < m; i++ {
		mix(math.Float64bits(s.rowFlip[i]))
	}
	s.sig = h
	return s, nil
}

// tableau carries the mutable simplex state.
type tableau struct {
	s        *stdForm
	basis    []int     // basic column per row
	inBasis  []bool    // column -> basic?
	r        []float64 // n, reduced costs for the current phase
	rw       []float64 // n, scratch: tiebreak's secondary reduced costs
	obj      float64   // current phase objective value
	iters    int
	phase1   int // pivots spent in phase 1
	degen    int // pivots that left the phase objective unchanged
	max      int
	blocked  []bool          // columns forbidden from entering (artificials in phase 2)
	nz       []int           // n, scratch: nonzero columns of the current pivot row
	deadline time.Time       // zero means none
	ctx      context.Context // nil means uncancellable
}

// interrupted polls the solve's context on the same iteration cadence as the
// deadline check. Cooperative: the current pivot always completes first.
func (t *tableau) interrupted() bool {
	return t.ctx != nil && t.iters%128 == 0 && t.ctx.Err() != nil
}

// solution constructs a Solution carrying the tableau's effort counters.
func (t *tableau) solution(st Status) *Solution {
	return &Solution{
		Status:           st,
		Iterations:       t.iters,
		Phase1Iterations: t.phase1,
		DegeneratePivots: t.degen,
	}
}

// SolveWith solves the problem with the given options, records the solve
// in the process-wide metrics registry, and — when opts.Tracer is set —
// brackets it with LP solve events.
func (p *Problem) SolveWith(opts SolveOptions) (*Solution, error) {
	opts.Tracer.Emit(obs.Event{Kind: obs.KindLPSolveStart, Detail: p.Name})
	sol, err := p.solveWith(opts)
	if sol != nil {
		lpSolves.Inc()
		lpIters.Add(int64(sol.Iterations))
		lpDegenerate.Add(int64(sol.DegeneratePivots))
		mode := ""
		switch {
		case sol.Warm:
			lpWarmSolves.Inc()
			mode = "warm"
		case sol.WarmFallback:
			lpWarmFallbacks.Inc()
			mode = "warm-fallback"
		}
		opts.Tracer.Emit(obs.Event{Kind: obs.KindLPSolveEnd, Iters: sol.Iterations,
			Degenerate: sol.DegeneratePivots, Status: sol.Status.String(), Detail: mode})
	} else {
		opts.Tracer.Emit(obs.Event{Kind: obs.KindLPSolveEnd, Status: "error"})
	}
	return sol, err
}

// solveWith dispatches a solve: through the presolve pass when it is asked
// for and no warm start pins the unreduced form, else straight to the
// tableau.
func (p *Problem) solveWith(opts SolveOptions) (*Solution, error) {
	if opts.Presolve && opts.WarmStart == nil {
		return p.solvePresolved(opts)
	}
	return p.solveDense(opts)
}

// solveDense is the dense tableau path: build the standard form, try the
// warm transplant when a compatible snapshot is offered, and fall back to
// the canonical cold two-phase method. The form's matrix goes back to the
// slab free list on return.
func (p *Problem) solveDense(opts SolveOptions) (*Solution, error) {
	s, err := buildStandard(p, opts.BoundOverride)
	if err != nil {
		return nil, err
	}
	defer func() { s.release() }()
	if ws := opts.WarmStart; ws != nil {
		if ws.sig == s.sig && len(ws.cols) == s.m {
			if sol := p.solveWarm(s, opts); sol != nil {
				return sol, nil
			}
			// The warm attempt pivots the standard form in place; rebuild it
			// so the cold solve starts from pristine data and produces exactly
			// the answer it would have produced with no warm start at all.
			s.release()
			if s, err = buildStandard(p, opts.BoundOverride); err != nil {
				return nil, err
			}
		}
		sol, err := p.solveCold(s, opts)
		if sol != nil {
			sol.WarmFallback = true
		}
		return sol, err
	}
	return p.solveCold(s, opts)
}

// newTableau prepares the mutable solver state for a standard form: iteration
// budget, deadline, the blocked set (columns pinned by fixing overrides may
// never enter a basis), and the pivot-row scratch.
func newTableau(s *stdForm, opts SolveOptions) *tableau {
	t := &tableau{s: s, deadline: opts.Deadline, ctx: opts.Ctx}
	t.max = opts.MaxIters
	if t.max <= 0 {
		t.max = 2000 + 60*(s.m+s.n)
	}
	t.basis = make([]int, s.m)
	t.inBasis = make([]bool, s.n)
	t.blocked = make([]bool, s.n)
	t.nz = make([]int, s.n)
	t.r = make([]float64, s.n)
	t.rw = make([]float64, s.n)
	for _, j := range s.fixed {
		t.blocked[j] = true
	}
	return t
}

// solveCold runs the canonical two-phase primal simplex on s. Every result a
// caller can observe — status, point, duals, explored-tree decisions made on
// top of them — is defined by this path; the warm path must either reproduce
// it or fall back to it.
func (p *Problem) solveCold(s *stdForm, opts SolveOptions) (*Solution, error) {
	t := newTableau(s, opts)

	// Initial basis. Each slack/artificial column touches exactly one row
	// by construction, so a +1 entry in row i identifies row i's own column.
	// Prefer a slack (+1, LE rows); otherwise try a crash pivot on a
	// singleton structural column (KKT rewrites produce one explicit slack
	// variable per inner row, which lands here and avoids an artificial);
	// only then fall back to the artificial (GE/EQ rows).
	needCrash := false
	for i := 0; i < s.m; i++ {
		t.basis[i] = -1
		for j := s.nStruct; j < s.artFrom; j++ {
			if s.a[i][j] == 1 && !t.inBasis[j] {
				t.basis[i] = j
				t.inBasis[j] = true
				break
			}
		}
		if t.basis[i] == -1 {
			needCrash = true
		}
	}
	if needCrash {
		// Count structural nonzeros per column to find singletons.
		rowOf := make([]int, s.nStruct)
		count := make([]int, s.nStruct)
		for i := 0; i < s.m; i++ {
			row := s.a[i]
			for j := 0; j < s.nStruct; j++ {
				if row[j] != 0 {
					count[j]++
					rowOf[j] = i
				}
			}
		}
		for j := 0; j < s.nStruct; j++ {
			i := rowOf[j]
			if count[j] != 1 || t.basis[i] != -1 || s.a[i][j] <= pivotTol || t.blocked[j] {
				continue
			}
			// The column is zero outside row i, so this pivot only rescales
			// row i: O(n) rather than O(m*n).
			t.pivot2(i, j)
			t.basis[i] = j
			t.inBasis[j] = true
		}
	}
	hasArt := false
	for i := 0; i < s.m; i++ {
		if t.basis[i] != -1 {
			continue
		}
		col := -1
		for j := s.artFrom; j < s.n; j++ {
			if s.a[i][j] == 1 && !t.inBasis[j] {
				col = j
				break
			}
		}
		if col == -1 {
			return nil, fmt.Errorf("lp: row %d of the standard form has no artificial column", i)
		}
		hasArt = true
		t.basis[i] = col
		t.inBasis[col] = true
	}

	// Phase 1: minimize the sum of artificial variables.
	if hasArt {
		phase1 := make([]float64, s.n)
		for j := s.artFrom; j < s.n; j++ {
			phase1[j] = 1
		}
		t.resetCosts(phase1)
		p1Start := time.Now() //gapvet:allow walltime phase-1 time attribution; observed into an obs histogram, never read by the solve
		st := t.run()
		t.phase1 = t.iters
		lpPhase1Seconds.ObserveDuration(time.Since(p1Start)) //gapvet:allow walltime phase-1 time attribution; observed into an obs histogram, never read by the solve
		lpPhase1Pivots.Add(int64(t.phase1))
		if st == StatusIterLimit || st == StatusDeadline || st == StatusInterrupted {
			return t.solution(st), nil
		}
		if st != StatusOptimal || t.obj > feasTol {
			return t.solution(StatusInfeasible), nil
		}
		// Drive remaining artificials out of the basis where possible. A
		// row with no usable column is redundant; its artificial stays at 0.
		for i := 0; i < s.m; i++ {
			if t.basis[i] < s.artFrom {
				continue
			}
			for j := 0; j < s.artFrom; j++ {
				if !t.inBasis[j] && !t.blocked[j] && math.Abs(s.a[i][j]) > pivotTol {
					t.pivot(i, j)
					break
				}
			}
		}
	}
	// Artificial columns must never enter again — even when phase 1 was
	// skipped entirely (crash basis), they exist in the tableau with zero
	// cost and would otherwise re-enter and fake feasibility.
	for j := s.artFrom; j < s.n; j++ {
		t.blocked[j] = true
	}

	// Phase 2: the real objective, then the canonical-vertex tie-break.
	t.resetCosts(s.c)
	p2Start := time.Now() //gapvet:allow walltime phase-2 time attribution; observed into an obs histogram, never read by the solve
	st := t.run()
	if st == StatusOptimal {
		st = t.tiebreak()
	}
	lpPhase2Seconds.ObserveDuration(time.Since(p2Start)) //gapvet:allow walltime phase-2 time attribution; observed into an obs histogram, never read by the solve
	lpPhase2Pivots.Add(int64(t.iters - t.phase1))
	return finishSolution(p, t, st, opts), nil
}

// finishSolution turns a terminal tableau into a Solution: effort counters
// always; primal point, objective, duals and (optionally) the basis snapshot
// only when the status is optimal, per the Solution contract.
//
// Primal extraction is canonical: the tie-break phase (tableau.tiebreak) has
// already driven the tableau to the unique secondary-weight-minimal vertex of
// the optimal face, and the point and objective are then recomputed by
// refactorizing the form's pristine snapshot onto a deterministic completion
// of that vertex's support (extraction.canonical). X and Objective are
// therefore a pure function of (problem data, overrides) — never of the
// pivot history — which is what lets branch and bound promise an identical
// explored tree with warm starting on or off. Duals and the captured basis
// intentionally come from the terminal state instead: its basis is dual
// feasible (a valid certificate and a transplantable warm start), at the
// price of being path-dependent in the last bits. Nothing that steers the
// search consumes them.
func finishSolution(p *Problem, t *tableau, st Status, opts SolveOptions) *Solution {
	sol := &Solution{
		Status:           st,
		Iterations:       t.iters,
		Phase1Iterations: t.phase1,
		DegeneratePivots: t.degen,
	}
	if st != StatusOptimal {
		return sol
	}
	s := t.s

	// Duals from the terminal state: y_i = -(reduced cost of row i's +1
	// unit column) in the standardized min problem; map through row flips and
	// problem sense.
	sol.Dual = make([]float64, len(p.cons))
	for i := range p.cons {
		col := s.rowUnit[i]
		if col < 0 {
			// No unit column for this row. Unreachable with the current
			// builder (every row receives a slack or an artificial), but a
			// zero dual is the safe read-off if that ever changes.
			continue
		}
		y := -t.r[col] / s.rowUnitSign[i]
		y *= s.rowFlip[i]
		if s.negate {
			y = -y
		}
		sol.Dual[i] = y
	}
	if opts.CaptureBasis {
		sol.Basis = newBasis(t.basis, s.sig)
	}

	// Support of the terminal vertex: the basic columns carrying genuinely
	// positive values. Degenerate basic columns (value ~0) are excluded so
	// the canonical completion below does not depend on which of a vertex's
	// many bases the pivot path happened to stop at.
	ext := &s.slab.ext
	support := ext.sup[:0]
	for i, col := range t.basis {
		if s.b[i] > feasTol {
			support = append(support, col)
		}
	}
	slices.Sort(support)
	basis, bval, obj := t.basis, s.b, t.obj
	extractStart := time.Now() //gapvet:allow walltime extraction time attribution; observed into an obs histogram, never read by the solve
	// The blocked set is the one a fresh tableau of this form gets once its
	// artificials are barred: the fixed columns and the artificials. On a
	// (numerically) singular refactorization fall back to the terminal
	// state itself — still correct, merely not canonical.
	if cb, cv, cobj, ok := ext.canonical(support, t.blocked, s.c); ok {
		basis, bval, obj = cb, cv, cobj
	}
	lpExtractSeconds.ObserveDuration(time.Since(extractStart)) //gapvet:allow walltime extraction time attribution; observed into an obs histogram, never read by the solve

	// Recover the standard-form primal point.
	xs := make([]float64, s.n)
	for i, col := range basis {
		xs[col] = bval[i]
	}
	// Map back to user variables.
	sol.X = make([]float64, len(p.vars))
	for j := range p.vars {
		vm := s.varMap[j]
		v := vm.shift + vm.sign*xs[vm.col]
		if vm.negCol >= 0 {
			v = xs[vm.col] - xs[vm.negCol]
		}
		sol.X[j] = v
	}
	objStd := obj + s.objConst
	if s.negate {
		sol.Objective = -objStd
	} else {
		sol.Objective = objStd
	}
	return sol
}

// resetCosts installs a cost vector and recomputes reduced costs and the
// objective for the current basis.
//
//gapvet:hotpath every phase start and every tiebreak; the reduced-cost row is presized tableau scratch
func (t *tableau) resetCosts(c []float64) {
	s := t.s
	copy(t.r, c)
	t.obj = 0
	for i, col := range t.basis {
		cb := c[col]
		if cb == 0 {
			continue
		}
		t.obj += cb * s.b[i]
		row := s.a[i]
		for j := 0; j < s.n; j++ {
			t.r[j] -= cb * row[j]
		}
	}
	// Basic columns have exactly zero reduced cost by definition.
	for _, col := range t.basis {
		t.r[col] = 0
	}
}

// pivot2 normalizes row pr so that column pc becomes 1. Valid only when
// column pc is zero outside row pr (crash pivots on singleton columns), so
// no other row or the cost row needs updating.
func (t *tableau) pivot2(pr, pc int) {
	s := t.s
	prow := s.a[pr]
	piv := prow[pc]
	if piv == 1 {
		return
	}
	s.pivoted = true
	inv := 1 / piv
	for j := 0; j < s.n; j++ {
		prow[j] *= inv
	}
	prow[pc] = 1
	s.b[pr] *= inv
}

// run iterates pivots until optimality, unboundedness, or the iteration cap.
func (t *tableau) run() Status {
	s := t.s
	stall := 0
	for {
		if t.iters >= t.max {
			return StatusIterLimit
		}
		if !t.deadline.IsZero() && t.iters%128 == 0 && time.Now().After(t.deadline) {
			return StatusDeadline
		}
		if t.interrupted() {
			return StatusInterrupted
		}
		bland := stall > 2*(s.m+8)
		pc := t.price(bland)
		if pc == -1 {
			return StatusOptimal
		}
		pr := t.ratio(pc)
		if pr == -1 {
			return StatusUnbounded
		}
		before := t.obj
		t.pivot(pr, pc)
		t.iters++
		if t.obj < before-optTol {
			stall = 0
		} else {
			stall++
			t.degen++
		}
	}
}

// price selects the entering column, or -1 at optimality. Among candidates
// whose reduced costs are within tieTol of the most negative seen so far,
// the smallest column index wins (the incumbent is kept).
func (t *tableau) price(bland bool) int {
	best, bestVal := -1, 0.0
	for j := 0; j < t.s.n; j++ {
		if t.inBasis[j] || t.blocked[j] {
			continue
		}
		r := t.r[j]
		if r >= -optTol {
			continue
		}
		if bland {
			return j
		}
		if best == -1 || r < bestVal-tieTol {
			best, bestVal = j, r
		}
	}
	return best
}

// ratio selects the leaving row for entering column pc, or -1 if unbounded.
// Ties prefer rows whose basic variable is artificial (driving them out),
// then the smallest basic column index (Bland-compatible).
func (t *tableau) ratio(pc int) int {
	s := t.s
	best := -1
	bestRatio := math.Inf(1)
	for i := 0; i < s.m; i++ {
		aij := s.a[i][pc]
		if aij <= pivotTol {
			continue
		}
		ratio := s.b[i] / aij
		switch {
		case ratio < bestRatio-feasTol:
			best, bestRatio = i, ratio
		case ratio <= bestRatio+feasTol:
			// Tie-break.
			bi, bb := t.basis[i], t.basis[best]
			iArt, bArt := bi >= s.artFrom, bb >= s.artFrom
			if iArt && !bArt || (iArt == bArt && bi < bb) {
				best, bestRatio = i, math.Min(bestRatio, ratio)
			}
		}
	}
	return best
}

// scaleRow divides row pr by its entry in column pc, touching only the
// row's nonzeros, and returns their columns in ascending order together
// with the reciprocal pivot it scaled by. The column list is a view of the
// tableau's scratch, valid until the next call. Zeros are left alone rather
// than multiplied, so a zero keeps its sign where a full-row loop would turn
// it into -0 on a negative pivot; every nonzero is bitwise what a full-row
// loop computes.
func (t *tableau) scaleRow(pr, pc int) (nz []int, inv float64) {
	prow := t.s.a[pr]
	inv = 1 / prow[pc]
	k := 0
	for j, v := range prow {
		if v != 0 {
			prow[j] = v * inv
			t.nz[k] = j
			k++
		}
	}
	prow[pc] = 1
	return t.nz[:k], inv
}

// pivot performs a pivot on (pr, pc), updating rows, rhs, reduced costs,
// objective, and the basis. Elimination runs over the pivot row's nonzeros
// only: O(nnz(pivot row) x nnz(pivot column)) plus an O(m) column scan.
//
//gapvet:hotpath every simplex pivot; the nonzero list lives in presized tableau scratch
func (t *tableau) pivot(pr, pc int) {
	s := t.s
	s.pivoted = true
	nz, inv := t.scaleRow(pr, pc)
	prow := s.a[pr]
	s.b[pr] *= inv
	if s.b[pr] < 0 && s.b[pr] > -feasTol {
		s.b[pr] = 0
	}
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
		if s.b[i] < 0 && s.b[i] > -feasTol {
			s.b[i] = 0
		}
	}
	if f := t.r[pc]; f != 0 {
		for _, j := range nz {
			t.r[j] -= f * prow[j]
		}
		t.r[pc] = 0
		// The entering variable takes value b[pr] (already rescaled); the
		// objective moves by its pre-pivot reduced cost times that value.
		t.obj += f * s.b[pr]
	}
	t.inBasis[t.basis[pr]] = false
	t.basis[pr] = pc
	t.inBasis[pc] = true
}

// tiebreakWeight returns the fixed secondary weight of column j: a generic
// positive value in [1, 2) derived from the column index alone (splitmix64
// finalizer), so every solve of every problem uses the same weights. The
// genericity is what makes the weight-minimal vertex of an optimal face
// unique in practice.
func tiebreakWeight(j int) float64 {
	z := (uint64(j) + 1) * 0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return 1 + float64(z>>11)/(1<<53)
}

// tiebreak drives an optimal tableau to a canonical vertex of its optimal
// face: the one minimizing the fixed secondary weights of tiebreakWeight.
// Alternate optima are the reason a warm-started solve can legitimately end
// at a different vertex than the cold solve — degenerate flow LPs have many
// optimal flow splits — and branch and bound steers by the vertex, so both
// paths must agree on which one to report. Entering columns are restricted
// to reduced cost <= optTol (the optimal face at the current basis; the
// reduced costs were just refreshed by resetCosts, so dust is one
// refactorization deep), which keeps the primary objective optimal while the
// secondary weights strictly improve. A weight-decreasing ray cannot exist
// (the weights are positive over x >= 0), so the walk ends at a vertex.
//
//gapvet:hotpath once per optimal solve; the secondary reduced costs are presized tableau scratch
func (t *tableau) tiebreak() Status {
	s := t.s
	// Refresh reduced costs from the current basis: the face test below
	// compares r against optTol, so accumulated pivot dust must go.
	t.resetCosts(s.c)
	rw := t.rw
	for j := range rw {
		rw[j] = tiebreakWeight(j)
	}
	for i, col := range t.basis {
		wb := tiebreakWeight(col)
		row := s.a[i]
		for j := 0; j < s.n; j++ {
			rw[j] -= wb * row[j]
		}
	}
	for _, col := range t.basis {
		rw[col] = 0
	}
	stall := 0
	for {
		if t.iters >= t.max {
			return StatusIterLimit
		}
		if !t.deadline.IsZero() && t.iters%128 == 0 && time.Now().After(t.deadline) {
			return StatusDeadline
		}
		if t.interrupted() {
			return StatusInterrupted
		}
		bland := stall > 2*(s.m+8)
		pc, bestVal := -1, 0.0
		for j := 0; j < s.n; j++ {
			if t.inBasis[j] || t.blocked[j] || t.r[j] > optTol || rw[j] >= -optTol {
				continue
			}
			if bland {
				pc = j
				break // smallest-index candidate
			}
			if pc == -1 || rw[j] < bestVal-tieTol {
				pc, bestVal = j, rw[j]
			}
		}
		if pc == -1 {
			return StatusOptimal
		}
		pr := t.ratio(pc)
		if pr == -1 {
			// No leaving row would mean a weight-decreasing ray, which the
			// positive weights rule out: numerical noise. Stop here.
			return StatusOptimal
		}
		f := rw[pc]
		t.pivot(pr, pc)
		t.iters++
		prow := s.a[pr]
		for j := 0; j < s.n; j++ {
			rw[j] -= f * prow[j]
		}
		rw[pc] = 0
		if s.b[pr] > feasTol {
			stall = 0
		} else {
			stall++
			t.degen++
		}
	}
}

// solveWarm attempts to solve s starting from the parent basis in
// opts.WarmStart: reinstall the basis by refactorization, then repair primal
// feasibility with a dual-simplex phase. It returns nil whenever the snapshot
// turns out to be unusable — the caller then rebuilds the standard form (the
// attempt pivots s in place) and runs the cold path, so the observable answer
// never depends on whether a warm start was tried.
//
// The install pivots are refactorization, not search: the cold solver pays
// for them implicitly by keeping its tableau up to date across phase 1, so
// they are deliberately not counted in Iterations. Only dual-repair, blocked-
// eviction and primal-cleanup pivots count.
func (p *Problem) solveWarm(s *stdForm, opts SolveOptions) *Solution {
	t := newTableau(s, opts)
	// Attribute the whole warm attempt — reinstall, dual-feasibility check,
	// dual repair, eviction, cleanup — to lp_warm_repair_seconds, including
	// aborted attempts (the caller then also pays the cold phases, and the
	// ledger should show both costs). Pivot accounting mirrors that: t.iters
	// at exit covers dual-repair + eviction + cleanup + tie-break pivots.
	repairStart := time.Now() //gapvet:allow walltime warm-repair time attribution; observed into an obs histogram, never read by the solve
	defer func() {
		lpWarmRepairSeconds.ObserveDuration(time.Since(repairStart)) //gapvet:allow walltime warm-repair time attribution; observed into an obs histogram, never read by the solve
		lpWarmRepairPivots.Add(int64(t.iters))
	}()
	// Artificials may sit in a parent basis (redundant rows hold them at
	// zero) but must never enter during the repair.
	for j := s.artFrom; j < s.n; j++ {
		t.blocked[j] = true
	}
	if !t.install(opts.WarmStart.cols) {
		return nil
	}
	t.resetCosts(s.c)
	// The parent's terminal reduced costs remain valid for the child: A and c
	// are shared, only b differs (bound overrides move through shifts and
	// upper-row right-hand sides). A negative reduced cost beyond
	// refactorization noise therefore means the snapshot does not fit.
	for j := 0; j < s.n; j++ {
		if t.inBasis[j] || t.blocked[j] {
			continue
		}
		if t.r[j] < -warmDualTol {
			return nil
		}
	}
	switch st := t.runDual(); st {
	case statusWarmAbort, StatusIterLimit:
		// Abort covers both dual cycling and a row with no entering column.
		// The latter is a primal-infeasibility certificate, but the cold
		// phase-1 stays the canonical feasibility oracle; an iteration cap
		// must likewise produce exactly the cold solver's capped outcome.
		return nil
	case StatusDeadline, StatusInterrupted:
		sol := t.solution(st)
		sol.Warm = true
		return sol
	}
	// Primal feasible and dual feasible over the unblocked columns. Evict
	// blocked columns still basic at zero so the cleanup below cannot move a
	// fixed variable, let the primal method mop up reduced-cost drift from
	// the refactorization (usually zero pivots), then walk to the canonical
	// vertex exactly as the cold path does.
	lpWarmEvictPivots.Add(int64(t.evictBlocked()))
	st := t.run()
	if st == StatusOptimal {
		st = t.tiebreak()
	}
	switch st {
	case StatusDeadline, StatusInterrupted:
		sol := t.solution(st)
		sol.Warm = true
		return sol
	case StatusOptimal, StatusUnbounded:
		sol := finishSolution(p, t, st, opts)
		sol.Warm = true
		return sol
	default:
		return nil
	}
}

// install refactorizes the tableau onto the given basic column set. The
// snapshot stores a set, not a row pairing: extraction.install places the
// columns on the form's pristine snapshot, each in the unassigned row where
// it is largest in magnitude, and install replays the resulting eta file on
// the dense form, bitwise as a dense Gauss-Jordan install (DESIGN.md, "One
// refactorization kernel"). Returns false, with the form untouched, when the
// set is singular (or numerically unusable) for this tableau.
//
//gapvet:hotpath one warm install per warm node LP; the eta file lives in the recycled slab
func (t *tableau) install(cols []int32) bool {
	s := t.s
	ext := &s.slab.ext
	if len(cols) != s.m || !ext.install(cols) {
		return false
	}
	for k, pr := range ext.etaRow {
		rows, _ := ext.mults(k)
		t.gauss(int(pr), int(ext.etaCol[k]), rows)
	}
	copy(t.basis, ext.basis)
	for _, j := range t.basis {
		t.inBasis[j] = true
	}
	return true
}

// gauss pivots on (pr, pc) updating only the matrix and right-hand side —
// no reduced-cost or objective bookkeeping, which does not exist yet during
// install. Negative b entries are expected output: they are exactly the
// primal infeasibilities the dual phase repairs. It eliminates over the
// pivot row's nonzeros and the given rows, which must be exactly the other
// rows where column pc is nonzero: an eta's multiplier rows. The eta file
// describes the pristine form, so gauss on a pivoted form is a programming
// error.
//
//gapvet:hotpath one replayed eta per non-unit column of a warm install; the nonzero list lives in presized tableau scratch
func (t *tableau) gauss(pr, pc int, rows []int32) {
	s := t.s
	if s.pivoted {
		panic("lp: gauss on a pivoted standard form; the eta file it replays describes the form as built")
	}
	nz, inv := t.scaleRow(pr, pc)
	prow := s.a[pr]
	s.b[pr] *= inv
	for _, i := range rows {
		row := s.a[i]
		f := row[pc]
		for _, j := range nz {
			row[j] -= f * prow[j]
		}
		row[pc] = 0
		s.b[i] -= f * s.b[pr]
	}
}

// runDual repairs primal feasibility while maintaining dual feasibility — a
// generalized dual simplex. A row is violated when its basic value is
// negative (the classic case) or when its basic column is blocked with a
// positive value (a fixed variable that must be driven back to zero — the
// "up" case, which is how a child node pivots out the variable its branching
// fixed while it was basic in the parent). Every choice below is a pure
// function of the tableau data: largest violation with smallest-row ties,
// min-ratio entering with smallest-column ties.
func (t *tableau) runDual() Status {
	s := t.s
	stall := 0
	for {
		if t.iters >= t.max {
			return StatusIterLimit
		}
		if !t.deadline.IsZero() && t.iters%128 == 0 && time.Now().After(t.deadline) {
			return StatusDeadline
		}
		if t.interrupted() {
			return StatusInterrupted
		}
		pr, viol, up := -1, 0.0, false
		for i := 0; i < s.m; i++ {
			var v float64
			var u bool
			switch {
			case s.b[i] < -feasTol:
				v, u = -s.b[i], false
			case s.b[i] > feasTol && t.blocked[t.basis[i]]:
				v, u = s.b[i], true
			default:
				continue
			}
			if pr == -1 || v > viol+tieTol {
				pr, viol, up = i, v, u
			}
		}
		if pr == -1 {
			return StatusOptimal
		}
		// Entering column: min ratio r[j]/|a[pr][j]| over candidates that move
		// the leaving variable the right way — a[pr][j] < 0 for the classic
		// case (variable increases from negative), a[pr][j] > 0 for "up"
		// (variable decreases to zero). The min-ratio rule keeps r >= 0.
		dir := 1.0
		if up {
			dir = -1
		}
		row := s.a[pr]
		pc, bestRatio := -1, math.Inf(1)
		for j := 0; j < s.n; j++ {
			if t.inBasis[j] || t.blocked[j] {
				continue
			}
			d := dir * row[j]
			if d > -pivotTol {
				continue
			}
			if ratio := t.r[j] / -d; pc == -1 || ratio < bestRatio-tieTol {
				pc, bestRatio = j, ratio
			}
		}
		if pc == -1 {
			// No column can repair the violated row: a primal-infeasibility
			// certificate. Let the cold phase 1 pronounce it.
			return statusWarmAbort
		}
		before := t.obj
		t.pivot(pr, pc)
		t.iters++
		if math.Abs(t.obj-before) <= optTol {
			t.degen++
			stall++
		} else {
			stall = 0
		}
		if stall > 4*(s.m+s.n) {
			return statusWarmAbort
		}
	}
}

// evictBlocked pivots blocked columns that remain basic (at ~zero after the
// dual repair) out of the basis, so later primal pivots cannot move a fixed
// variable off its fixing. A row with no usable replacement keeps its blocked
// column: every unblocked coefficient there is ~zero, so no later pivot can
// change that row's value meaningfully. Returns the number of eviction
// pivots performed (they also count toward t.iters and t.degen).
func (t *tableau) evictBlocked() int {
	s := t.s
	evicted := 0
	for i := 0; i < s.m; i++ {
		if !t.blocked[t.basis[i]] {
			continue
		}
		for j := 0; j < s.n; j++ {
			if t.inBasis[j] || t.blocked[j] || math.Abs(s.a[i][j]) <= pivotTol {
				continue
			}
			t.pivot(i, j)
			t.iters++
			t.degen++
			evicted++
			break
		}
	}
	return evicted
}
