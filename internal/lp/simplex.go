package lp

import (
	"context"
	"fmt"
	"math"
	"math/bits"
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
	// lp_warm_infeasible_total counts the warm solves ended at the repair's
	// infeasibility certificate.
	lpWarmSolves     = obs.Default.Counter("lp_warm_solves_total")
	lpWarmFallbacks  = obs.Default.Counter("lp_warm_fallbacks_total")
	lpWarmInfeasible = obs.Default.Counter("lp_warm_infeasible_total")
	lpDives          = obs.Default.Counter("lp_dives_total") // the warm solves that dived
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
	// lpTiebreakSeconds times the phase-3 tiebreak, set-up sweep included,
	// which lies inside lp_phase2_seconds on a cold solve and inside
	// lp_warm_repair_seconds on a warm one.
	lpTiebreakSeconds = obs.Default.Histogram("lp_tiebreak_seconds")
	// lpBuildSeconds times buildStandard, or a dive's right-hand-side-only
	// rebuild. lpInstallSeconds times a warm install, the placement and its
	// replay, inside lp_warm_repair_seconds.
	lpBuildSeconds   = obs.Default.Histogram("lp_build_seconds")
	lpInstallSeconds = obs.Default.Histogram("lp_install_seconds")
	// lpDualRepairSeconds times a warm solve's dual simplex, runDual,
	// inside lp_warm_repair_seconds. lpPresolveSeconds times a presolved
	// solve's own work, the reduction, the reduced problem's assembly and
	// the postsolve, but not the reduced solve between them.
	lpDualRepairSeconds = obs.Default.Histogram("lp_dual_repair_seconds")
	lpPresolveSeconds   = obs.Default.Histogram("lp_presolve_seconds")

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

// Basis is a snapshot of a terminal simplex basis: the set of basic
// columns of the standard form, plus the shape hash of that form so a later
// solve can tell whether the snapshot is transplantable. Create one with
// SolveOptions.CaptureBasis, or rebuild a persisted one with NewBasis;
// consume it with SolveOptions.WarmStart. A Basis is immutable after
// creation and safe to share across goroutines (branch-and-bound hands one
// parent snapshot to both children).
type Basis struct {
	cols  []int32 // basic columns, ascending
	shape uint64  // shape hash of the originating stdForm
}

// Cols returns the basic columns, ascending. The slice is the snapshot's
// own and must not be modified.
func (b *Basis) Cols() []int32 { return b.cols }

// Shape returns the layout hash of the form the snapshot was taken from.
func (b *Basis) Shape() uint64 { return b.shape }

// NewBasis rebuilds a snapshot from what Shape and Cols reported, for
// example after a checkpoint round trip. The columns must be non-negative
// and strictly ascending; a warm start refuses a snapshot whose shape or
// column count does not match its form, and an install refuses one whose
// columns do not fit it.
func NewBasis(shape uint64, cols []int32) (*Basis, error) {
	prev := int32(-1)
	for i, c := range cols {
		if c <= prev {
			return nil, fmt.Errorf("lp: basis column %d is %d, not above %d", i, c, prev)
		}
		prev = c
	}
	return &Basis{cols: slices.Clone(cols), shape: shape}, nil
}

func newBasis(basis []int, shape uint64) *Basis {
	cols := make([]int32, len(basis))
	for i, c := range basis {
		cols[i] = int32(c)
	}
	slices.Sort(cols)
	return &Basis{cols: cols, shape: shape}
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

	// shape hashes everything that determines the standard form's shape
	// (row/column counts, the column layout and the row flips), deliberately
	// excluding the fixed set and all numeric values. Two forms with equal
	// shape from the same Problem have identical column meanings, so a basis
	// from one is well-defined in the other, and a dive may keep the
	// matrix (DESIGN.md, "Live-tableau dives").
	shape uint64

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
//
// The slab tracks which entries may be nonzero (DESIGN.md, "Row
// occupancy"): occ holds one bit per entry, w words per row, and a clear
// bit means a zero entry, so the row scans walk a row's set bits. m, n and
// w are the current form's layout.
//
// The slab also owns the form and tableau built on it and every per-solve
// slice they use, each resized in place, so a solve allocates only what it
// returns: the Solution, X, Dual and Basis.
type stdSlab struct {
	data []float64
	rows [][]float64

	m, n, w int
	occ     []uint64 // m*w
	cols    []int    // n, scratch: the list occupied returns
	elim    []int32  // m, scratch: the rows a pivot eliminates

	form stdForm
	tab  tableau

	// Scratch: rhs is the right-hand side as built (a dive's pristine b),
	// xs the standard-form point, crash solveCold's singleton search.
	rels   []Rel
	uppers []upperRow
	extras []extra
	colOf  []int
	rhs    []float64
	xs     []float64
	crash  []int

	ext extraction
}

// upperRow is the upper-bound row buildStandard adds for a column, and
// extra a slack, surplus or artificial column of row row.
type (
	upperRow struct {
		col int
		rhs float64
	}
	extra struct {
		row  int
		coef float64
		art  bool
	}
)

// freeList is a last-in-first-out list of released per-solve storage, a
// stdSlab or a presolveState. Unlike a sync.Pool it is not emptied by
// garbage collection, so a solve reuses storage whenever some is free and
// its cost and allocation do not depend on when the collector last ran.
// The list keeps two values per P, so solves on more goroutines than Ps
// (concurrent daemon jobs, black-box restarts) still mostly find one, and
// drops the rest to the collector.
type freeList[T any] struct {
	mu   sync.Mutex
	list []*T
}

// maxFree bounds every freeList: two values per P.
var maxFree = 2 * runtime.GOMAXPROCS(0)

// get returns a released value when one is free, else a new one.
func (f *freeList[T]) get() *T {
	var v *T
	f.mu.Lock()
	if k := len(f.list); k > 0 {
		v = f.list[k-1]
		f.list[k-1] = nil
		f.list = f.list[:k-1]
	}
	f.mu.Unlock()
	if v == nil {
		v = new(T)
	}
	return v
}

// put lists v for the next get, or drops it when the list is full. The
// caller must not use v afterwards.
func (f *freeList[T]) put(v *T) {
	f.mu.Lock()
	if len(f.list) < maxFree {
		f.list = append(f.list, v)
	}
	f.mu.Unlock()
}

// freeSlabs holds the released slabs. One solve holds one slab at a time:
// its form, whose slab also carries the refactorization kernel (the warm
// path releases its form before a fallback rebuild). A Dive handle keeps
// one more between solves, the last terminal form, and a solve that does
// not dive releases it before building its own.
var freeSlabs freeList[stdSlab]

// size lays an all-zero m x n matrix out on the slab.
func (sl *stdSlab) size(m, n int) {
	sl.m, sl.n, sl.w = m, n, (n+63)/64
	if need := m * n; cap(sl.data) < need {
		sl.data = make([]float64, need)
	} else {
		sl.data = sl.data[:need]
		clear(sl.data)
	}
	sl.occ = resize(sl.occ, m*sl.w)
	clear(sl.occ)
	sl.cols = resize(sl.cols, n)
	sl.elim = resize(sl.elim, m)
	if cap(sl.rows) < m {
		sl.rows = make([][]float64, m)
	}
	sl.rows = sl.rows[:m]
	for i := range sl.rows {
		sl.rows[i] = sl.data[i*n : (i+1)*n : (i+1)*n]
	}
}

// note records that buildStandard wrote entry (i, j): a bit of row i's
// occupancy and a note for the pristine snapshot.
func (sl *stdSlab) note(i, j int) {
	sl.occ[i*sl.w+j>>6] |= 1 << (j & 63)
	sl.ext.note(i, j)
}

// occupied returns, ascending, the columns where row i may be nonzero: the
// set bits of its occupancy. Every scan of a row goes through it, so a row
// costs its set bits plus n/64 words. The list aliases the slab and is
// valid until the next call.
//
//gapvet:hotpath every row scan of a solve; the column list is presized slab scratch
func (sl *stdSlab) occupied(i int) []int {
	cols, k := sl.cols, 0
	for wi, word := range sl.occ[i*sl.w : (i+1)*sl.w] {
		for ; word != 0; word &= word - 1 {
			cols[k] = wi<<6 | bits.TrailingZeros64(word)
			k++
		}
	}
	return cols[:k]
}

// spread records the fill-in of an elimination on (pr, pc) in the rows it
// eliminated: they take on pr's bits and drop bit pc, which the elimination
// zeroed.
//
//gapvet:hotpath once per pivot and per replayed eta; it ORs words in place
func (sl *stdSlab) spread(pr, pc int, rows []int32) {
	from := sl.occ[pr*sl.w : (pr+1)*sl.w]
	for _, i := range rows {
		to := sl.occ[int(i)*sl.w : (int(i)+1)*sl.w]
		for k, word := range from {
			to[k] |= word
		}
		to[pc>>6] &^= 1 << (pc & 63)
	}
}

// release hands the constraint matrix back to the free list. The form must
// not be pivoted or read through a afterwards; nothing a solve returns (X,
// Dual, Basis) aliases the matrix. Releasing twice, or a nil form, is a
// no-op.
func (s *stdForm) release() {
	if s == nil || s.slab == nil {
		return
	}
	// The form lives on its slab, so it is emptied before the slab is
	// listed: from then on the next solve may own it.
	sl := s.slab
	s.slab, s.a = nil, nil
	freeSlabs.put(sl)
}

// buildStandard converts p (with optional bound overrides) to standard form
// on a slab from the free list; the caller releases it when the solve is
// done with the form.
func buildStandard(p *Problem, override map[VarID][2]float64) (*stdForm, error) {
	start := time.Now() //gapvet:allow walltime build time attribution; observed into an obs histogram, never read by the solve
	sl := freeSlabs.get()
	s := &sl.form
	s.slab = sl
	nnz, err := s.layout(p, override)
	if err != nil {
		s.release()
		return nil, err
	}
	s.b, sl.rhs = sl.rhs, s.b
	s.fill(p, nnz)
	s.c = resize(s.c, s.n)
	s.objConst = s.costs(p, s.c)
	lpBuildSeconds.ObserveDuration(time.Since(start)) //gapvet:allow walltime build time attribution; observed into an obs histogram, never read by the solve
	return s, nil
}

// layout computes everything of the standard form but its matrix and
// costs: the column layout, the right-hand side as built (into the slab's
// rhs), the row flips, the unit columns and the signature. It returns the
// number of structural entries fill writes.
func (s *stdForm) layout(p *Problem, override map[VarID][2]float64) (int, error) {
	sl := s.slab
	s.negate = p.sense == Maximize
	s.varMap = resize(s.varMap, len(p.vars))
	s.fixed = s.fixed[:0]

	// Assign structural columns.
	sl.uppers = sl.uppers[:0]
	ncols := 0
	for j := range p.vars {
		lo, hi := p.bounds(override, j)
		if lo > hi {
			return 0, fmt.Errorf("lp: variable %q has lo %g > hi %g", p.vars[j].name, lo, hi)
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
				s.slab.uppers = append(s.slab.uppers, upperRow{col: vm.col, rhs: hi - lo})
			}
		}
		s.varMap[j] = vm
	}
	uppers := sl.uppers
	s.nStruct = ncols

	// Right-hand sides and relations first: a row's sign decides its
	// slack/artificial columns, and so the width of the matrix.
	// nnz counts the structural entries the fill writes.
	nUser := len(p.cons)
	m := nUser + len(uppers)
	sl.rhs, sl.rels = resize(sl.rhs, m), resize(sl.rels, m)
	rhs, rels := sl.rhs, sl.rels
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
	s.rowFlip = resize(s.rowFlip, m)
	s.rowUnit = resize(s.rowUnit, m)
	s.rowUnitSign = resize(s.rowUnitSign, m)
	sl.extras = sl.extras[:0]
	for i := 0; i < m; i++ {
		s.rowUnit[i] = -1 // -1 = no unit column yet; 0 is a real column index
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
			s.slab.extras = append(s.slab.extras, extra{row: i, coef: 1})
		case GE:
			s.slab.extras = append(s.slab.extras, extra{row: i, coef: -1}, extra{row: i, coef: 1, art: true})
		case EQ:
			s.slab.extras = append(s.slab.extras, extra{row: i, coef: 1, art: true})
		}
	}
	extras := sl.extras
	// Place non-artificial slacks first, then artificials, so that
	// "column >= artFrom" identifies artificials.
	sl.colOf = resize(sl.colOf, len(extras))
	colOf := sl.colOf
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
	for k, e := range extras {
		// Unit columns with +1 give the cleanest dual read-off; prefer the
		// artificial when present (GE rows), else the slack.
		if e.coef > 0 || s.rowUnit[e.row] == -1 {
			s.rowUnit[e.row] = colOf[k]
			s.rowUnitSign[e.row] = e.coef
		}
	}
	s.m, s.n = m, next

	// Shape hash: everything that fixes the shape and column layout of the
	// standard form (never numeric values, never the fixed set — a child
	// that pins one more column must still match its parent), each integer
	// mixed through the splitmix64 finalizer.
	k := uint64(0)
	mix := func(v uint64) { k = splitmix64(k ^ v) }
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
	s.shape = k
	return nnz, nil
}

// bounds returns the bounds of variable v under override.
func (p *Problem) bounds(override map[VarID][2]float64, v int) (lo, hi float64) {
	if b, ok := override[VarID(v)]; ok {
		return b[0], b[1]
	}
	return p.vars[v].lo, p.vars[v].hi
}

// fill lays the matrix out on the slab and writes it: structural
// coefficients (negated on flipped rows, term by term, which rounds exactly
// as negating the sum would), upper-bound rows, then the slack/artificial
// unit entries. Every written position is noted for the pristine snapshot
// and the occupancy, and the snapshot is recorded.
func (s *stdForm) fill(p *Problem, nnz int) {
	sl, ext := s.slab, &s.slab.ext
	sl.size(s.m, s.n)
	s.a, s.pivoted = sl.rows, false
	nUser := len(p.cons)
	ext.notes = resize(ext.notes, nnz+len(sl.uppers)+len(sl.extras))[:0]
	for i, con := range p.cons {
		row, flip := s.a[i], s.rowFlip[i]
		for _, t := range con.expr.Terms {
			vm, coef := s.varMap[t.Var], flip*t.Coef
			if vm.negCol >= 0 {
				row[vm.col] += coef
				row[vm.negCol] -= coef
				sl.note(i, vm.col)
				sl.note(i, vm.negCol)
				continue
			}
			row[vm.col] += coef * vm.sign
			sl.note(i, vm.col)
		}
	}
	for k, u := range sl.uppers {
		s.a[nUser+k][u.col] = 1
		sl.note(nUser+k, u.col)
	}
	for k, e := range sl.extras {
		s.a[e.row][sl.colOf[k]] = e.coef
		sl.note(e.row, sl.colOf[k])
	}
	ext.record(s)
}

// costs writes the phase-2 costs into c, structural columns only (slacks
// and artificials cost 0), and returns the constant the shifts fold out of
// the objective.
func (s *stdForm) costs(p *Problem, c []float64) (objConst float64) {
	objSign := 1.0
	if s.negate {
		objSign = -1
	}
	clear(c)
	for j := range p.vars {
		cj := p.vars[j].obj * objSign
		if cj == 0 {
			continue
		}
		vm := s.varMap[j]
		if vm.negCol >= 0 {
			c[vm.col] += cj
			c[vm.negCol] -= cj
			continue
		}
		c[vm.col] += cj * vm.sign
		objConst += cj * vm.shift
	}
	return objConst
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
		mode := sol.WarmMode()
		switch mode {
		case "warm-infeasible":
			lpWarmInfeasible.Inc()
			fallthrough
		case "warm":
			lpWarmSolves.Inc()
			if sol.Dived {
				lpDives.Inc()
			}
		case "warm-fallback":
			lpWarmFallbacks.Inc()
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

// solveDense is the dense tableau path: dive or build the standard form,
// try the warm transplant when a compatible snapshot is offered, and fall
// back to the canonical cold two-phase method. On return the form goes to
// the Dive handle when the solve captured its basis, else to the free list.
func (p *Problem) solveDense(opts SolveOptions) (sol *Solution, err error) {
	s := opts.Dive.take(p, opts)
	dived := s != nil
	if !dived {
		if s, err = buildStandard(p, opts.BoundOverride); err != nil {
			return nil, err
		}
	}
	defer func() {
		if d := opts.Dive; d != nil && sol != nil && sol.Basis != nil {
			d.p, d.s, d.basis = p, s, sol.Basis
			return
		}
		s.release()
	}()
	if ws := opts.WarmStart; ws != nil {
		if dived || ws.shape == s.shape && len(ws.cols) == s.m {
			if sol = p.solveWarm(s, opts, dived); sol != nil {
				sol.Dived = dived
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
		if sol, err = p.solveCold(s, opts); sol != nil {
			sol.WarmFallback = true
		}
		return sol, err
	}
	return p.solveCold(s, opts)
}

// Dive carries a serial search's last terminal tableau to its next solve
// (DESIGN.md, "Live-tableau dives"). A solve given the handle dives when it
// solves the same Problem, its WarmStart is the Basis captured with the
// held tableau and its bounds keep the form's shape: it moves the tableau
// onto the new bounds in place, skipping the rebuild and the install.
// Otherwise it releases the held form and solves as without the handle.
// Either way an optimal solve that captures its basis leaves its terminal
// form in the handle. Between solves through one handle only bounds may
// change. A Dive is not safe for concurrent use; it holds one slab until
// Release.
type Dive struct {
	p     *Problem
	s     *stdForm
	basis *Basis
}

// Release hands the held form back to the slab free list. The handle
// stays usable; releasing an empty or nil handle is a no-op.
func (d *Dive) Release() {
	if d != nil {
		d.s.release()
		d.p, d.s, d.basis = nil, nil, nil
	}
}

// take empties the handle and returns its form moved onto the bounds of
// opts when the solve of p can dive on it, else releases the form and
// returns nil.
func (d *Dive) take(p *Problem, opts SolveOptions) *stdForm {
	if d == nil || d.s == nil {
		return nil
	}
	s, ok := d.s, d.p == p && d.basis == opts.WarmStart
	d.p, d.s, d.basis = nil, nil, nil
	if ok {
		start := time.Now() //gapvet:allow walltime build time attribution; observed into an obs histogram, never read by the solve
		ok = s.rebound(p, opts.BoundOverride)
		lpBuildSeconds.ObserveDuration(time.Since(start)) //gapvet:allow walltime build time attribution; observed into an obs histogram, never read by the solve
	}
	if !ok {
		s.release()
		return nil
	}
	return s
}

// rebound moves a terminal tableau of p onto the bounds of override. layout
// recomputes the pristine right-hand side, shifts and shape with
// buildStandard's code, and costs the objective constant. The matrix, its
// snapshot and the costs stay, as a form of the same shape shares them, and
// moveB carries the tableau's b along. It reports false, leaving the form
// fit only for release, when the shape or the costs differ.
func (s *stdForm) rebound(p *Problem, override map[VarID][2]float64) bool {
	sl, shape := s.slab, s.shape
	if _, err := s.layout(p, override); err != nil || s.shape != shape {
		return false
	}
	sl.xs = resize(sl.xs, s.n)
	if s.objConst = s.costs(p, sl.xs); !slices.Equal(sl.xs, s.c) {
		return false
	}
	s.moveB(sl.rhs)
	return true
}

// moveB moves the tableau's right-hand side onto the pristine one rhs: b
// gains B⁻¹Δb, Δb = rhs - pB, read off the row-unit columns, each ±B⁻¹eᵢ as
// certifies reads them, and pB becomes rhs.
//
//gapvet:hotpath once per dive; it walks one tableau column per changed row
func (s *stdForm) moveB(rhs []float64) {
	pB := s.slab.ext.pB
	for i, v := range rhs {
		if v == pB[i] { //gapvet:allow floateq an unchanged right-hand side moves nothing
			continue
		}
		u, f := s.rowUnit[i], (v-pB[i])*s.rowUnitSign[i]
		for k, row := range s.a {
			if a := row[u]; a != 0 {
				s.b[k] += f * a
			}
		}
	}
	copy(pB, rhs)
}

// newTableau prepares the mutable solver state for a standard form on its
// slab: iteration budget, deadline, the blocked set (columns pinned by
// fixing overrides may never enter a basis), and the pivot-row scratch. No
// column is marked basic; the basis keeps what a dive reads.
func newTableau(s *stdForm, opts SolveOptions) *tableau {
	t := &s.slab.tab
	*t = tableau{s: s, deadline: opts.Deadline, ctx: opts.Ctx, max: opts.MaxIters,
		basis: resize(t.basis, s.m), inBasis: resize(t.inBasis, s.n), blocked: resize(t.blocked, s.n),
		nz: resize(t.nz, s.n), r: resize(t.r, s.n), rw: resize(t.rw, s.n)}
	if t.max <= 0 {
		t.max = 2000 + 60*(s.m+s.n)
	}
	clear(t.inBasis)
	clear(t.blocked)
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
		for _, j := range s.slab.occupied(i) {
			if j >= s.nStruct && j < s.artFrom && s.a[i][j] == 1 && !t.inBasis[j] {
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
		// Find the singleton structural columns: rowOf[j] is the row of
		// column j's one nonzero, -1 while none is seen, -2 after a second.
		s.slab.crash = resize(s.slab.crash, s.nStruct)
		rowOf := s.slab.crash
		for j := range rowOf {
			rowOf[j] = -1
		}
		for i := 0; i < s.m; i++ {
			row := s.a[i]
			for _, j := range s.slab.occupied(i) {
				if j >= s.nStruct || row[j] == 0 {
					continue
				}
				if rowOf[j] == -1 {
					rowOf[j] = i
				} else {
					rowOf[j] = -2
				}
			}
		}
		for j, i := range rowOf {
			if i < 0 || t.basis[i] != -1 || s.a[i][j] <= pivotTol || t.blocked[j] {
				continue
			}
			// The column is zero outside row i, so pivoting on it only
			// rescales row i.
			s.pivoted = true
			_, inv := t.scaleRow(i, j)
			s.b[i] *= inv
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
		for _, j := range s.slab.occupied(i) {
			if j >= s.artFrom && s.a[i][j] == 1 && !t.inBasis[j] {
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
		phase1 := t.rw // scratch until the tiebreak
		clear(phase1[:s.artFrom])
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
	st := t.optimum()
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
	sol.Dual = make([]float64, len(p.cons), max(len(p.cons), p.answerCap[1]))
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
		sol.Basis = newBasis(t.basis, s.shape)
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
	s.slab.xs = resize(s.slab.xs, s.n)
	xs := s.slab.xs
	clear(xs)
	for i, col := range basis {
		xs[col] = bval[i]
	}
	// Map back to user variables.
	sol.X = make([]float64, len(p.vars), max(len(p.vars), p.answerCap[0]))
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
		for _, j := range s.slab.occupied(i) {
			t.r[j] -= cb * row[j]
		}
	}
	// Basic columns have exactly zero reduced cost by definition.
	for _, col := range t.basis {
		t.r[col] = 0
	}
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
// loop computes. Scaling makes no fill-in, and the bits of entries that
// cancelled to zero are dropped, so the row spreads only its nonzeros.
func (t *tableau) scaleRow(pr, pc int) (nz []int, inv float64) {
	prow, sl := t.s.a[pr], t.s.slab
	inv = 1 / prow[pc]
	k := 0
	for _, j := range sl.occupied(pr) {
		if v := prow[j]; v != 0 {
			prow[j] = v * inv
			t.nz[k] = j
			k++
		} else {
			sl.occ[pr*sl.w+j>>6] &^= 1 << (j & 63)
		}
	}
	prow[pc] = 1
	return t.nz[:k], inv
}

// pivot performs a pivot on (pr, pc), updating rows, rhs, reduced costs,
// objective, and the basis. Elimination runs over the pivot row's nonzeros
// only: O(nnz(pivot row) x nnz(pivot column)) plus an O(m) column scan. It
// returns the pivot row's nonzero columns, as scaleRow does. The loop only
// lists the rows it eliminates; spread updates their occupancy afterwards,
// so the elimination itself carries no occupancy state.
//
//gapvet:hotpath every simplex pivot; the nonzero list lives in presized tableau scratch
func (t *tableau) pivot(pr, pc int) []int {
	s := t.s
	s.pivoted = true
	nz, inv := t.scaleRow(pr, pc)
	prow, elim, k := s.a[pr], s.slab.elim, 0
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
		elim[k] = int32(i)
		k++
		s.b[i] -= f * s.b[pr]
		if s.b[i] < 0 && s.b[i] > -feasTol {
			s.b[i] = 0
		}
	}
	s.slab.spread(pr, pc, elim[:k])
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
	return nz
}

// optimum runs the primal simplex and, at optimality, the tiebreak, which
// it times into lp_tiebreak_seconds.
func (t *tableau) optimum() Status {
	if st := t.run(); st != StatusOptimal {
		return st
	}
	start := time.Now() //gapvet:allow walltime tiebreak time attribution; observed into an obs histogram, never read by the solve
	st := t.tiebreak()
	lpTiebreakSeconds.ObserveDuration(time.Since(start)) //gapvet:allow walltime tiebreak time attribution; observed into an obs histogram, never read by the solve
	return st
}

// tiebreakWeight returns the fixed secondary weight of column j: a generic
// positive value in [1, 2) derived from the column index alone (splitmix64
// finalizer), so every solve of every problem uses the same weights. The
// genericity is what makes the weight-minimal vertex of an optimal face
// unique in practice.
func tiebreakWeight(j int) float64 {
	return 1 + float64(splitmix64((uint64(j)+1)*0x9E3779B97F4A7C15)>>11)/(1<<53)
}

// splitmix64 is the splitmix64 finalizer, a bijection of 64-bit words in
// which every input bit moves every output bit.
func splitmix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ z>>31
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
		for _, j := range s.slab.occupied(i) {
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
		nz := t.pivot(pr, pc)
		t.iters++
		prow := s.a[pr]
		for _, j := range nz {
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
func (p *Problem) solveWarm(s *stdForm, opts SolveOptions, dived bool) *Solution {
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
	if dived {
		// The held tableau is already factorized on this basis.
		for _, j := range t.basis {
			t.inBasis[j] = true
		}
	} else {
		start := time.Now() //gapvet:allow walltime install time attribution; observed into an obs histogram, never read by the solve
		ok := t.install(opts.WarmStart.cols)
		lpInstallSeconds.ObserveDuration(time.Since(start)) //gapvet:allow walltime install time attribution; observed into an obs histogram, never read by the solve
		if !ok {
			return nil
		}
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
	dualStart := time.Now() //gapvet:allow walltime dual-repair time attribution; observed into an obs histogram, never read by the solve
	st := t.runDual()
	lpDualRepairSeconds.ObserveDuration(time.Since(dualStart)) //gapvet:allow walltime dual-repair time attribution; observed into an obs histogram, never read by the solve
	switch st {
	case statusWarmAbort, StatusIterLimit:
		// Dual cycling, a refused certificate or the iteration cap: the cold
		// path answers, capped exactly as the cold solver would be.
		return nil
	case StatusInfeasible, StatusDeadline, StatusInterrupted:
		// An infeasible node is observed through its status alone (nil X and
		// Dual), and certifies made its verdict the cold phase 1's.
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
	st = t.optimum()
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
// rows where column pc is nonzero: an eta's multiplier rows. Each of them
// takes on the pivot row's occupancy, so an install keeps its rows sparse.
// The eta file describes the pristine form, so gauss on a pivoted form is a
// programming error.
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
	s.slab.spread(pr, pc, rows)
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
		for _, j := range s.slab.occupied(pr) {
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
			// certificate, as far as the drifted tableau can tell.
			if t.certifies(pr, up) {
				return StatusInfeasible
			}
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

// certifies re-checks the dual repair's certificate on the pristine form,
// never trusting the drifted tableau row: y, row pr of B⁻¹ read off the
// row-unit columns (negated in the "up" case), proves infeasibility when
// yᵀA₀ⱼ >= -pivotTol on every unblocked column j and yᵀb₀ < -feasTol·
// max(1, maxᵢ|yᵢ|), as every feasible x >= 0 has yᵀb₀ = Σ yᵀA₀ⱼ·xⱼ. Scaled
// into |yᵢ| <= 1, y is a dual of the cold phase 1 that bounds its residual
// above feasTol, so both paths agree even when B⁻¹ has large entries.
//
//gapvet:hotpath once per dual repair that finds a row no column repairs; y lives in presized tableau scratch
func (t *tableau) certifies(pr int, up bool) bool {
	s, ext := t.s, &t.s.slab.ext
	sign := 1.0
	if up {
		sign = -1
	}
	y, yb, ymax := t.rw[:s.m], 0.0, 1.0
	for i := range y {
		y[i] = sign * s.a[pr][s.rowUnit[i]] * s.rowUnitSign[i]
		yb += y[i] * ext.pB[i]
		ymax = math.Max(ymax, math.Abs(y[i]))
	}
	if yb >= -feasTol*ymax {
		return false
	}
	for j := 0; j < s.n; j++ {
		if t.blocked[j] {
			continue
		}
		d := 0.0
		for p := ext.pCol[j]; p < ext.pCol[j+1]; p++ {
			d += y[ext.pRow[p]] * ext.pVal[p]
		}
		if d < -pivotTol {
			return false
		}
	}
	return true
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
