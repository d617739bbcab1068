package lp

// The sparse revised simplex engine. It solves the exact same standard form
// as the dense tableau (internal/lp/simplex.go) with the exact same pivot
// rules — Dantzig pricing with Bland fallback after the same stall
// threshold, the same ratio-test tie window and tie-breaks, the same
// right-hand-side snapping, the same phase structure, iteration budget, and
// deadline/ctx polling cadence — but instead of transforming an m×n tableau
// on every pivot (O(m·n)) it keeps the basis LU-factorized and reconstructs
// only what a pivot decision needs: the entering column representation
// d = B⁻¹·A_pc (one FTRAN), the pivot row α = e_prᵀ·B⁻¹·A (one BTRAN plus a
// pass over A's nonzeros), and incremental updates to the reduced costs and
// basic values. Basis changes accumulate in a product-form eta file that is
// periodically collapsed by refactorization.
//
// The dense tableau remains the reference engine. Answers (status,
// objective, X, duals) agree by construction: both engines stop on the same
// canonical vertex (the tiebreak phase) and extract the answer through the
// shared finishTerm. Pivot-for-pivot agreement is not guaranteed in exact
// float semantics — the two arithmetics round differently — but the shared
// rules and tolerances make the pivot sequences match in practice, which the
// differential tests and the hard benchmark gates verify on every fixture.
// On an unrecoverable numerical failure (a basis the LU cannot factorize)
// the dispatcher transparently re-solves with the dense engine.

import (
	"context"
	"math"
	"time"
)

// etaLimit caps the product-form eta file; reaching it triggers a
// refactorization of the current basis. 64 keeps FTRAN/BTRAN cost bounded
// while amortizing the factorization over many pivots.
const etaLimit = 64

// sparseSolver carries the mutable revised-simplex state. Field names mirror
// the dense tableau where the meaning is identical.
type sparseSolver struct {
	s  *stdForm
	a  *cscMatrix
	lu luFactor

	basis   []int     // basic column per position (== dense tableau row)
	inBasis []bool    // column -> basic?
	blocked []bool    // columns forbidden from entering
	xB      []float64 // basic values per position (== dense s.b)
	r       []float64 // reduced costs for the current phase
	obj     float64   // current phase objective value

	iters     int
	phase1    int
	degen     int
	max       int
	refactors int  // factorizations forced by eta-file growth
	failed    bool // latched on any numerical failure; caller falls back

	deadline time.Time
	ctx      context.Context // nil means uncancellable

	pricing Pricing
	gamma   []float64 // devex reference weights (PricingDevex only)

	// Scratch buffers. rowBuf and posBuf are kept all-zero between uses
	// (ftran/btran restore their input buffers).
	rowBuf []float64 // m, row space
	posBuf []float64 // m, position space
	d      []float64 // m, entering column representation B⁻¹A_pc
	rho    []float64 // m, BTRAN output (row space)
	alpha  []float64 // n, pivot row e_prᵀB⁻¹A
}

func newSparseSolver(s *stdForm, opts SolveOptions) *sparseSolver {
	sp := &sparseSolver{s: s, a: buildCSC(s), deadline: opts.Deadline, ctx: opts.Ctx}
	sp.max = opts.MaxIters
	if sp.max <= 0 {
		sp.max = 2000 + 60*(s.m+s.n)
	}
	sp.pricing = opts.Pricing
	sp.basis = make([]int, s.m)
	sp.inBasis = make([]bool, s.n)
	sp.blocked = make([]bool, s.n)
	for _, j := range s.fixed {
		sp.blocked[j] = true
	}
	sp.xB = make([]float64, s.m)
	sp.rowBuf = make([]float64, s.m)
	sp.posBuf = make([]float64, s.m)
	sp.d = make([]float64, s.m)
	sp.rho = make([]float64, s.m)
	sp.alpha = make([]float64, s.n)
	return sp
}

// interrupted polls the solve's context on the same iteration cadence as the
// deadline check, exactly like the dense engine.
func (sp *sparseSolver) interrupted() bool {
	return sp.ctx != nil && sp.iters%128 == 0 && sp.ctx.Err() != nil
}

func (sp *sparseSolver) term() termState {
	return termState{s: sp.s, basis: sp.basis, bval: sp.xB, r: sp.r, obj: sp.obj,
		iters: sp.iters, phase1: sp.phase1, degen: sp.degen}
}

// factorize (re)builds the LU of the current basis, position order. On
// failure the failed latch sends the whole solve to the dense engine.
func (sp *sparseSolver) factorize() bool {
	if !sp.lu.factorize(sp.a, sp.basis) {
		sp.failed = true
		return false
	}
	return true
}

// computeXB sets the basic values to B⁻¹b from the pristine right-hand side.
//
//gapvet:hotpath runs after every refactorization
func (sp *sparseSolver) computeXB() {
	copy(sp.rowBuf, sp.s.b)
	sp.lu.ftran(sp.rowBuf, sp.xB)
}

// ftranCol computes d = B⁻¹·A_j into sp.d.
//
//gapvet:hotpath one per pivot
func (sp *sparseSolver) ftranCol(j int) {
	sp.a.scatter(j, sp.rowBuf)
	sp.lu.ftran(sp.rowBuf, sp.d)
}

// btranRow computes the pivot row of position pr: ρ = B⁻ᵀe_pr into sp.rho
// and α_j = ρᵀA_j for every column into sp.alpha.
//
//gapvet:hotpath one per pivot
func (sp *sparseSolver) btranRow(pr int) {
	sp.posBuf[pr] = 1
	sp.lu.btran(sp.posBuf, sp.rho)
	for j := 0; j < sp.s.n; j++ {
		sp.alpha[j] = sp.a.dot(j, sp.rho)
	}
}

// resetCosts installs a cost vector and recomputes reduced costs and the
// objective for the current basis: y = BTRAN(c_B), r = c − yᵀA. The dense
// engine computes the same quantities by accumulating its transformed rows.
func (sp *sparseSolver) resetCosts(c []float64) {
	s := sp.s
	if sp.r == nil {
		sp.r = make([]float64, s.n)
	}
	sp.obj = 0
	for i, col := range sp.basis {
		sp.posBuf[i] = c[col]
		sp.obj += c[col] * sp.xB[i]
	}
	sp.lu.btran(sp.posBuf, sp.rho)
	for j := 0; j < s.n; j++ {
		sp.r[j] = c[j] - sp.a.dot(j, sp.rho)
	}
	// Basic columns have exactly zero reduced cost by definition.
	for _, col := range sp.basis {
		sp.r[col] = 0
	}
	if sp.pricing == PricingDevex {
		sp.devexReset()
	}
}

// pivotApply performs the state update of a pivot at (pr, pc), given the
// entering representation sp.d and the pivot row sp.alpha (both already
// computed). It mirrors tableau.pivot line for line: rescale and snap the
// leaving position, update and snap the other basic values, update the
// reduced costs from the (scaled) pivot row, move the objective by the
// entering reduced cost times the entering value, and swap the basis. The
// basis change is absorbed into the eta file, refactorizing when full.
// Returns the leaving column and 1/pivot for callers that maintain a
// secondary cost row (tiebreak).
//
//gapvet:hotpath the per-pivot state update; allocation here is the ns/pivot budget's whole margin
func (sp *sparseSolver) pivotApply(pr, pc int) (leaving int, invPiv float64) {
	s := sp.s
	piv := sp.d[pr]
	if !(piv > pivotTol || piv < -pivotTol) { // also catches NaN
		sp.failed = true
		return sp.basis[pr], 0
	}
	invPiv = 1 / piv
	sp.xB[pr] *= invPiv
	if sp.xB[pr] < 0 && sp.xB[pr] > -feasTol {
		sp.xB[pr] = 0
	}
	for i := range sp.xB {
		if i == pr {
			continue
		}
		di := sp.d[i]
		if di == 0 {
			continue
		}
		sp.xB[i] -= di * sp.xB[pr]
		if sp.xB[i] < 0 && sp.xB[i] > -feasTol {
			sp.xB[i] = 0
		}
	}
	leaving = sp.basis[pr]
	if f := sp.r[pc]; f != 0 {
		scale := f * invPiv
		for j := 0; j < s.n; j++ {
			if aj := sp.alpha[j]; aj != 0 {
				sp.r[j] -= scale * aj
			}
		}
		// The dense tableau's pivot row holds an exact 1 in the leaving
		// column and exact 0s in the other basic columns; pin the same
		// values here instead of trusting α's rounding.
		for _, col := range sp.basis {
			sp.r[col] = 0
		}
		sp.r[leaving] = -scale
		sp.r[pc] = 0
		sp.obj += f * sp.xB[pr]
	}
	if sp.pricing == PricingDevex {
		sp.devexUpdate(pr, pc, invPiv)
	}
	sp.lu.appendEta(pr, sp.d)
	sp.inBasis[leaving] = false
	sp.basis[pr] = pc
	sp.inBasis[pc] = true
	sp.r[pc] = 0
	if len(sp.lu.etas) >= etaLimit {
		sp.refactors++
		sp.factorize()
	}
	return leaving, invPiv
}

// run iterates primal pivots until optimality, unboundedness, or a budget —
// the sparse twin of tableau.run.
func (sp *sparseSolver) run() Status {
	s := sp.s
	stall := 0
	for {
		if sp.failed {
			return StatusIterLimit // caller checks the latch before the status
		}
		if sp.iters >= sp.max {
			return StatusIterLimit
		}
		if !sp.deadline.IsZero() && sp.iters%128 == 0 && time.Now().After(sp.deadline) {
			return StatusDeadline
		}
		if sp.interrupted() {
			return StatusInterrupted
		}
		bland := stall > 2*(s.m+8)
		pc := sp.price(bland)
		if pc == -1 {
			return StatusOptimal
		}
		sp.ftranCol(pc)
		pr := sp.ratio()
		if pr == -1 {
			return StatusUnbounded
		}
		sp.btranRow(pr)
		before := sp.obj
		sp.pivotApply(pr, pc)
		sp.iters++
		if sp.obj < before-optTol {
			stall = 0
		} else {
			stall++
			sp.degen++
		}
	}
}

// price selects the entering column, or -1 at optimality. The Dantzig path
// is byte-identical to the dense rule; devex is the opt-in alternative.
//
//gapvet:hotpath full column scan once per pivot
func (sp *sparseSolver) price(bland bool) int {
	if sp.pricing == PricingDevex && !bland {
		return sp.priceDevex()
	}
	best, bestVal := -1, 0.0
	for j := 0; j < sp.s.n; j++ {
		if sp.inBasis[j] || sp.blocked[j] {
			continue
		}
		r := sp.r[j]
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

// ratio selects the leaving position for the entering column held in sp.d,
// or -1 if unbounded. Identical rule and tie-breaks to tableau.ratio —
// positions are dense tableau rows, so even the scan order matches.
//
//gapvet:hotpath full row scan once per pivot
func (sp *sparseSolver) ratio() int {
	s := sp.s
	best := -1
	bestRatio := math.Inf(1)
	for i := 0; i < s.m; i++ {
		aij := sp.d[i]
		if aij <= pivotTol {
			continue
		}
		ratio := sp.xB[i] / aij
		switch {
		case ratio < bestRatio-feasTol:
			best, bestRatio = i, ratio
		case ratio <= bestRatio+feasTol:
			bi, bb := sp.basis[i], sp.basis[best]
			iArt, bArt := bi >= s.artFrom, bb >= s.artFrom
			if iArt && !bArt || (iArt == bArt && bi < bb) {
				best = i
				if ratio < bestRatio {
					bestRatio = ratio
				}
			}
		}
	}
	return best
}

// tiebreak drives an optimal solver state to the canonical vertex of its
// optimal face, mirroring tableau.tiebreak: entering restricted to the
// optimal face (r <= optTol), steered by the fixed secondary weights.
func (sp *sparseSolver) tiebreak() Status {
	s := sp.s
	sp.resetCosts(s.c)
	rw := make([]float64, s.n)
	for i, col := range sp.basis {
		sp.posBuf[i] = tiebreakWeight(col)
	}
	sp.lu.btran(sp.posBuf, sp.rho)
	for j := 0; j < s.n; j++ {
		rw[j] = tiebreakWeight(j) - sp.a.dot(j, sp.rho)
	}
	for _, col := range sp.basis {
		rw[col] = 0
	}
	stall := 0
	for {
		if sp.failed {
			return StatusIterLimit
		}
		if sp.iters >= sp.max {
			return StatusIterLimit
		}
		if !sp.deadline.IsZero() && sp.iters%128 == 0 && time.Now().After(sp.deadline) {
			return StatusDeadline
		}
		if sp.interrupted() {
			return StatusInterrupted
		}
		bland := stall > 2*(s.m+8)
		pc, bestVal := -1, 0.0
		for j := 0; j < s.n; j++ {
			if sp.inBasis[j] || sp.blocked[j] || sp.r[j] > optTol || rw[j] >= -optTol {
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
		sp.ftranCol(pc)
		pr := sp.ratio()
		if pr == -1 {
			// A weight-decreasing ray cannot exist (positive weights):
			// numerical noise. Stop here, exactly like the dense path.
			return StatusOptimal
		}
		sp.btranRow(pr)
		f := rw[pc]
		leaving, invPiv := sp.pivotApply(pr, pc)
		sp.iters++
		if sp.failed {
			return StatusIterLimit
		}
		scale := f * invPiv
		for j := 0; j < s.n; j++ {
			if aj := sp.alpha[j]; aj != 0 {
				rw[j] -= scale * aj
			}
		}
		rw[leaving] = -scale
		rw[pc] = 0
		for _, col := range sp.basis {
			rw[col] = 0
		}
		if sp.xB[pr] > feasTol {
			stall = 0
		} else {
			stall++
			sp.degen++
		}
	}
}

// runDual is the sparse twin of tableau.runDual: repair primal feasibility
// while keeping dual feasibility, handling both the classic negative-value
// case and the blocked-basic "up" case. Row and column selections replicate
// the dense rules over the same position ordering.
func (sp *sparseSolver) runDual() Status {
	s := sp.s
	stall := 0
	for {
		if sp.failed {
			return statusWarmAbort
		}
		if sp.iters >= sp.max {
			return StatusIterLimit
		}
		if !sp.deadline.IsZero() && sp.iters%128 == 0 && time.Now().After(sp.deadline) {
			return StatusDeadline
		}
		if sp.interrupted() {
			return StatusInterrupted
		}
		pr, viol, up := -1, 0.0, false
		for i := 0; i < s.m; i++ {
			var v float64
			var u bool
			switch {
			case sp.xB[i] < -feasTol:
				v, u = -sp.xB[i], false
			case sp.xB[i] > feasTol && sp.blocked[sp.basis[i]]:
				v, u = sp.xB[i], true
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
		dir := 1.0
		if up {
			dir = -1
		}
		sp.btranRow(pr)
		pc, bestRatio := -1, math.Inf(1)
		for j := 0; j < s.n; j++ {
			if sp.inBasis[j] || sp.blocked[j] {
				continue
			}
			dj := dir * sp.alpha[j]
			if dj > -pivotTol {
				continue
			}
			if ratio := sp.r[j] / -dj; pc == -1 || ratio < bestRatio-tieTol {
				pc, bestRatio = j, ratio
			}
		}
		if pc == -1 {
			return statusWarmAbort
		}
		sp.ftranCol(pc)
		before := sp.obj
		sp.pivotApply(pr, pc)
		sp.iters++
		diff := sp.obj - before
		if diff < 0 {
			diff = -diff
		}
		if diff <= optTol {
			sp.degen++
			stall++
		} else {
			stall = 0
		}
		if stall > 4*(s.m+s.n) {
			return statusWarmAbort
		}
	}
}

// evictBlocked pivots blocked columns still basic (at ~zero) out of the
// basis, the sparse twin of tableau.evictBlocked.
func (sp *sparseSolver) evictBlocked() int {
	s := sp.s
	evicted := 0
	for i := 0; i < s.m; i++ {
		if sp.failed {
			return evicted
		}
		if !sp.blocked[sp.basis[i]] {
			continue
		}
		sp.btranRow(i)
		for j := 0; j < s.n; j++ {
			if sp.inBasis[j] || sp.blocked[j] {
				continue
			}
			aij := sp.alpha[j]
			if aij < 0 {
				aij = -aij
			}
			if aij <= pivotTol {
				continue
			}
			sp.ftranCol(j)
			sp.pivotApply(i, j)
			sp.iters++
			sp.degen++
			evicted++
			break
		}
	}
	return evicted
}

// crash builds the initial basis with exactly the dense engine's choices:
// each row's +1 slack when it has one, then singleton structural columns
// (the KKT rewrites' explicit slack variables), artificials last. Unlike the
// dense path there is no tableau to rescale — the LU absorbs the pivots —
// so the scans read the pristine CSC data, which is the same matrix the
// dense scans see (its crash pivots only touch rows already assigned).
// Reports whether any artificial entered the basis; a false second return
// means a row could not be covered at all (numerical failure).
func (sp *sparseSolver) crash() (hasArt, ok bool) {
	s := sp.s
	for i := range sp.basis {
		sp.basis[i] = -1
	}
	// Slacks: columns in [nStruct, artFrom) hold one entry each (+1 for LE
	// slacks, -1 for GE surplus); a +1 claims its row.
	for j := s.nStruct; j < s.artFrom; j++ {
		p, q := sp.a.colPtr[j], sp.a.colPtr[j+1]
		if q-p != 1 || sp.a.val[p] != 1 {
			continue
		}
		i := int(sp.a.rowIdx[p])
		if sp.basis[i] == -1 {
			sp.basis[i] = j
			sp.inBasis[j] = true
		}
	}
	// Crash pivots on singleton structural columns.
	needCrash := false
	for i := 0; i < s.m; i++ {
		if sp.basis[i] == -1 {
			needCrash = true
		}
	}
	if needCrash {
		for j := 0; j < s.nStruct; j++ {
			p, q := sp.a.colPtr[j], sp.a.colPtr[j+1]
			if q-p != 1 {
				continue
			}
			i := int(sp.a.rowIdx[p])
			if sp.basis[i] != -1 || sp.a.val[p] <= pivotTol || sp.blocked[j] {
				continue
			}
			sp.basis[i] = j
			sp.inBasis[j] = true
		}
	}
	for i := 0; i < s.m; i++ {
		if sp.basis[i] != -1 {
			continue
		}
		col := -1
		for j := s.artFrom; j < s.n; j++ {
			p, q := sp.a.colPtr[j], sp.a.colPtr[j+1]
			if q-p == 1 && sp.a.val[p] == 1 && int(sp.a.rowIdx[p]) == i && !sp.inBasis[j] {
				col = j
				break
			}
		}
		if col == -1 {
			return hasArt, false
		}
		hasArt = true
		sp.basis[i] = col
		sp.inBasis[col] = true
	}
	return hasArt, true
}

// driveOutArtificials mirrors the dense phase-1 epilogue: every artificial
// still basic after a feasible phase 1 is pivoted out onto the first usable
// non-artificial column; a row with none is redundant and keeps its
// artificial at zero. Drive-out pivots are refactorization, not search, so
// they do not count toward Iterations — same as the dense path.
func (sp *sparseSolver) driveOutArtificials() {
	s := sp.s
	for i := 0; i < s.m; i++ {
		if sp.failed {
			return
		}
		if sp.basis[i] < s.artFrom {
			continue
		}
		sp.btranRow(i)
		for j := 0; j < s.artFrom; j++ {
			if sp.inBasis[j] || sp.blocked[j] {
				continue
			}
			aij := sp.alpha[j]
			if aij < 0 {
				aij = -aij
			}
			if aij <= pivotTol {
				continue
			}
			sp.ftranCol(j)
			sp.pivotApply(i, j)
			break
		}
	}
}

// sparseCold runs the canonical two-phase method on the revised simplex —
// the sparse twin of solveCold, phase for phase, including the per-phase
// time and pivot attribution.
func (p *Problem) sparseCold(s *stdForm, opts SolveOptions) (*Solution, error) {
	sp := newSparseSolver(s, opts)
	hasArt, ok := sp.crash()
	if !ok || !sp.factorize() {
		return nil, errNumerics
	}
	sp.computeXB()

	if hasArt {
		phase1 := make([]float64, s.n)
		for j := s.artFrom; j < s.n; j++ {
			phase1[j] = 1
		}
		sp.resetCosts(phase1)
		p1Start := time.Now() //gapvet:allow walltime phase-1 time attribution; observed into an obs histogram, never read by the solve
		st := sp.run()
		sp.phase1 = sp.iters
		lpPhase1Seconds.ObserveDuration(time.Since(p1Start)) //gapvet:allow walltime phase-1 time attribution; observed into an obs histogram, never read by the solve
		lpPhase1Pivots.Add(int64(sp.phase1))
		if sp.failed {
			return nil, errNumerics
		}
		if st == StatusIterLimit || st == StatusDeadline || st == StatusInterrupted {
			return finishTerm(p, sp.term(), st, opts, EngineSparse), nil
		}
		if st != StatusOptimal || sp.obj > feasTol {
			return finishTerm(p, sp.term(), StatusInfeasible, opts, EngineSparse), nil
		}
		sp.driveOutArtificials()
		if sp.failed {
			return nil, errNumerics
		}
	}
	for j := s.artFrom; j < s.n; j++ {
		sp.blocked[j] = true
	}

	sp.resetCosts(s.c)
	p2Start := time.Now() //gapvet:allow walltime phase-2 time attribution; observed into an obs histogram, never read by the solve
	st := sp.run()
	if st == StatusOptimal {
		st = sp.tiebreak()
	}
	lpPhase2Seconds.ObserveDuration(time.Since(p2Start)) //gapvet:allow walltime phase-2 time attribution; observed into an obs histogram, never read by the solve
	lpPhase2Pivots.Add(int64(sp.iters - sp.phase1))
	if sp.failed {
		return nil, errNumerics
	}
	return finishTerm(p, sp.term(), st, opts, EngineSparse), nil
}

// sparseWarm is the sparse twin of solveWarm: reinstall the parent basis by
// factorization, check dual feasibility, repair primal feasibility with the
// dual method, evict blocked columns, clean up, and walk to the canonical
// vertex. Returns nil whenever the snapshot is unusable; the caller then
// runs the sparse cold path (which, unlike the dense engine, needs no
// rebuild — the revised method never mutates the standard form).
func (p *Problem) sparseWarm(s *stdForm, opts SolveOptions) *Solution {
	sp := newSparseSolver(s, opts)
	repairStart := time.Now() //gapvet:allow walltime warm-repair time attribution; observed into an obs histogram, never read by the solve
	defer func() {
		lpWarmRepairSeconds.ObserveDuration(time.Since(repairStart)) //gapvet:allow walltime warm-repair time attribution; observed into an obs histogram, never read by the solve
		lpWarmRepairPivots.Add(int64(sp.iters))
	}()
	for j := s.artFrom; j < s.n; j++ {
		sp.blocked[j] = true
	}
	// Install: factorizing the snapshot columns in their stored (ascending)
	// order with ascending-scan partial pivoting reproduces the dense
	// install()'s row pairing — both pick the largest-magnitude entry of the
	// same Schur complement. The pairing fixes basis[row]; a second
	// factorization in position order then backs FTRAN/BTRAN.
	cols := make([]int, len(opts.WarmStart.cols))
	for k, c := range opts.WarmStart.cols {
		j := int(c)
		if j < 0 || j >= s.n || sp.inBasis[j] {
			return nil
		}
		sp.inBasis[j] = true
		cols[k] = j
	}
	for _, j := range cols {
		sp.inBasis[j] = false
	}
	if !sp.lu.factorize(sp.a, cols) {
		return nil
	}
	for k, row := range sp.lu.perm {
		sp.basis[row] = cols[k]
		sp.inBasis[cols[k]] = true
	}
	if !sp.factorize() {
		return nil
	}
	sp.computeXB()
	sp.resetCosts(s.c)
	for j := 0; j < s.n; j++ {
		if sp.inBasis[j] || sp.blocked[j] {
			continue
		}
		if sp.r[j] < -warmDualTol {
			return nil
		}
	}
	switch st := sp.runDual(); st {
	case statusWarmAbort, StatusIterLimit:
		return nil
	case StatusDeadline, StatusInterrupted:
		sol := finishTerm(p, sp.term(), st, opts, EngineSparse)
		sol.Warm = true
		return sol
	}
	if sp.failed {
		return nil
	}
	lpWarmEvictPivots.Add(int64(sp.evictBlocked()))
	st := sp.run()
	if st == StatusOptimal {
		st = sp.tiebreak()
	}
	if sp.failed {
		return nil
	}
	switch st {
	case StatusDeadline, StatusInterrupted, StatusOptimal, StatusUnbounded:
		sol := finishTerm(p, sp.term(), st, opts, EngineSparse)
		sol.Warm = true
		return sol
	default:
		return nil
	}
}

// solveSparse is the sparse engine's dispatch, the twin of solveDense. An
// errNumerics return sends the solve to the dense engine (see solveWith);
// warm-start failures stay engine-internal and fall back to the sparse cold
// path, exactly as the dense engine falls back to its own cold path.
func (p *Problem) solveSparse(opts SolveOptions) (*Solution, error) {
	s, err := buildStandard(p, opts.BoundOverride)
	if err != nil {
		return nil, err
	}
	defer s.release()
	if ws := opts.WarmStart; ws != nil {
		if ws.sig == s.sig && len(ws.cols) == s.m {
			if sol := p.sparseWarm(s, opts); sol != nil {
				return sol, nil
			}
		}
		sol, err := p.sparseCold(s, opts)
		if sol != nil {
			sol.WarmFallback = true
		}
		return sol, err
	}
	return p.sparseCold(s, opts)
}
