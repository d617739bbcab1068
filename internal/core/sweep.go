package core

import (
	"fmt"
	"time"

	"repro/internal/milp"
)

// GapAtLeast asks the Z3-style query of Section 3.3: "is there any input
// with gap >= target?", with a fixed per-query timeout. found=true comes
// with the witnessing result. proved=true means the answer is definitive
// (the solver either returned a witness or exhausted the search space);
// with found=false and proved=false the query merely timed out — the
// paper's sweep treats that as "no" and so do the helpers below.
func (pr *DPGapProblem) GapAtLeast(target float64, timeout time.Duration) (found, proved bool, res *Result, err error) {
	opts := milp.Options{
		TimeLimit:  timeout,
		DepthFirst: true,
		Target:     &target,
	}
	r, err := pr.Solve(opts)
	if err != nil {
		return false, false, nil, err
	}
	switch {
	case r.Demands != nil && r.Gap >= target-1e-6:
		return true, true, r, nil
	case r.Solver.Status == milp.StatusOptimal || r.Solver.Status == milp.StatusInfeasible:
		// Search space exhausted below the target.
		return false, true, r, nil
	default:
		return false, false, r, nil
	}
}

// BinarySweepGap brackets the maximum achievable gap in [lo, hi] by binary
// search over GapAtLeast queries — the protocol the paper uses for solvers
// that do not report incremental progress (Section 3.3). A query that times
// out counts as "no" for the bisection, as in the paper, so the search
// moves below its midpoint; but only a proved "no" lowers the returned
// upper, which therefore stays a proved bound on the gap (hi when no query
// was proved). bestFound is the best witnessed gap and witness its result.
// iters bounds the number of queries.
func (pr *DPGapProblem) BinarySweepGap(lo, hi float64, iters int, perQuery time.Duration) (bestFound float64, upper float64, witness *Result, err error) {
	if lo > hi {
		return 0, 0, nil, fmt.Errorf("core: sweep range [%g, %g] invalid", lo, hi)
	}
	bestFound, upper = lo, hi
	top := hi // the bisection's upper end: lowered by every "no"
	for i := 0; i < iters && top-bestFound > 1e-6; i++ {
		mid := (bestFound + top) / 2
		found, proved, r, err := pr.GapAtLeast(mid, perQuery)
		if err != nil {
			return 0, 0, nil, err
		}
		switch {
		case found:
			// The witness may overshoot the midpoint; use its actual gap.
			bestFound = r.Gap
			witness = r
		case proved:
			top, upper = mid, mid
		default:
			top = mid
		}
	}
	return bestFound, upper, witness, nil
}

// SafeThreshold searches for the largest DP threshold in [lo, hi] whose
// worst-case gap over the constrained input space stays at or below eps —
// the Section-5 use case of "identifying realistic constraints on the input
// space with small worst-case optimality gap, then safely use the
// heuristic". It assumes the worst-case gap grows with the threshold
// (Figure 4a's empirical finding) and bisects with GapAtLeast queries. A
// query that times out counts as "no" witness, so the result is proved
// safe only when no query timed out.
func SafeThreshold(inst *DPGapProblem, lo, hi float64, eps float64, iters int, perQuery time.Duration) (float64, error) {
	if lo > hi {
		return 0, fmt.Errorf("core: threshold range [%g, %g] invalid", lo, hi)
	}
	safe := lo
	for i := 0; i < iters && hi-safe > 1e-6; i++ {
		mid := (safe + hi) / 2
		probe := *inst
		probe.Threshold = mid
		found, _, _, err := probe.GapAtLeast(eps+1e-9, perQuery)
		if err != nil {
			return 0, err
		}
		if found {
			hi = mid // some input exceeds eps at this threshold: unsafe
		} else {
			safe = mid
		}
	}
	return safe, nil
}
