package mcf

import (
	"fmt"
	"math"

	"repro/internal/lp"
)

// Max-concurrent-flow objective: maximize the fraction lambda such that
// every demand simultaneously receives at least lambda of its volume. This
// is the classic fairness-flavored TE objective the paper's Section 2 lists
// alongside total flow ("max-min fairness") — included to show the library
// generalizes across inner objectives.
//
// Note: the gap finder's white-box rewrite needs inner constraint
// coefficients that are constant with respect to the outer variables; the
// concurrent objective's rows couple lambda with the demand volumes
// (lambda * d_k), so adversarial inputs against it are searched with the
// black-box methods (blackbox.GapFunc composes directly).

// SolveMaxConcurrent maximizes lambda subject to each demand k receiving
// flow >= lambda * d_k within capacities. Demands with zero volume are
// ignored. Returns the flow at the optimal lambda and lambda itself;
// lambda is capped at 1 (serving more than the demand has no value). It is
// Demand Pinning with a threshold nothing falls below: no demand is pinned
// and the residual capacities are the capacities themselves.
func SolveMaxConcurrent(inst *Instance) (*Flow, float64, error) {
	return SolveDemandPinningConcurrent(inst, math.Inf(-1))
}

// SolveDemandPinningConcurrent runs DP with the concurrent objective:
// demands at or below the threshold are pinned to their shortest paths
// (their lambda is therefore 1 if they fit), and the remaining demands
// maximize the common fraction lambda on the residual capacities. Returns
// ErrInfeasible when the pinned flows oversubscribe a link.
func SolveDemandPinningConcurrent(inst *Instance, threshold float64) (*Flow, float64, error) {
	residual, ok := residualAfterPinning(inst, inst.Demands.Volumes(), threshold)
	if !ok {
		return nil, 0, fmt.Errorf("%w: pinned demands oversubscribe a link", ErrInfeasible)
	}
	out := newFlow(inst)
	vols := inst.Demands.Volumes()
	pinned := Pinned(inst, threshold)
	anyFree := false
	for k, isPinned := range pinned {
		if isPinned {
			out.add(k, 0, vols[k])
		} else if vols[k] > 0 {
			anyFree = true
		}
	}
	if !anyFree {
		return out, 1, nil
	}

	p := lp.NewProblem("concurrent", lp.Maximize)
	lam := p.AddVar("lambda", 0, 1)
	p.SetObj(lam, 1)
	varOf := make(map[[2]int]lp.VarID)
	for k, ps := range inst.Paths {
		if pinned[k] || vols[k] == 0 {
			continue
		}
		e := lp.NewExpr().Add(lam, -vols[k])
		cap := lp.NewExpr()
		for pi := range ps {
			v := p.AddVar(fmt.Sprintf("f%d.%d", k, pi), 0, lp.Inf)
			varOf[[2]int{k, pi}] = v
			e = e.Add(v, 1)
			cap = cap.Add(v, 1)
		}
		p.AddConstraint(fmt.Sprintf("dem%d", k), e, lp.GE, 0)
		p.AddConstraint(fmt.Sprintf("vol%d", k), cap, lp.LE, vols[k])
	}
	for e := 0; e < inst.G.NumEdges(); e++ {
		expr := lp.NewExpr()
		for k, ps := range inst.Paths {
			if pinned[k] || vols[k] == 0 {
				continue
			}
			for pi, path := range ps {
				if path.Contains(e) {
					expr = expr.Add(varOf[[2]int{k, pi}], 1)
				}
			}
		}
		if len(expr.Terms) > 0 {
			p.AddConstraint(fmt.Sprintf("cap%d", e), expr, lp.LE, residual[e])
		}
	}
	sol, err := p.SolveWith(oneShotOpts())
	if err != nil {
		return nil, 0, err
	}
	if sol.Status != lp.StatusOptimal {
		return nil, 0, fmt.Errorf("mcf: concurrent LP %v", sol.Status)
	}
	for k, ps := range inst.Paths {
		if pinned[k] || vols[k] == 0 {
			continue
		}
		for pi := range ps {
			out.add(k, pi, sol.X[varOf[[2]int{k, pi}]])
		}
	}
	return out, sol.X[lam], nil
}
