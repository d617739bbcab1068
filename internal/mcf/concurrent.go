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
// ErrInfeasible when the pinned flows oversubscribe a link. Callers that
// price many volume vectors on one instance hold a Pricer.
func SolveDemandPinningConcurrent(inst *Instance, threshold float64) (*Flow, float64, error) {
	return NewPricer(inst).DemandPinningConcurrent(inst.Demands.Volumes(), threshold)
}

// DemandPinningConcurrent is SolveDemandPinningConcurrent at the given
// volumes; a threshold of -Inf pins nothing (SolveMaxConcurrent). It panics
// on a vector WithVolumes would refuse.
func (pc *Pricer) DemandPinningConcurrent(vols []float64, threshold float64) (*Flow, float64, error) {
	out, residual, err := pc.pin(vols, threshold)
	if err != nil {
		return nil, 0, err
	}
	if !anyAbove(vols, math.Max(threshold, 0)) {
		return out, 1, nil
	}
	sc := pc.concurrentLP(vols, threshold, residual)
	defer pc.putScratch(sc)
	sol, err := sc.p.SolveWith(oneShotOpts())
	if err != nil {
		return nil, 0, err
	}
	if sol.Status != lp.StatusOptimal {
		return nil, 0, fmt.Errorf("mcf: concurrent LP %v", sol.Status)
	}
	pc.addFlows(out, sc.varOf, sol.X)
	return out, sol.X[0], nil // variable 0 is lambda
}

// concurrentLP assembles the concurrent LP over the demands with a
// positive volume above the threshold: lambda, then per such demand k its
// path variables "f<k>.<p>", a "dem<k>" row (flow >= lambda * d_k) and a
// "vol<k>" row (flow <= d_k), then the "cap<e>" rows of the edges they
// cross over the residual capacities. It assembles on scratch the caller
// puts back; varOf is as in flowLP.
func (pc *Pricer) concurrentLP(vols []float64, threshold float64, residual []float64) *lpScratch {
	sc := pc.takeScratch()
	sc.reset("concurrent", len(pc.varName), pc.nnz+len(pc.first)+len(pc.varName))
	p, varOf, terms := sc.p, sc.varOf, sc.terms
	p.Grow(1+len(pc.varName), 2*len(pc.first)+len(pc.crosses)) // at most lambda, every path, two rows per demand, every edge
	lam := p.AddVar("lambda", 0, 1)
	p.SetObj(lam, 1)
	cut := math.Max(threshold, 0)
	for k, ps := range pc.inst.Paths {
		free := vols[k] > cut
		dem := len(terms)
		if free {
			terms = append(terms, lp.Term{Var: lam, Coef: -vols[k]})
		}
		for pi := range ps {
			j := pc.first[k] + pi
			varOf[j] = -1
			if free {
				varOf[j] = p.AddVar(pc.varName[j], 0, lp.Inf)
				terms = append(terms, lp.Term{Var: varOf[j], Coef: 1})
			}
		}
		if free {
			vol := len(terms)
			terms = append(terms, terms[dem+1:vol]...)
			p.AddConstraint(pc.demName[k], lp.Expr{Terms: terms[dem:vol:vol]}, lp.GE, 0)
			p.AddConstraint(pc.volName[k], lp.Expr{Terms: terms[vol:len(terms):len(terms)]}, lp.LE, vols[k])
		}
	}
	pc.addCapRows(p, terms, varOf, residual, false)
	return sc
}
