package mcf

import (
	"fmt"
	"sync"

	"repro/internal/kkt"
	"repro/internal/lp"
)

// Pricer prices demand vectors on one instance with the direct OPT and
// Demand Pinning solvers. What does not depend on the volumes is built
// once, on first use: the OPT LP, whose calls then only rewrite the demand
// rows' right-hand sides, and the DP phase-2 LP's edge incidence and
// names, from which each call assembles that LP without a map, a name
// format or a path scan. Every LP a call hands the solver is the one
// SolveMaxFlow and SolveDemandPinning built per call before the Pricer
// existed (same variables, rows, term order and names), so every answer
// is bitwise the same. A Pricer is immutable once built and safe for
// concurrent use. It is bound to its instance's graph and paths: an
// instance with other capacities needs its own.
type Pricer struct {
	inst *Instance

	optOnce sync.Once
	opt     *lp.Problem
	optFlow *InnerFlow
	optRHS  []float64 // opt's right-hand sides at zero volumes
	optErr  error

	dpOnce  sync.Once
	first   []int    // first[k]: flat index of demand k's path 0
	varName []string // "f<k>.<p>" per flat (k, p)
	demName []string // "dem<k>" per demand
	capName []string // "cap<e>" per edge
	crosses [][]int  // crosses[e]: flat (k, p) whose path uses edge e, in (k, p) order
	nnz     int      // phase-2 nonzeros when no demand is pinned
}

// NewPricer returns a pricer for inst. It builds nothing until the first
// call, so holding one per instance is free for callers that never price.
func NewPricer(inst *Instance) *Pricer { return &Pricer{inst: inst} }

func (pc *Pricer) buildOpt() {
	pc.optFlow = BuildInnerMaxFlow("opt", pc.inst, func(int) kkt.AffineRHS {
		return kkt.Constant(0)
	}, 1, nil, 0)
	pc.opt, _, pc.optErr = innerProblem(pc.optFlow.LP)
	pc.optRHS = make([]float64, len(pc.optFlow.LP.Rows))
	for i, r := range pc.optFlow.LP.Rows {
		pc.optRHS[i] = r.RHS.Const
	}
}

func (pc *Pricer) buildDP() {
	inst := pc.inst
	pc.first = make([]int, len(inst.Paths))
	pc.demName = make([]string, len(inst.Paths))
	pc.capName = make([]string, inst.G.NumEdges())
	pc.crosses = make([][]int, inst.G.NumEdges())
	for e := range pc.capName {
		pc.capName[e] = fmt.Sprintf("cap%d", e)
	}
	for k, ps := range inst.Paths {
		pc.first[k] = len(pc.varName)
		pc.demName[k] = fmt.Sprintf("dem%d", k)
		for p, path := range ps {
			j := len(pc.varName)
			pc.varName = append(pc.varName, fmt.Sprintf("f%d.%d", k, p))
			pc.nnz++
			for _, e := range path.Edges {
				// Path.Contains counts an edge once per path, however often it is listed.
				if c := pc.crosses[e]; len(c) == 0 || c[len(c)-1] != j {
					pc.crosses[e] = append(c, j)
					pc.nnz++
				}
			}
		}
	}
}

// MaxFlow solves OptMaxFlow (3) at the given volumes, one per demand. A
// vector the instance's demand set would refuse panics as WithVolumes does.
func (pc *Pricer) MaxFlow(vols []float64) (*Flow, error) {
	pc.inst.Demands.CheckVolumes(vols)
	p, err := pc.optLP(vols)
	if err != nil {
		return nil, err
	}
	sol, err := p.SolveWith(oneShotOpts())
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.StatusOptimal {
		return nil, fmt.Errorf("mcf: max-flow LP %v", sol.Status)
	}
	out := newFlow(pc.inst)
	for k, ps := range pc.inst.Paths {
		for p := range ps {
			out.add(k, p, sol.X[pc.optFlow.Index[k][p]])
		}
	}
	return out, nil
}

// optLP returns the OPT LP at volumes vols.
func (pc *Pricer) optLP(vols []float64) (*lp.Problem, error) {
	pc.optOnce.Do(pc.buildOpt)
	if pc.optErr != nil {
		return nil, pc.optErr
	}
	rhs := append([]float64(nil), pc.optRHS...)
	for k, r := range pc.optFlow.DemandRows {
		rhs[r] = vols[k]
	}
	return pc.opt.WithRHS(rhs), nil
}

// DemandPinning solves DemPinMaxFlow (5) at the given volumes: demands at
// or below the threshold are fixed to their shortest path, the rest are
// routed jointly optimally over the residual capacities. It returns
// ErrInfeasible when the pinned flows alone exceed some link capacity, and
// panics on a vector WithVolumes would refuse.
func (pc *Pricer) DemandPinning(vols []float64, threshold float64) (*Flow, error) {
	inst := pc.inst
	inst.Demands.CheckVolumes(vols)
	residual, ok := residualAfterPinning(inst, vols, threshold)
	if !ok {
		return nil, fmt.Errorf("%w: pinned demands oversubscribe a link", ErrInfeasible)
	}
	out := newFlow(inst)
	anyFree := false
	for k, v := range vols {
		if v <= threshold {
			out.add(k, 0, v)
		} else {
			anyFree = true
		}
	}
	if !anyFree {
		return out, nil
	}

	// Phase 2: joint optimization of the unpinned demands — the speedup the
	// heuristic exists for, since this LP has far fewer demand variables.
	p, varOf := pc.phase2LP(vols, threshold, residual)
	sol, err := p.SolveWith(oneShotOpts())
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.StatusOptimal {
		return nil, fmt.Errorf("mcf: DP phase-2 LP %v", sol.Status)
	}
	// Extract in demand/path order, the order Total has always summed in.
	for k, ps := range inst.Paths {
		for pi := range ps {
			if v := varOf[pc.first[k]+pi]; v >= 0 {
				out.add(k, pi, sol.X[v])
			}
		}
	}
	return out, nil
}

// phase2LP assembles the DP phase-2 LP over the residual capacities.
// varOf[first[k]+p] is the variable of demand k's path p, or -1 when
// demand k is pinned.
func (pc *Pricer) phase2LP(vols []float64, threshold float64, residual []float64) (*lp.Problem, []lp.VarID) {
	pc.dpOnce.Do(pc.buildDP)
	p := lp.NewProblem("dp-phase2", lp.Maximize)
	varOf := make([]lp.VarID, len(pc.varName)) // -1 for a pinned demand's paths
	terms := make([]lp.Term, 0, pc.nnz)
	for k, ps := range pc.inst.Paths {
		start := len(terms)
		for pi := range ps {
			j := pc.first[k] + pi
			varOf[j] = -1
			if vols[k] <= threshold {
				continue
			}
			varOf[j] = p.AddVar(pc.varName[j], 0, lp.Inf)
			p.SetObj(varOf[j], 1)
			terms = append(terms, lp.Term{Var: varOf[j], Coef: 1})
		}
		if vols[k] > threshold {
			p.AddConstraint(pc.demName[k], lp.Expr{Terms: terms[start:len(terms):len(terms)]}, lp.LE, vols[k])
		}
	}
	for e, js := range pc.crosses {
		start := len(terms)
		for _, j := range js {
			if varOf[j] >= 0 {
				terms = append(terms, lp.Term{Var: varOf[j], Coef: 1})
			}
		}
		if len(terms) > start {
			p.AddConstraint(pc.capName[e], lp.Expr{Terms: terms[start:len(terms):len(terms)]}, lp.LE, residual[e])
		}
	}
	return p, varOf
}
