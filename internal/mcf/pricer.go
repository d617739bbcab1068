package mcf

import (
	"fmt"
	"sync"

	"repro/internal/kkt"
	"repro/internal/lp"
)

// Pricer prices demand vectors on one instance with the direct OPT, Demand
// Pinning, concurrent-flow and POP solvers. What does not depend on the
// volumes is built once, on first use: the OPT LP, whose calls then only
// rewrite the demand rows' right-hand sides on a recycled copy, and the
// edge incidence and names from which each DP, concurrent or POP call
// assembles its LP without a map, a name format or a path scan. Every LP a call hands the solver is
// the one the per-call builders made before the Pricer existed (same
// variables, rows, term order and names), so every answer is bitwise the
// same. A Pricer is safe for concurrent use. It is bound to its instance's
// graph and paths: an instance with other capacities needs its own.
type Pricer struct {
	inst *Instance

	optOnce sync.Once
	opt     *lp.Problem // the OPT LP at zero volumes, never solved: the template of every copy
	optFlow *InnerFlow
	optErr  error
	optMu   sync.Mutex
	optFree []*lp.Problem // idle copies of opt; a call takes one, sets its demand rows and puts it back

	incOnce sync.Once
	first   []int    // first[k]: flat index of demand k's path 0
	crosses [][]int  // crosses[e]: flat (k, p) whose path uses edge e, in (k, p) order
	nnz     int      // one per flat (k, p) plus one per crossing
	varName []string // "f<k>.<p>" per flat (k, p)
	xName   []string // "x<j>": a POP partition's j-th variable
	demName []string // "dem<k>" per demand
	volName []string // "vol<k>" per demand
	capName []string // "cap<e>" per edge

	popMu   sync.Mutex
	popName []string // "pop<c>", grown to the most partitions priced
}

// NewPricer returns a pricer for inst. It builds nothing until the first
// call, so holding one per instance is free for callers that never price.
func NewPricer(inst *Instance) *Pricer { return &Pricer{inst: inst} }

func (pc *Pricer) buildOpt() {
	pc.optFlow = BuildInnerMaxFlow("opt", pc.inst, func(int) kkt.AffineRHS {
		return kkt.Constant(0)
	}, 1, nil, 0)
	pc.opt, _, pc.optErr = innerProblem(pc.optFlow.LP)
}

func (pc *Pricer) buildIncidence() {
	inst := pc.inst
	pc.first = make([]int, len(inst.Paths))
	pc.demName = make([]string, len(inst.Paths))
	pc.volName = make([]string, len(inst.Paths))
	pc.capName = make([]string, inst.G.NumEdges())
	pc.crosses = make([][]int, inst.G.NumEdges())
	for e := range pc.capName {
		pc.capName[e] = fmt.Sprintf("cap%d", e)
	}
	for k, ps := range inst.Paths {
		pc.first[k] = len(pc.varName)
		pc.demName[k] = fmt.Sprintf("dem%d", k)
		pc.volName[k] = fmt.Sprintf("vol%d", k)
		for p, path := range ps {
			j := len(pc.varName)
			pc.varName = append(pc.varName, fmt.Sprintf("f%d.%d", k, p))
			pc.xName = append(pc.xName, fmt.Sprintf("x%d", j))
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

// popNames returns the LP names of partitions 0..partitions-1, formatting
// only those no earlier call needed.
func (pc *Pricer) popNames(partitions int) []string {
	pc.popMu.Lock()
	defer pc.popMu.Unlock()
	for c := len(pc.popName); c < partitions; c++ {
		pc.popName = append(pc.popName, fmt.Sprintf("pop%d", c))
	}
	return pc.popName[:partitions:partitions]
}

// MaxFlow solves OptMaxFlow (3) at the given volumes, one per demand. A
// vector the instance's demand set would refuse panics as WithVolumes does.
func (pc *Pricer) MaxFlow(vols []float64) (*Flow, error) {
	x, err := pc.optX(vols)
	if err != nil {
		return nil, err
	}
	out := newFlow(pc.inst)
	for k, ps := range pc.inst.Paths {
		for p := range ps {
			out.add(k, p, x[pc.optFlow.Index[k][p]])
		}
	}
	return out, nil
}

// optTotal is MaxFlow's Total without the Flow: the same flows summed in
// the same (k, p) order.
func (pc *Pricer) optTotal(vols []float64) (float64, error) {
	x, err := pc.optX(vols)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, idx := range pc.optFlow.Index {
		for _, j := range idx {
			total += x[j]
		}
	}
	return total, nil
}

// optX solves the OPT LP at volumes vols and returns its optimal point.
func (pc *Pricer) optX(vols []float64) ([]float64, error) {
	pc.inst.Demands.CheckVolumes(vols)
	p, err := pc.optLP(vols)
	if err != nil {
		return nil, err
	}
	sol, err := p.SolveWith(oneShotOpts())
	pc.optMu.Lock()
	pc.optFree = append(pc.optFree, p)
	pc.optMu.Unlock()
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.StatusOptimal {
		return nil, fmt.Errorf("mcf: max-flow LP %v", sol.Status)
	}
	return sol.X, nil
}

// optLP returns an idle copy of the OPT LP, cloned when none is free, with
// its demand rows' right-hand sides set to vols. Every other row keeps the
// right-hand side it was built with, so a copy needs no reset between
// calls. The caller owns the copy until it puts it back on optFree.
func (pc *Pricer) optLP(vols []float64) (*lp.Problem, error) {
	pc.optOnce.Do(pc.buildOpt)
	if pc.optErr != nil {
		return nil, pc.optErr
	}
	pc.optMu.Lock()
	var p *lp.Problem
	if n := len(pc.optFree); n > 0 {
		p = pc.optFree[n-1]
		pc.optFree = pc.optFree[:n-1]
	}
	pc.optMu.Unlock()
	if p == nil {
		p = pc.opt.Clone()
	}
	for k, r := range pc.optFlow.DemandRows {
		p.SetRHS(lp.ConID(r), vols[k])
	}
	return p, nil
}

// DemandPinning solves DemPinMaxFlow (5) at the given volumes: demands at
// or below the threshold are fixed to their shortest path, the rest are
// routed jointly optimally over the residual capacities. It returns
// ErrInfeasible when the pinned flows alone exceed some link capacity, and
// panics on a vector WithVolumes would refuse.
func (pc *Pricer) DemandPinning(vols []float64, threshold float64) (*Flow, error) {
	out, residual, err := pc.pin(vols, threshold)
	if err != nil || !anyAbove(vols, threshold) {
		return out, err
	}

	x, varOf, err := pc.solvePhase2(vols, threshold, residual)
	if err != nil {
		return nil, err
	}
	pc.addFlows(out, varOf, x)
	return out, nil
}

// solvePhase2 solves DP's phase 2, the joint optimization of the unpinned
// demands over the residual capacities — the speedup the heuristic exists
// for, since this LP has far fewer demand variables. It returns the
// optimal point and the phase-2 LP's varOf.
func (pc *Pricer) solvePhase2(vols []float64, threshold float64, residual []float64) ([]float64, []lp.VarID, error) {
	p, varOf := pc.phase2LP(vols, threshold, residual)
	sol, err := p.SolveWith(oneShotOpts())
	if err != nil {
		return nil, nil, err
	}
	if sol.Status != lp.StatusOptimal {
		return nil, nil, fmt.Errorf("mcf: DP phase-2 LP %v", sol.Status)
	}
	return sol.X, varOf, nil
}

// pin routes the demands at or below the threshold on their shortest
// paths, in a fresh flow, and returns it with the capacities they leave.
// The error wraps ErrInfeasible when they oversubscribe a link; a vector
// WithVolumes would refuse panics.
func (pc *Pricer) pin(vols []float64, threshold float64) (*Flow, []float64, error) {
	pc.inst.Demands.CheckVolumes(vols)
	residual, ok := residualAfterPinning(pc.inst, vols, threshold)
	if !ok {
		return nil, nil, errOversubscribed
	}
	out := newFlow(pc.inst)
	for k, v := range vols {
		if v <= threshold {
			out.add(k, 0, v)
		}
	}
	return out, residual, nil
}

// errOversubscribed is the error of a pinning whose flows exceed a link's
// capacity.
var errOversubscribed = fmt.Errorf("%w: pinned demands oversubscribe a link", ErrInfeasible)

// allAbove reports whether every volume exceeds cut.
func allAbove(vols []float64, cut float64) bool {
	for _, v := range vols {
		if !(v > cut) {
			return false
		}
	}
	return true
}

// anyAbove reports whether some volume exceeds cut.
func anyAbove(vols []float64, cut float64) bool {
	for _, v := range vols {
		if v > cut {
			return true
		}
	}
	return false
}

// DPGap prices OPT and Demand Pinning at vols and returns their totals, the
// two sides of the DP gap: MaxFlow(vols).Total and DemandPinning(vols,
// threshold).Total to the bit, without building either Flow. The error
// wraps ErrInfeasible when the pinned demands oversubscribe a link.
//
// When nothing is pinned, DP's total is OPT's and no second LP is solved:
// DemPinMaxFlow (5) with an empty pinned set is OptMaxFlow (3), and the
// phase-2 LP is the OPT LP without the capacity rows no path crosses,
// which presolve drops from the OPT LP, so the solver sees the same
// reduced problem either way.
func (pc *Pricer) DPGap(vols []float64, threshold float64) (opt, dp float64, err error) {
	pc.inst.Demands.CheckVolumes(vols)
	residual, ok := residualAfterPinning(pc.inst, vols, threshold)
	if !ok {
		return 0, 0, errOversubscribed
	}
	if opt, err = pc.optTotal(vols); err != nil {
		return 0, 0, err
	}
	if allAbove(vols, threshold) { // nothing pinned
		return opt, opt, nil
	}
	for _, v := range vols { // pin's order: demand by demand
		if v <= threshold {
			dp += v
		}
	}
	if !anyAbove(vols, threshold) {
		return opt, dp, nil
	}
	x, varOf, err := pc.solvePhase2(vols, threshold, residual)
	if err != nil {
		return 0, 0, err
	}
	for _, v := range varOf { // addFlows' (k, p) order
		if v >= 0 {
			dp += x[v]
		}
	}
	return opt, dp, nil
}

// phase2LP assembles DP's phase-2 LP over the residual capacities.
func (pc *Pricer) phase2LP(vols []float64, threshold float64, residual []float64) (*lp.Problem, []lp.VarID) {
	return pc.flowLP("dp-phase2", vols, threshold, residual, false)
}

// flowLP assembles the total-flow LP named name over the demands whose
// volume exceeds cut: one variable per path of such a demand, a "dem<k>"
// row bounding its flow by its volume, and a "cap<e>" row per edge bounding
// the flow crossing it by capRHS[e]. DP's phase 2 names its variables
// "f<k>.<p>" and drops the rows of edges no variable crosses; a POP
// partition (pop) names them "x<j>" and keeps every row, as
// BuildInnerMaxFlow lowered by innerProblem did. varOf[first[k]+p] is the
// variable of demand k's path p, or -1.
func (pc *Pricer) flowLP(name string, vols []float64, cut float64, capRHS []float64, pop bool) (*lp.Problem, []lp.VarID) {
	pc.incOnce.Do(pc.buildIncidence)
	p := lp.NewProblem(name, lp.Maximize)
	p.Grow(len(pc.varName), len(pc.first)+len(pc.crosses)) // at most every path, demand and edge
	varOf := make([]lp.VarID, len(pc.varName))
	terms := make([]lp.Term, 0, pc.nnz)
	for k, ps := range pc.inst.Paths {
		start := len(terms)
		for pi := range ps {
			j := pc.first[k] + pi
			varOf[j] = -1
			if vols[k] <= cut {
				continue
			}
			vn := pc.varName[j]
			if pop {
				vn = pc.xName[p.NumVars()]
			}
			varOf[j] = p.AddVar(vn, 0, lp.Inf)
			p.SetObj(varOf[j], 1)
			terms = append(terms, lp.Term{Var: varOf[j], Coef: 1})
		}
		if vols[k] > cut {
			p.AddConstraint(pc.demName[k], lp.Expr{Terms: terms[start:len(terms):len(terms)]}, lp.LE, vols[k])
		}
	}
	pc.addCapRows(p, terms, varOf, capRHS, pop)
	return p, varOf
}

// addCapRows adds the "cap<e>" row of every edge over the variables of
// varOf that cross it, bounded by capRHS[e]; an edge no variable crosses
// gets an empty row only when keepEmpty is set. The rows' terms are
// appended to terms, whose capacity must cover them.
func (pc *Pricer) addCapRows(p *lp.Problem, terms []lp.Term, varOf []lp.VarID, capRHS []float64, keepEmpty bool) {
	for e, js := range pc.crosses {
		start := len(terms)
		for _, j := range js {
			if varOf[j] >= 0 {
				terms = append(terms, lp.Term{Var: varOf[j], Coef: 1})
			}
		}
		if keepEmpty || len(terms) > start {
			p.AddConstraint(pc.capName[e], lp.Expr{Terms: terms[start:len(terms):len(terms)]}, lp.LE, capRHS[e])
		}
	}
}

// addFlows adds the solution x's flow of every variable in varOf to out, in
// demand/path order, the order Total has always summed in.
func (pc *Pricer) addFlows(out *Flow, varOf []lp.VarID, x []float64) {
	for k, ps := range pc.inst.Paths {
		for pi := range ps {
			if v := varOf[pc.first[k]+pi]; v >= 0 {
				out.add(k, pi, x[v])
			}
		}
	}
}
