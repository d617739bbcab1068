// Package mcf implements the multi-commodity-flow traffic-engineering
// formulations of the paper's Section 2: the feasible-flow polytope (2),
// the optimal total-flow objective OptMaxFlow (3), the Demand Pinning
// heuristic (4)-(5) in production use, and the POP heuristic (6) with the
// client-splitting extension of Appendix A.
//
// Each formulation comes in two forms: a direct solver (used on its own and
// by the black-box searches) and an inner-LP builder whose right-hand sides
// may reference outer variables (used by the gap finder's KKT rewrite).
package mcf

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/demand"
	"repro/internal/kkt"
	"repro/internal/lp"
	"repro/internal/topology"
)

// ErrInfeasible is returned when a heuristic admits no feasible flow for
// the given demands — e.g. Demand Pinning when pinned demands oversubscribe
// a link on their shared shortest path (the paper's Section 5 case).
var ErrInfeasible = errors.New("mcf: infeasible")

// ValidationError reports an input value a TE instance cannot be built
// from: a NaN, infinite or negative edge capacity or demand volume. A NaN
// in particular would silently poison every downstream LP (NaN satisfies no
// comparison, so the simplex method's ratio tests misbehave instead of
// failing), which is why construction is where it must be stopped.
type ValidationError struct {
	What  string // "edge capacity" or "demand volume"
	Index int    // edge id or demand index
	Value float64
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("mcf: invalid %s %g at index %d (must be finite and >= 0)", e.What, e.Value, e.Index)
}

// validateInputs rejects NaN/Inf/negative capacities and volumes at
// instance-construction time.
func validateInputs(g *topology.Graph, set *demand.Set) error {
	for _, e := range g.Edges() {
		if math.IsNaN(e.Capacity) || math.IsInf(e.Capacity, 0) || e.Capacity < 0 {
			return &ValidationError{What: "edge capacity", Index: e.ID, Value: e.Capacity}
		}
	}
	for k := 0; k < set.Len(); k++ {
		if v := set.Volume(k); math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return &ValidationError{What: "demand volume", Index: k, Value: v}
		}
	}
	return nil
}

// Instance is a TE problem instance: a topology, a demand set, and the
// pre-chosen paths per demand (the paper defaults to 2 paths per pair).
// Paths[k][0] is always the weight-shortest path, the one Demand Pinning
// pins to.
type Instance struct {
	G       *topology.Graph
	Demands *demand.Set
	Paths   [][]topology.Path
}

// NewInstance computes up to numPaths shortest paths for every demand pair.
// It fails if some pair has no path at all, and rejects NaN, infinite or
// negative capacities and volumes with a typed *ValidationError.
func NewInstance(g *topology.Graph, set *demand.Set, numPaths int) (*Instance, error) {
	if numPaths < 1 {
		return nil, fmt.Errorf("mcf: numPaths %d < 1", numPaths)
	}
	if err := validateInputs(g, set); err != nil {
		return nil, err
	}
	inst := &Instance{G: g, Demands: set, Paths: make([][]topology.Path, set.Len())}
	for k := 0; k < set.Len(); k++ {
		pr := set.Pair(k)
		paths := g.KShortestPaths(pr.Src, pr.Dst, numPaths)
		if len(paths) == 0 {
			return nil, fmt.Errorf("mcf: no path for demand %v", pr)
		}
		inst.Paths[k] = paths
	}
	return inst, nil
}

// NumFlowVars returns the total number of per-path flow variables.
func (inst *Instance) NumFlowVars() int {
	n := 0
	for _, ps := range inst.Paths {
		n += len(ps)
	}
	return n
}

// ShortestPath returns the pinning path of demand k.
func (inst *Instance) ShortestPath(k int) topology.Path { return inst.Paths[k][0] }

// WithVolumes returns a shallow copy of the instance carrying different
// demand volumes over the same pairs and paths.
func (inst *Instance) WithVolumes(v []float64) *Instance {
	return &Instance{G: inst.G, Demands: inst.Demands.WithVolumes(v), Paths: inst.Paths}
}

// Flow is a flow assignment for an instance.
type Flow struct {
	// PerPath[k][p] is the flow of demand k on its p-th path.
	PerPath [][]float64
	// PerDemand[k] is the total flow carried for demand k.
	PerDemand []float64
	// Total is the total carried flow — the OptMaxFlow objective.
	Total float64
}

func newFlow(inst *Instance) *Flow {
	f := &Flow{
		PerPath:   make([][]float64, len(inst.Paths)),
		PerDemand: make([]float64, len(inst.Paths)),
	}
	for k, ps := range inst.Paths {
		f.PerPath[k] = make([]float64, len(ps))
	}
	return f
}

// add accumulates flow x for demand k on path p.
func (f *Flow) add(k, p int, x float64) {
	f.PerPath[k][p] += x
	f.PerDemand[k] += x
	f.Total += x
}

// EdgeLoads sums per-edge utilization of the flow.
func (f *Flow) EdgeLoads(inst *Instance) []float64 {
	loads := make([]float64, inst.G.NumEdges())
	for k, ps := range inst.Paths {
		for p, path := range ps {
			x := f.PerPath[k][p]
			if x == 0 {
				continue
			}
			for _, e := range path.Edges {
				loads[e] += x
			}
		}
	}
	return loads
}

// Check verifies demand and capacity constraints within tolerance tol,
// returning a descriptive error for the first violation.
func (f *Flow) Check(inst *Instance, tol float64) error {
	for k := range inst.Paths {
		if f.PerDemand[k] > inst.Demands.Volume(k)+tol {
			return fmt.Errorf("mcf: demand %d overserved: %g > %g",
				k, f.PerDemand[k], inst.Demands.Volume(k))
		}
		for p, x := range f.PerPath[k] {
			if x < -tol {
				return fmt.Errorf("mcf: negative flow %g on demand %d path %d", x, k, p)
			}
		}
	}
	for e, load := range f.EdgeLoads(inst) {
		if load > inst.G.Edge(e).Capacity+tol {
			return fmt.Errorf("mcf: edge %d over capacity: %g > %g",
				e, load, inst.G.Edge(e).Capacity)
		}
	}
	return nil
}

// InnerFlow is an inner max-flow LP plus the bookkeeping to interpret its
// variables: Index[k][p] gives the inner variable carrying demand k's flow
// on path p, or -1 when demand k is excluded (POP partitions).
type InnerFlow struct {
	LP         *kkt.InnerLP
	Index      [][]int
	DemandRows []int // row index of "flow <= volume" per demand (-1 if excluded)
	CapRows    []int // row index of the capacity row per edge
}

// BuildInnerMaxFlow constructs the FeasibleFlow polytope (2) with objective
// (3) as an InnerLP. demandRHS gives each demand's volume as an affine
// function of outer variables (or a constant); capFrac scales every edge
// capacity (POP uses 1/partitions); include selects the demand subset (nil
// means all).
//
// demandUB, when positive, is a proved upper bound on every demand volume
// and activates the relaxation tighteners the meta optimization relies on:
// per-row dual bounds of 1 (sound here because this is a unit-objective
// max-flow with a 0/1 constraint matrix: capping an optimal dual at 1
// keeps it optimal and complementary), slack bounds (a demand row's slack
// is at most the demand bound, a capacity row's at most the capacity), and
// per-variable flow bounds for the McCormick cuts.
func BuildInnerMaxFlow(name string, inst *Instance, demandRHS func(k int) kkt.AffineRHS,
	capFrac float64, include func(k int) bool, demandUB float64) *InnerFlow {

	fl := &InnerFlow{
		LP:         &kkt.InnerLP{Name: name},
		Index:      make([][]int, len(inst.Paths)),
		DemandRows: make([]int, len(inst.Paths)),
		CapRows:    make([]int, inst.G.NumEdges()),
	}
	nv := 0
	for k, ps := range inst.Paths {
		fl.Index[k] = make([]int, len(ps))
		fl.DemandRows[k] = -1
		for p := range ps {
			fl.Index[k][p] = -1
			if include != nil && !include(k) {
				continue
			}
			fl.Index[k][p] = nv
			nv++
		}
	}
	fl.LP.NumVars = nv
	fl.LP.Obj = make([]float64, nv)
	if demandUB > 0 {
		fl.LP.VarUB = make([]float64, nv)
	}
	for k := range inst.Paths {
		if fl.Index[k][0] == -1 {
			continue
		}
		// Demand row: sum_p f_k^p <= d_k. Total-flow objective gets +1 on
		// every path variable.
		row := kkt.Row{Name: fmt.Sprintf("dem%d", k), Rel: lp.LE, RHS: demandRHS(k)}
		if demandUB > 0 {
			row.DualUB = 1
			row.SlackUB = demandUB
		}
		for p := range inst.Paths[k] {
			v := fl.Index[k][p]
			fl.LP.Obj[v] = 1
			row.Terms = append(row.Terms, kkt.InnerTerm{Var: v, Coef: 1})
			if demandUB > 0 {
				ub := demandUB
				for _, e := range inst.Paths[k][p].Edges {
					if c := inst.G.Edge(e).Capacity * capFrac; c < ub {
						ub = c
					}
				}
				fl.LP.VarUB[v] = ub
			}
		}
		fl.DemandRows[k] = fl.LP.AddRow(row)
	}
	for e := 0; e < inst.G.NumEdges(); e++ {
		row := kkt.Row{
			Name: fmt.Sprintf("cap%d", e),
			Rel:  lp.LE,
			RHS:  kkt.Constant(inst.G.Edge(e).Capacity * capFrac),
		}
		if demandUB > 0 {
			row.DualUB = 1
			row.SlackUB = inst.G.Edge(e).Capacity * capFrac
		}
		for k, ps := range inst.Paths {
			for p, path := range ps {
				if fl.Index[k][p] == -1 {
					continue
				}
				if path.Contains(e) {
					row.Terms = append(row.Terms, kkt.InnerTerm{Var: fl.Index[k][p], Coef: 1})
				}
			}
		}
		fl.CapRows[e] = fl.LP.AddRow(row)
	}
	return fl
}

// innerProblem lowers an InnerLP whose RHS entries are all constants into a
// standalone lp.Problem.
func innerProblem(in *kkt.InnerLP) (*lp.Problem, []lp.VarID, error) {
	p := lp.NewProblem(in.Name, lp.Maximize)
	xs := make([]lp.VarID, in.NumVars)
	for j := range xs {
		xs[j] = p.AddVar(fmt.Sprintf("x%d", j), 0, lp.Inf)
		p.SetObj(xs[j], in.Obj[j])
	}
	for _, r := range in.Rows {
		if len(r.RHS.Terms) != 0 {
			return nil, nil, fmt.Errorf("mcf: inner LP %s has outer terms; cannot solve directly", in.Name)
		}
		e := lp.NewExpr()
		for _, t := range r.Terms {
			e = e.Add(xs[t.Var], t.Coef)
		}
		p.AddConstraint(r.Name, e, r.Rel, r.RHS.Const)
	}
	return p, xs, nil
}

// oneShotOpts are the SolveOptions for every heuristic-side one-shot LP in
// this package (direct OPT/DP/POP pricing, the tesolve OPT inner LP, the
// concurrent-flow variants). Presolve is on: these LPs are solved cold,
// exactly once, with no warm-start basis to preserve, so the Andersen
// reduction is pure profit — unlike the B&B node relaxations, where
// DESIGN.md keeps presolve off because a presolved solve may report a
// different vertex of a degenerate optimal face and steer branching. Sealed
// by TestOneShotPresolveDifferential.
func oneShotOpts() lp.SolveOptions { return lp.SolveOptions{Presolve: true} }

// solveInner solves an InnerLP whose RHS entries are all constants and
// returns the LP solution.
func solveInner(in *kkt.InnerLP) (*lp.Solution, []lp.VarID, error) {
	p, xs, err := innerProblem(in)
	if err != nil {
		return nil, nil, err
	}
	sol, err := p.SolveWith(oneShotOpts())
	if err != nil {
		return nil, nil, err
	}
	return sol, xs, nil
}

// WarmStartReport summarizes the warm-start self-check of WarmStartSelfCheck.
type WarmStartReport struct {
	ColdIters int     // pivots of the cold child solve
	WarmIters int     // pivots of the warm child solve (dual repair + cleanup)
	ObjDelta  float64 // warm child objective minus cold child objective
	WarmUsed  bool    // true when the warm path produced the answer (no fallback)
}

// WarmStartSelfCheck exercises the lp warm-start path on a real instance: it
// solves the OPT max-flow inner LP cold while capturing the terminal basis,
// then pins the largest path-flow variable at its optimal value — exactly the
// shape of a branch-and-bound child — and solves that child both cold and
// warm from the captured basis. The two children must agree; the report
// carries their pivot counts so a CLI can print the warm-start saving.
func WarmStartSelfCheck(inst *Instance) (*WarmStartReport, error) {
	vols := inst.Demands.Volumes()
	fl := BuildInnerMaxFlow("opt", inst, func(k int) kkt.AffineRHS {
		return kkt.Constant(vols[k])
	}, 1, nil, 0)
	p, xs, err := innerProblem(fl.LP)
	if err != nil {
		return nil, err
	}
	parent, err := p.SolveWith(lp.SolveOptions{CaptureBasis: true})
	if err != nil {
		return nil, err
	}
	if parent.Status != lp.StatusOptimal || parent.Basis == nil {
		return nil, fmt.Errorf("mcf: warm-start self-check parent LP %v", parent.Status)
	}
	pin := xs[0]
	for _, x := range xs[1:] {
		if parent.X[x] > parent.X[pin] {
			pin = x
		}
	}
	ov := map[lp.VarID][2]float64{pin: {parent.X[pin], parent.X[pin]}}
	cold, err := p.SolveWith(lp.SolveOptions{BoundOverride: ov})
	if err != nil {
		return nil, err
	}
	warm, err := p.SolveWith(lp.SolveOptions{BoundOverride: ov, WarmStart: parent.Basis})
	if err != nil {
		return nil, err
	}
	if warm.Status != cold.Status {
		return nil, fmt.Errorf("mcf: warm child status %v, cold %v", warm.Status, cold.Status)
	}
	return &WarmStartReport{
		ColdIters: cold.Iterations,
		WarmIters: warm.Iterations,
		ObjDelta:  warm.Objective - cold.Objective,
		WarmUsed:  warm.Warm,
	}, nil
}

// SolveMaxFlow solves OptMaxFlow (3): the optimal total flow. Callers that
// price many volume vectors on one instance hold a Pricer.
func SolveMaxFlow(inst *Instance) (*Flow, error) {
	return NewPricer(inst).MaxFlow(inst.Demands.Volumes())
}
