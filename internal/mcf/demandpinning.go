package mcf

// Pinned reports which demands Demand Pinning routes on their shortest path:
// those with volume at or below the threshold (the paper pins "demands at or
// below a configuration threshold T_d").
func Pinned(inst *Instance, threshold float64) []bool {
	pinned := make([]bool, inst.Demands.Len())
	for k := range pinned {
		pinned[k] = inst.Demands.Volume(k) <= threshold
	}
	return pinned
}

// DemandPinningFeasible reports whether pinning is capacity-feasible: the
// pinned demands, forced onto their shortest paths, must not oversubscribe
// any link. The paper's Section 5 notes DP has genuinely infeasible inputs.
func DemandPinningFeasible(inst *Instance, threshold float64) bool {
	_, ok := residualAfterPinning(inst, inst.Demands.Volumes(), threshold)
	return ok
}

// residualAfterPinning subtracts the flows pinned at volumes vols from
// edge capacities.
func residualAfterPinning(inst *Instance, vols []float64, threshold float64) ([]float64, bool) {
	residual := make([]float64, inst.G.NumEdges())
	for e := range residual {
		residual[e] = inst.G.Edge(e).Capacity
	}
	const tol = 1e-9
	for k, v := range vols {
		if v > threshold {
			continue
		}
		for _, e := range inst.ShortestPath(k).Edges {
			residual[e] -= v
			if residual[e] < -tol {
				return nil, false
			}
			if residual[e] < 0 {
				residual[e] = 0
			}
		}
	}
	return residual, true
}

// SolveDemandPinning solves DemPinMaxFlow (5): demands at or below the
// threshold are fixed to their shortest path; the remaining demands are
// routed jointly optimally over the residual capacities. Returns
// ErrInfeasible when the pinned flows alone exceed some link capacity.
// Callers that price many volume vectors on one instance hold a Pricer.
func SolveDemandPinning(inst *Instance, threshold float64) (*Flow, error) {
	return NewPricer(inst).DemandPinning(inst.Demands.Volumes(), threshold)
}
