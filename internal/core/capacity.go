package core

import (
	"fmt"
	"math"

	"repro/internal/kkt"
	"repro/internal/lp"
	"repro/internal/mcf"
	"repro/internal/milp"
)

// CapacityGapProblem is the Section-5 extension: instead of adversarial
// demands, it searches for the *topology change* — a per-link capacity
// assignment within bounds — that maximizes OPT - DemandPinning for a fixed
// demand matrix.
//
// With demands fixed, DP's pinning pattern is a constant, so the heuristic
// decomposes into a constant pinned volume plus a certified residual
// max-flow whose capacity rows carry the outer capacity variables. No
// binaries are needed at all; the meta problem is an LP plus the KKT
// complementarity pairs.
type CapacityGapProblem struct {
	Inst      *mcf.Instance
	Threshold float64
	// CapLo/CapHi bound each directed edge's capacity (length NumEdges).
	CapLo, CapHi []float64
}

type capBuild struct {
	model *milp.Model
	caps  []lp.VarID
}

func (pr *CapacityGapProblem) validate() error {
	ne := pr.Inst.G.NumEdges()
	if len(pr.CapLo) != ne || len(pr.CapHi) != ne {
		return fmt.Errorf("core: capacity bounds length %d/%d, want %d",
			len(pr.CapLo), len(pr.CapHi), ne)
	}
	for e := 0; e < ne; e++ {
		if pr.CapLo[e] < 0 || pr.CapLo[e] > pr.CapHi[e] {
			return fmt.Errorf("core: edge %d capacity bounds [%g, %g] invalid",
				e, pr.CapLo[e], pr.CapHi[e])
		}
	}
	return nil
}

func (pr *CapacityGapProblem) build() (*capBuild, error) {
	if err := pr.validate(); err != nil {
		return nil, err
	}
	p := lp.NewProblem("cap-gap", lp.Maximize)
	m := milp.NewModel(p)
	b := &capBuild{model: m}

	ne := pr.Inst.G.NumEdges()
	b.caps = make([]lp.VarID, ne)
	for e := 0; e < ne; e++ {
		b.caps[e] = p.AddVar(fmt.Sprintf("cap%d", e), pr.CapLo[e], pr.CapHi[e])
	}
	vols := pr.Inst.Demands.CopyVolumes()
	maxVol := 0.0
	for _, v := range vols {
		if v > maxVol {
			maxVol = v
		}
	}
	if maxVol == 0 {
		maxVol = 1
	}

	// Pinned volumes and loads are constants of the fixed demand matrix.
	pinned := mcf.Pinned(pr.Inst, pr.Threshold)
	pinLoad := make([]float64, ne)
	pinnedTotal := 0.0
	residVol := make([]float64, len(vols))
	for k, v := range vols {
		if pinned[k] {
			pinnedTotal += v
			for _, e := range pr.Inst.ShortestPath(k).Edges {
				pinLoad[e] += v
			}
			continue
		}
		residVol[k] = v
	}

	patchCaps := func(fl *mcf.InnerFlow, sub []float64) {
		for e := 0; e < ne; e++ {
			row := &fl.LP.Rows[fl.CapRows[e]]
			row.RHS = kkt.AffineRHS{
				Const: -sub[e],
				Terms: []lp.Term{{Var: b.caps[e], Coef: 1}},
			}
			row.SlackUB = pr.CapHi[e]
		}
	}

	// OPT side: primal-only, capacity rows referencing the outer variables.
	optFlow := mcf.BuildInnerMaxFlow("opt", pr.Inst, func(k int) kkt.AffineRHS {
		return kkt.Constant(vols[k])
	}, 1, nil, maxVol)
	patchCaps(optFlow, make([]float64, ne))
	optRes, err := kkt.Emit(m, optFlow.LP, false)
	if err != nil {
		return nil, err
	}

	// Heuristic side: certified residual max-flow over capacity minus the
	// constant pinned load. Slack nonnegativity enforces cap >= pinned load,
	// i.e. the adversary stays within DP-feasible topologies.
	dpFlow := mcf.BuildInnerMaxFlow("dp2", pr.Inst, func(k int) kkt.AffineRHS {
		return kkt.Constant(residVol[k])
	}, 1, nil, maxVol)
	patchCaps(dpFlow, pinLoad)
	dpRes, err := kkt.Emit(m, dpFlow.LP, true)
	if err != nil {
		return nil, err
	}

	// Objective: OPT - (pinnedTotal + residual). The constant pinned volume
	// enters through a variable fixed at pinnedTotal so the model objective
	// equals the true gap exactly (polish incumbents and relaxation bounds
	// then live on the same scale).
	pc := p.AddVar("pinned-const", pinnedTotal, pinnedTotal)
	p.SetObj(pc, -1)
	for _, t := range optRes.Obj.Terms {
		p.SetObj(t.Var, p.Obj(t.Var)+t.Coef)
	}
	for _, t := range dpRes.Obj.Terms {
		p.SetObj(t.Var, p.Obj(t.Var)-t.Coef)
	}
	return b, nil
}

// Stats reports the meta model's size without solving.
func (pr *CapacityGapProblem) Stats() (ModelStats, error) { return searchStats(pr.search(false)) }

// Solve runs the search and verifies the found capacities with the direct
// solvers. Result.Demands carries the adversarial *capacities* here.
func (pr *CapacityGapProblem) Solve(opts milp.Options) (*Result, error) {
	return runGap(opts, nil, pr.search)
}

// search builds the meta model plus runGap's capacity pieces; there are
// no seeds.
func (pr *CapacityGapProblem) search(polish bool) (*gapSearch, error) {
	b, err := pr.build()
	if err != nil {
		return nil, err
	}
	g := &gapSearch{model: b.model, verify: pr.verify,
		read: func(x []float64) []float64 { return pr.clampCaps(b, x) }}
	if polish {
		g.polish = pr.polisher(b)
	}
	return g, nil
}

// priceCaps evaluates the true gap at a capacity assignment, or ok=false
// when DP is infeasible there.
func (pr *CapacityGapProblem) priceCaps(caps []float64) (gap, opt, dp float64, ok bool) {
	g := pr.Inst.G.WithCapacities(caps)
	at := &mcf.Instance{G: g, Demands: pr.Inst.Demands, Paths: pr.Inst.Paths}
	optFlow, err := mcf.SolveMaxFlow(at)
	if err != nil {
		return 0, 0, 0, false
	}
	dpFlow, err := mcf.SolveDemandPinning(at, pr.Threshold)
	if err != nil {
		return 0, 0, 0, false
	}
	return optFlow.Total - dpFlow.Total, optFlow.Total, dpFlow.Total, true
}

// clampCaps reads the capacity assignment off a model point, clamped to
// each edge's bounds.
func (pr *CapacityGapProblem) clampCaps(b *capBuild, x []float64) []float64 {
	caps := make([]float64, len(b.caps))
	for e, cv := range b.caps {
		caps[e] = math.Max(pr.CapLo[e], math.Min(pr.CapHi[e], x[cv]))
	}
	return caps
}

func (pr *CapacityGapProblem) polisher(b *capBuild) func(x []float64) (float64, []float64, bool) {
	cache := newPriceCache(512)
	price := func(caps []float64) (float64, bool) {
		gap, _, _, ok := pr.priceCaps(caps)
		return gap, ok
	}
	return func(x []float64) (float64, []float64, bool) {
		return cache.polishBest(nil, price, x, b.caps, pr.clampCaps(b, x))
	}
}

func (pr *CapacityGapProblem) verify(out *Result) error {
	gap, opt, dp, ok := pr.priceCaps(out.Demands)
	if !ok {
		return fmt.Errorf("core: verifying capacity gap: direct solve failed")
	}
	out.Gap = gap
	out.OptValue = opt
	out.HeurValue = dp
	total := 0.0
	for _, c := range out.Demands {
		total += c
	}
	if total > 0 {
		out.NormalizedGap = gap / total
	}
	return nil
}
