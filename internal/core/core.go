// Package core implements the paper's contribution: finding the input that
// maximizes the gap between an optimal algorithm and a heuristic,
//
//	argmax_{I in ConstrainedSet}  OPT(I) - Heuristic(I),          (1)
//
// by rewriting the two-stage (Stackelberg) problem into a single-shot
// mixed problem. The OPT inner problem is emitted with primal feasibility
// only (its value appears with a positive sign, so the outer maximizer
// drives it to optimality); the heuristic inner problem is certified with
// the full KKT system so its value is exactly the heuristic's optimum.
// Conditional heuristics (Demand Pinning) get big-M indicator constraints,
// and randomized heuristics (POP) are handled in expectation over multiple
// fixed instantiations or at a tail percentile via a sorting network —
// precisely the toolbox of Sections 3.1-3.3 and Appendix A.
package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/demand"
	"repro/internal/lp"
	"repro/internal/milp"
	"repro/internal/obs"
)

// InputConstraints is the paper's ConstrainedSet: the region of inputs the
// adversary may pick demands from.
type InputConstraints struct {
	// MaxDemand bounds every demand from above (required, > 0). The paper's
	// experiments bound demands by link capacity.
	MaxDemand float64
	// MinDemand bounds every demand from below (default 0).
	MinDemand float64
	// Goalposts restrict demands to lie near reference vectors
	// (Section 3.3, "bounded distance from a goalpost").
	Goalposts []Goalpost
	// MaxDevFromMean, when > 0, is the intra-input constraint of
	// Section 3.3: every demand within this distance of the mean demand.
	MaxDevFromMean float64
	// Levels, when non-empty, quantizes each demand to one of these values
	// (Section 5: "constraining or quantizing the space of inputs can
	// speed up the search"). Implemented with one binary per (demand,
	// level).
	Levels []float64
	// Exclusions lists previously found demand vectors; each new input must
	// differ from every excluded vector by at least ExclusionRadius in some
	// coordinate ("search for diverse kinds of bad inputs by iteratively
	// removing the previously-found inputs", Section 5).
	Exclusions      [][]float64
	ExclusionRadius float64
	// Hose, when non-nil, applies the hose model the paper cites as a
	// realistic input class: each node's total egress and ingress demand is
	// bounded. Hose[n] bounds node n (0 disables that node's bound).
	Hose *HoseConstraint
}

// HoseConstraint bounds per-node aggregate demand: for every node n,
// sum of demands sourced at n <= Egress[n] and sum of demands destined to n
// <= Ingress[n]. A zero entry leaves that side unconstrained.
type HoseConstraint struct {
	Egress  []float64
	Ingress []float64
	// Pairs must mirror the demand set's pairs so the constraint knows each
	// demand's endpoints; core fills this from the instance automatically
	// when left nil.
	Pairs []demand.Pair
}

// Goalpost constrains demands to a band around a reference vector. A NaN
// reference entry leaves that demand unconstrained ("the goalpost may be
// partially specified").
type Goalpost struct {
	Reference []float64
	// MaxAbsDev allows |d_k - ref_k| <= MaxAbsDev when > 0.
	MaxAbsDev float64
	// MaxRelDev allows |d_k - ref_k| <= MaxRelDev*ref_k when > 0. Both may
	// be set; the intersection applies.
	MaxRelDev float64
}

// dev is the band half-width the goalpost allows around reference ref.
func (gp Goalpost) dev(ref float64) float64 {
	dev := math.Inf(1)
	if gp.MaxAbsDev > 0 {
		dev = gp.MaxAbsDev
	}
	if gp.MaxRelDev > 0 {
		dev = math.Min(dev, gp.MaxRelDev*ref)
	}
	return dev
}

// validate checks the constraints against the instance's demand set,
// first copying its pair list into a hose constraint that left it nil.
func (ic *InputConstraints) validate(set *demand.Set) error {
	if ic.Hose != nil && ic.Hose.Pairs == nil {
		ic.Hose.Pairs = set.Pairs()
	}
	n := set.Len()
	if ic.MaxDemand <= 0 {
		return fmt.Errorf("core: MaxDemand must be > 0")
	}
	if ic.MinDemand < 0 || ic.MinDemand > ic.MaxDemand {
		return fmt.Errorf("core: MinDemand %g out of [0, %g]", ic.MinDemand, ic.MaxDemand)
	}
	for _, gp := range ic.Goalposts {
		if len(gp.Reference) != n {
			return fmt.Errorf("core: goalpost has %d references for %d demands", len(gp.Reference), n)
		}
		if gp.MaxAbsDev <= 0 && gp.MaxRelDev <= 0 {
			return fmt.Errorf("core: goalpost needs MaxAbsDev or MaxRelDev > 0")
		}
	}
	for _, lv := range ic.Levels {
		if lv < 0 || lv > ic.MaxDemand {
			return fmt.Errorf("core: level %g out of [0, %g]", lv, ic.MaxDemand)
		}
	}
	if len(ic.Exclusions) > 0 && ic.ExclusionRadius <= 0 {
		return fmt.Errorf("core: exclusions need ExclusionRadius > 0")
	}
	for _, ex := range ic.Exclusions {
		if len(ex) != n {
			return fmt.Errorf("core: exclusion vector has %d entries for %d demands", len(ex), n)
		}
	}
	if h := ic.Hose; h != nil {
		if len(h.Pairs) != n {
			return fmt.Errorf("core: hose constraint has %d pairs for %d demands", len(h.Pairs), n)
		}
		for _, p := range h.Pairs {
			if int(p.Src) >= len(h.Egress) && len(h.Egress) > 0 {
				return fmt.Errorf("core: hose egress bounds missing node %d", p.Src)
			}
			if int(p.Dst) >= len(h.Ingress) && len(h.Ingress) > 0 {
				return fmt.Errorf("core: hose ingress bounds missing node %d", p.Dst)
			}
		}
	}
	return nil
}

// addDemandVars creates the outer demand variables and applies every input
// constraint to the meta model.
func (ic *InputConstraints) addDemandVars(m *milp.Model, n int) []lp.VarID {
	p := m.P
	dvars := make([]lp.VarID, n)
	for k := 0; k < n; k++ {
		dvars[k] = p.AddVar(fmt.Sprintf("d%d", k), ic.MinDemand, ic.MaxDemand)
	}

	for gi, gp := range ic.Goalposts {
		for k, ref := range gp.Reference {
			if math.IsNaN(ref) {
				continue
			}
			dev := gp.dev(ref)
			p.AddConstraint(fmt.Sprintf("gp%d.hi%d", gi, k),
				lp.NewExpr().Add(dvars[k], 1), lp.LE, ref+dev)
			p.AddConstraint(fmt.Sprintf("gp%d.lo%d", gi, k),
				lp.NewExpr().Add(dvars[k], 1), lp.GE, ref-dev)
		}
	}

	if ic.MaxDevFromMean > 0 {
		inv := 1 / float64(n)
		for k := 0; k < n; k++ {
			// d_k - mean(d) within +/- MaxDevFromMean.
			hi := lp.NewExpr().Add(dvars[k], 1)
			for _, dv := range dvars {
				hi = hi.Add(dv, -inv)
			}
			p.AddConstraint(fmt.Sprintf("mean.hi%d", k), hi, lp.LE, ic.MaxDevFromMean)
			p.AddConstraint(fmt.Sprintf("mean.lo%d", k), hi, lp.GE, -ic.MaxDevFromMean)
		}
	}

	if len(ic.Levels) > 0 {
		for k := 0; k < n; k++ {
			sel := lp.NewExpr()
			val := lp.NewExpr().Add(dvars[k], -1)
			for li, lv := range ic.Levels {
				b := m.AddBinary(fmt.Sprintf("lvl%d.%d", k, li))
				sel = sel.Add(b, 1)
				if lv != 0 {
					val = val.Add(b, lv)
				}
			}
			p.AddConstraint(fmt.Sprintf("lvl%d.one", k), sel, lp.EQ, 1)
			p.AddConstraint(fmt.Sprintf("lvl%d.val", k), val, lp.EQ, 0)
		}
	}

	// Hose model: per-node egress/ingress aggregate bounds. Constraints are
	// added in sorted node order: the LP's row order fixes the simplex pivot
	// sequence (and the dual vector's layout), so ranging over the maps
	// directly would leak map iteration order into the solve.
	if h := ic.Hose; h != nil {
		egress := map[int]lp.Expr{}
		ingress := map[int]lp.Expr{}
		for k, pr := range h.Pairs {
			if len(h.Egress) > int(pr.Src) && h.Egress[pr.Src] > 0 {
				egress[int(pr.Src)] = egress[int(pr.Src)].Add(dvars[k], 1)
			}
			if len(h.Ingress) > int(pr.Dst) && h.Ingress[pr.Dst] > 0 {
				ingress[int(pr.Dst)] = ingress[int(pr.Dst)].Add(dvars[k], 1)
			}
		}
		for _, node := range sortedKeys(egress) {
			p.AddConstraint(fmt.Sprintf("hose.out%d", node), egress[node], lp.LE, h.Egress[node])
		}
		for _, node := range sortedKeys(ingress) {
			p.AddConstraint(fmt.Sprintf("hose.in%d", node), ingress[node], lp.LE, h.Ingress[node])
		}
	}

	// Exclusion zones: for each excluded vector, at least one coordinate
	// must deviate by the radius; one binary per (demand, direction).
	bigM := ic.MaxDemand + ic.ExclusionRadius
	for xi, ex := range ic.Exclusions {
		any := lp.NewExpr()
		for k := 0; k < n; k++ {
			up := m.AddBinary(fmt.Sprintf("ex%d.up%d", xi, k))
			dn := m.AddBinary(fmt.Sprintf("ex%d.dn%d", xi, k))
			any = any.Add(up, 1).Add(dn, 1)
			// up=1 => d_k >= ex_k + radius.
			m.AddIndicatorGE(fmt.Sprintf("ex%d.upc%d", xi, k), up,
				lp.NewExpr().Add(dvars[k], 1), ex[k]+ic.ExclusionRadius, bigM)
			// dn=1 => d_k <= ex_k - radius.
			m.AddIndicatorLE(fmt.Sprintf("ex%d.dnc%d", xi, k), dn,
				lp.NewExpr().Add(dvars[k], 1), ex[k]-ic.ExclusionRadius, bigM)
		}
		p.AddConstraint(fmt.Sprintf("ex%d.any", xi), any, lp.GE, 1)
	}
	return dvars
}

// sanitize turns a relaxation's demand vector into a legal member of the
// constrained set where cheaply possible (clamping to the box and
// goalposts, rounding to levels), then verifies every constraint. It
// returns ok=false when the point cannot be repaired by those local moves —
// the polish step simply skips such nodes.
func (ic *InputConstraints) sanitize(d []float64) ([]float64, bool) {
	out := append([]float64(nil), d...)
	for k := range out {
		out[k] = math.Max(ic.MinDemand, math.Min(ic.MaxDemand, out[k]))
	}
	for _, gp := range ic.Goalposts {
		for k, ref := range gp.Reference {
			if math.IsNaN(ref) {
				continue
			}
			dev := gp.dev(ref)
			out[k] = math.Max(ref-dev, math.Min(ref+dev, out[k]))
		}
	}
	if len(ic.Levels) > 0 {
		for k := range out {
			best, bestDist := ic.Levels[0], math.Abs(out[k]-ic.Levels[0])
			for _, lv := range ic.Levels[1:] {
				if dist := math.Abs(out[k] - lv); dist < bestDist {
					best, bestDist = lv, dist
				}
			}
			out[k] = best
		}
	}
	return out, ic.satisfied(out)
}

// satisfied verifies every constraint within tolerance.
func (ic *InputConstraints) satisfied(d []float64) bool {
	const tol = 1e-7
	mean := 0.0
	for _, x := range d {
		if x < ic.MinDemand-tol || x > ic.MaxDemand+tol {
			return false
		}
		mean += x
	}
	mean /= float64(len(d))
	for _, gp := range ic.Goalposts {
		for k, ref := range gp.Reference {
			if math.IsNaN(ref) {
				continue
			}
			if math.Abs(d[k]-ref) > gp.dev(ref)+tol {
				return false
			}
		}
	}
	if ic.MaxDevFromMean > 0 {
		for _, x := range d {
			if math.Abs(x-mean) > ic.MaxDevFromMean+tol {
				return false
			}
		}
	}
	for _, ex := range ic.Exclusions {
		far := false
		for k := range d {
			if math.Abs(d[k]-ex[k]) >= ic.ExclusionRadius-tol {
				far = true
				break
			}
		}
		if !far {
			return false
		}
	}
	if h := ic.Hose; h != nil {
		egress := map[int]float64{}
		ingress := map[int]float64{}
		for k, pr := range h.Pairs {
			egress[int(pr.Src)] += d[k]
			ingress[int(pr.Dst)] += d[k]
		}
		for node, total := range egress {
			if len(h.Egress) > node && h.Egress[node] > 0 && total > h.Egress[node]+tol {
				return false
			}
		}
		for node, total := range ingress {
			if len(h.Ingress) > node && h.Ingress[node] > 0 && total > h.Ingress[node]+tol {
				return false
			}
		}
	}
	return true
}

// sortedKeys returns m's keys in increasing order, for deterministic
// iteration over node-indexed maps.
func sortedKeys(m map[int]lp.Expr) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// constantVector returns a length-n vector filled with v.
func constantVector(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// ModelStats records the size of the single-shot optimization — the
// quantities Figure 6 plots.
type ModelStats struct {
	Vars       int // total meta-model variables
	LinearCons int // linear constraints
	SOSPairs   int // complementarity pairs from the KKT rewrite
	Binaries   int // indicator/selection binaries
}

// Result is the outcome of a gap search.
type Result struct {
	// Gap is the verified OPT(I) - Heuristic(I) at the found input,
	// recomputed with the direct solvers (not the meta model's own value).
	Gap float64
	// NormalizedGap is Gap divided by the topology's total edge capacity —
	// the metric of Figure 3.
	NormalizedGap float64
	// Demands is the adversarial input found.
	Demands []float64
	// OptValue and HeurValue are the verified inner objective values.
	OptValue, HeurValue float64
	// ModelGap is the gap the meta model claimed; it should match Gap up to
	// tolerance (a mismatch indicates an encoding bug or a loose big-M).
	ModelGap float64
	// Stats describes the meta model's size.
	Stats ModelStats
	// Timings records wall time per solve phase, complementing Stats' static
	// sizes — the dynamic half of the Figure-6 scaling story.
	Timings PhaseTimings
	// Solver carries branch-and-bound diagnostics (status, bound, nodes).
	Solver *milp.Result
}

// priced records the inner values the direct solvers verified at the found
// input, with the gap normalized by the topology's total capacity.
func (r *Result) priced(opt, heur, totalCapacity float64) {
	r.OptValue, r.HeurValue, r.Gap = opt, heur, opt-heur
	r.NormalizedGap = r.Gap / totalCapacity
}

// PhaseTimings is the wall time spent in each phase of a gap search. When a
// Tracer is set on the search Options, the same phases are also emitted as
// phase_start/phase_end events (and land in the metrics registry as
// phase_<name>_seconds histograms through a MetricsSink).
type PhaseTimings struct {
	// Build covers meta-model construction, including pricing the structured
	// seed candidates with the direct solvers.
	Build time.Duration
	// Solve is the branch-and-bound search itself.
	Solve time.Duration
	// Verify is re-pricing the found input with the direct solvers.
	Verify time.Duration
}

// statsOf snapshots model sizes after construction.
func statsOf(m *milp.Model) ModelStats {
	return ModelStats{
		Vars:       m.P.NumVars(),
		LinearCons: m.P.NumConstraints(),
		SOSPairs:   m.NumComplementarities(),
		Binaries:   m.NumBinaries(),
	}
}

// searchStats reports the size of a built meta model, for the problems'
// Stats methods.
func searchStats(g *gapSearch, err error) (ModelStats, error) {
	if err != nil {
		return ModelStats{}, err
	}
	return statsOf(g.model), nil
}

// gapSearch is one gap problem's meta model plus the problem-specific
// pieces runGap needs.
type gapSearch struct {
	model *milp.Model
	// polish is the direct-solver primal heuristic, nil when polishing is
	// off; seeds are model points priced through it, in order, and handed
	// to the solver as seed incumbents.
	polish func(x []float64) (float64, []float64, bool)
	seeds  [][]float64
	// read turns the solver's incumbent into the reported input, clamped to
	// its box (and snapped where the encoding calls for it).
	read func(x []float64) []float64
	// verify re-prices the reported input with the direct solvers.
	verify func(out *Result) error
}

// runGap runs the search behind every gap problem: build the meta
// model and price its seeds, run branch and bound (a fresh Solve, or a
// Resume when st is non-nil), and verify the found input — each phase timed
// through obs.TimePhase. build is told whether runGap wants a polisher:
// not when the caller already supplied opts.Polish.
func runGap(opts milp.Options, st *checkpoint.BnBState, build func(polish bool) (*gapSearch, error)) (*Result, error) {
	var tm PhaseTimings
	var g *gapSearch
	var err error
	tm.Build, err = obs.TimePhase(opts.Tracer, "build", func() (berr error) {
		if g, berr = build(opts.Polish == nil); berr != nil {
			return berr
		}
		if g.polish != nil {
			opts.Polish = g.polish
			// Priced up front so even a search whose node LPs exceed the
			// budget returns a genuine adversarial input.
			for _, x := range g.seeds {
				if obj, sol, ok := g.polish(x); ok {
					opts.Seeds = append(opts.Seeds, milp.Seed{Objective: obj, X: sol})
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var res *milp.Result
	tm.Solve, err = obs.TimePhase(opts.Tracer, "solve", func() (serr error) {
		if st != nil {
			res, serr = milp.Resume(g.model, st, opts)
		} else {
			res, serr = milp.Solve(g.model, opts)
		}
		return serr
	})
	if err != nil {
		return nil, err
	}
	out := &Result{Stats: statsOf(g.model), Timings: tm, Solver: res}
	if res.X == nil {
		return out, nil
	}
	out.ModelGap = res.Objective
	out.Demands = g.read(res.X)
	out.Timings.Verify, err = obs.TimePhase(opts.Tracer, "verify", func() error {
		return g.verify(out)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
