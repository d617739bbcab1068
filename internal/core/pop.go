package core

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/kkt"
	"repro/internal/lp"
	"repro/internal/mcf"
	"repro/internal/milp"
	"repro/internal/sortnet"
)

// POPGapProblem searches for demands maximizing OPT - POP (Section 3.2,
// "Supporting POP"). POP's value is a random variable over partitionings;
// the search targets a deterministic descriptor of it: the empirical mean
// over Instantiations fixed random assignments (expectation mode, the
// paper's default resolution of Figure 5a), or a tail percentile computed
// with a sorting network.
type POPGapProblem struct {
	Inst       *mcf.Instance
	Partitions int
	// Instantiations is the number of fixed random partitionings R averaged
	// over (paper: 5 suffice; 1 reproduces the brittle single-sample mode of
	// Figure 5a).
	Instantiations int
	// Rng draws the assignments when Assignments is nil.
	Rng *rand.Rand
	// Assignments, when non-nil, fixes the demand-to-partition assignment of
	// each instantiation explicitly (len Instantiations x numDemands).
	Assignments [][]int
	// TailPercentile, when non-nil, switches from expectation to the sorted
	// descriptor: 0 targets the worst instantiation, 0.5 the median, 1 the
	// best.
	TailPercentile *float64
	Input          InputConstraints
	// FullKKTOpt and BigMComplementarity are the same ablations as in
	// DPGapProblem.
	FullKKTOpt          bool
	BigMComplementarity float64
	// DisablePolish turns off the direct-solver primal heuristic.
	DisablePolish bool
}

type popBuild struct {
	model       *milp.Model
	demands     []lp.VarID
	assignments [][]int
}

func (pr *POPGapProblem) build() (*popBuild, error) {
	n := pr.Inst.Demands.Len()
	if err := pr.Input.validate(pr.Inst.Demands); err != nil {
		return nil, err
	}
	if pr.Partitions < 1 {
		return nil, fmt.Errorf("core: POP needs >= 1 partition")
	}
	r := pr.Instantiations
	if r < 1 {
		r = 1
	}
	assignments := pr.Assignments
	if assignments == nil {
		if pr.Rng == nil {
			return nil, fmt.Errorf("core: POP gap needs Rng or explicit Assignments")
		}
		assignments = make([][]int, r)
		for i := range assignments {
			assignments[i] = mcf.RandomAssignment(n, pr.Partitions, pr.Rng)
		}
	}
	if len(assignments) != r {
		return nil, fmt.Errorf("core: %d assignments for %d instantiations", len(assignments), r)
	}
	for _, a := range assignments {
		if len(a) != n {
			return nil, fmt.Errorf("core: assignment length %d, want %d", len(a), n)
		}
	}

	p := lp.NewProblem("pop-gap", lp.Maximize)
	m := milp.NewModel(p)
	b := &popBuild{model: m, assignments: assignments}
	b.demands = pr.Input.addDemandVars(m, n)

	// OPT side.
	optFlow := mcf.BuildInnerMaxFlow("opt", pr.Inst, func(k int) kkt.AffineRHS {
		return kkt.Var(b.demands[k], 1, 0)
	}, 1, nil, pr.Input.MaxDemand)
	optRes, err := kkt.Emit(m, optFlow.LP, pr.FullKKTOpt)
	if err != nil {
		return nil, err
	}

	// Heuristic side: per instantiation, per partition, a certified inner
	// max-flow over that partition's demands with capacities divided by the
	// partition count — formulation (6).
	capFrac := 1 / float64(pr.Partitions)
	var instObjs []lp.Expr // heuristic total per instantiation
	for ri, assign := range assignments {
		var instObj lp.Expr
		for c := 0; c < pr.Partitions; c++ {
			if !slices.Contains(assign, c) {
				continue
			}
			fl := mcf.BuildInnerMaxFlow(fmt.Sprintf("pop%d.%d", ri, c), pr.Inst,
				func(k int) kkt.AffineRHS { return kkt.Var(b.demands[k], 1, 0) },
				capFrac, func(k int) bool { return assign[k] == c }, pr.Input.MaxDemand)
			res, err := kkt.Emit(m, fl.LP, true)
			if err != nil {
				return nil, err
			}
			instObj = instObj.AddExpr(res.Obj, 1)
		}
		instObjs = append(instObjs, instObj)
	}

	// Descriptor (the term subtracted in the objective): expectation or
	// sorted percentile.
	var heurTerm lp.Expr
	if pr.TailPercentile == nil {
		inv := 1 / float64(r)
		for _, io := range instObjs {
			heurTerm = heurTerm.AddExpr(io, inv)
		}
	} else {
		// Sorting network over the instantiation totals; every total lies in
		// [0, n*MaxDemand].
		bigM := float64(n) * pr.Input.MaxDemand
		outs := sortnet.Emit(m, "tail", instObjs, bigM)
		idx := sortnet.PercentileIndex(*pr.TailPercentile, len(outs))
		heurTerm = lp.NewExpr().Add(outs[idx], 1)
	}

	for _, t := range optRes.Obj.Terms {
		p.SetObj(t.Var, t.Coef)
	}
	for _, t := range heurTerm.Terms {
		p.SetObj(t.Var, p.Obj(t.Var)-t.Coef)
	}
	if pr.BigMComplementarity > 0 {
		m.ReplacePairsWithBigM(pr.BigMComplementarity)
	}
	return b, nil
}

// Stats builds the meta model and reports its size without solving.
func (pr *POPGapProblem) Stats() (ModelStats, error) { return searchStats(pr.search(false)) }

// Fingerprint builds the meta model and reports the search fingerprint
// Solve(opts) would stamp on its milp result — the identity cmd/gapserved
// keys its result cache and checkpoint files by — without solving anything.
// When Assignments is nil the build consumes draws from Rng, so callers must
// construct a fresh problem (same seed) for a subsequent Solve; gapserved
// does exactly that.
func (pr *POPGapProblem) Fingerprint(opts milp.Options) (uint64, error) {
	b, err := pr.build()
	if err != nil {
		return 0, err
	}
	return milp.SearchFingerprint(b.model, opts), nil
}

// Solve runs the white-box search and verifies the result against direct
// POP solves on the same fixed assignments.
func (pr *POPGapProblem) Solve(opts milp.Options) (*Result, error) {
	return runGap(opts, nil, pr.search)
}

// Resume continues a white-box search from a branch-and-bound checkpoint
// written by an earlier Solve with Options.Checkpoint set. The meta model
// is rebuilt from the problem description — including the Rng-drawn
// assignments, so the caller must reconstruct the problem with the same
// seed (milp.Resume rejects mismatched fingerprints) — and the search
// picks up at the snapshotted wave boundary.
func (pr *POPGapProblem) Resume(st *checkpoint.BnBState, opts milp.Options) (*Result, error) {
	if st == nil {
		return nil, fmt.Errorf("core: nil checkpoint state")
	}
	return runGap(opts, st, pr.search)
}

// search builds the meta model plus runGap's POP-specific pieces. The
// seeds are priced against the problem's own descriptor: the all-max input
// (POP's generic weakness, capacity fragmentation), and per-instantiation
// "concentrated" inputs that load a single partition's demands while the
// others idle — the structure behind the paper's observation that "unused
// capacity in a partition can be used to carry demands of another
// partition". Against one instantiation these overfit (Figure 5a); against
// the R-average only robustly bad ones survive the pricing.
func (pr *POPGapProblem) search(polish bool) (*gapSearch, error) {
	b, err := pr.build()
	if err != nil {
		return nil, err
	}
	pc, descriptor := mcf.NewPricer(pr.Inst), pr.descriptor()
	price := gapPrice(func(d []float64) (float64, float64, error) {
		return pc.POPGap(d, b.assignments, pr.Partitions, descriptor)
	})
	g := &gapSearch{model: b.model, verify: price.verifier(pr.Inst.G.TotalCapacity()),
		read: func(x []float64) []float64 {
			out := make([]float64, len(b.demands))
			for k, dv := range b.demands {
				d := x[dv]
				if d < pr.Input.MinDemand {
					d = pr.Input.MinDemand
				}
				if d > pr.Input.MaxDemand {
					d = pr.Input.MaxDemand
				}
				out[k] = d
			}
			return out
		}}
	if !polish || pr.DisablePolish {
		return g, nil
	}
	g.polish = pr.polisher(b, price.gap)
	nv := b.model.P.NumVars()
	x := make([]float64, nv)
	for _, dv := range b.demands {
		x[dv] = pr.Input.MaxDemand
	}
	g.seeds = append(g.seeds, x)
	for _, assign := range b.assignments {
		for c := 0; c < pr.Partitions; c++ {
			x := make([]float64, nv)
			for k, part := range assign {
				if part == c {
					x[b.demands[k]] = pr.Input.MaxDemand
				}
			}
			g.seeds = append(g.seeds, x)
		}
	}
	return g, nil
}

// polisher returns the primal heuristic for the POP gap search: price the
// relaxation's (repaired) demand vector exactly with price, over the same
// fixed assignments and descriptor as the search.
func (pr *POPGapProblem) polisher(b *popBuild, price func([]float64) (float64, bool)) func(x []float64) (float64, []float64, bool) {
	cache := newPriceCache(512)
	return func(x []float64) (float64, []float64, bool) {
		raw := make([]float64, len(b.demands))
		maxed := make([]float64, len(b.demands))
		for k, dv := range b.demands {
			raw[k] = x[dv]
			maxed[k] = pr.Input.MaxDemand
		}
		// Price the relaxation's vector and the all-max rounding (POP's
		// fragmentation hurts most when demands saturate the box).
		return cache.polishBest(&pr.Input, price, x, b.demands, raw, maxed)
	}
}

// descriptor returns the reduction of the per-instantiation POP totals the
// search targets: nil for their mean, or the TailPercentile order
// statistic.
func (pr *POPGapProblem) descriptor() func(totals []float64) float64 {
	if pr.TailPercentile == nil {
		return nil
	}
	p := *pr.TailPercentile
	return func(totals []float64) float64 {
		sorted := sortnet.Sort(totals)
		return sorted[sortnet.PercentileIndex(p, len(sorted))]
	}
}

// POPTransferGap evaluates how an adversarial input generalizes: it draws
// rounds fresh random partitionings and returns the average OPT - POP gap —
// the test of Figure 5a ("tested on 10 other random partitions").
func POPTransferGap(inst *mcf.Instance, demands []float64, partitions, rounds int, rng *rand.Rand) (float64, error) {
	pc := mcf.NewPricer(inst)
	opt, err := pc.MaxFlow(demands)
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for i := 0; i < rounds; i++ {
		f, err := pc.POP(demands, mcf.POPOptions{Partitions: partitions, Rng: rng})
		if err != nil {
			return 0, err
		}
		sum += opt.Total - f.Total
	}
	return sum / float64(rounds), nil
}
