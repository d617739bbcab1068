package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/kkt"
	"repro/internal/lp"
	"repro/internal/mcf"
	"repro/internal/milp"
)

// POPSplitGapProblem searches for adversarial demands against POP *with
// client splitting* — the Appendix-A extension. A demand whose volume
// reaches SplitThreshold is halved repeatedly (up to MaxSplits times per
// client, the appendix's variation), producing 2^s equal clients that are
// partitioned independently.
//
// Appendix A shows the extended heuristic still admits a convex encoding:
// flows for every possible split level are constructed a priori and big-M
// rows activate exactly the level the demand's volume selects. Here the
// level selection is a one-hot binary vector per demand, linked to the
// demand by indicator rows, and each (level, partition) aggregate becomes a
// virtual demand inside the partition's certified max-flow.
type POPSplitGapProblem struct {
	Inst           *mcf.Instance
	Partitions     int
	Instantiations int
	Rng            *rand.Rand
	SplitThreshold float64
	MaxSplits      int
	Input          InputConstraints
}

// levelOf returns the split level client splitting applies to volume v:
// the number of halvings performed (capped at maxSplits).
func levelOf(v, threshold float64, maxSplits int) int {
	s := 0
	for v >= threshold && s < maxSplits {
		v /= 2
		s++
	}
	return s
}

// levelBounds gives the volume interval [lo, hi] selecting level s.
func levelBounds(s, maxSplits int, threshold, maxDemand float64) (float64, float64) {
	if s == 0 {
		return 0, threshold
	}
	lo := threshold * float64(int(1)<<(s-1))
	if s == maxSplits {
		return lo, maxDemand
	}
	return lo, threshold * float64(int(1)<<s)
}

// slotPlan is the pre-drawn partition assignment for every potential slot:
// plan[r][k][s][i] is the partition of the i-th client of demand k at split
// level s in instantiation r.
type slotPlan [][][][]int

func drawSlotPlan(n, instantiations, maxSplits, partitions int, rng *rand.Rand) slotPlan {
	plan := make(slotPlan, instantiations)
	for r := range plan {
		plan[r] = make([][][]int, n)
		for k := 0; k < n; k++ {
			plan[r][k] = make([][]int, maxSplits+1)
			for s := 0; s <= maxSplits; s++ {
				slots := make([]int, 1<<s)
				for i := range slots {
					slots[i] = rng.Intn(partitions)
				}
				plan[r][k][s] = slots
			}
		}
	}
	return plan
}

type popSplitBuild struct {
	model   *milp.Model
	demands []lp.VarID
	levels  [][]lp.VarID // levels[k][s]: one-hot split-level selector
	plan    slotPlan
}

func (pr *POPSplitGapProblem) validate() error {
	if pr.Partitions < 1 {
		return fmt.Errorf("core: POP split needs >= 1 partition")
	}
	if pr.SplitThreshold <= 0 || pr.SplitThreshold > pr.Input.MaxDemand {
		return fmt.Errorf("core: SplitThreshold %g out of (0, %g]", pr.SplitThreshold, pr.Input.MaxDemand)
	}
	if pr.MaxSplits < 1 {
		return fmt.Errorf("core: MaxSplits must be >= 1")
	}
	if pr.Rng == nil {
		return fmt.Errorf("core: POP split needs a seeded Rng")
	}
	return nil
}

func (pr *POPSplitGapProblem) build() (*popSplitBuild, error) {
	n := pr.Inst.Demands.Len()
	if err := pr.Input.validate(pr.Inst.Demands); err != nil {
		return nil, err
	}
	if err := pr.validate(); err != nil {
		return nil, err
	}
	r := pr.Instantiations
	if r < 1 {
		r = 1
	}
	p := lp.NewProblem("pop-split-gap", lp.Maximize)
	m := milp.NewModel(p)
	b := &popSplitBuild{model: m}
	b.demands = pr.Input.addDemandVars(m, n)
	b.plan = drawSlotPlan(n, r, pr.MaxSplits, pr.Partitions, pr.Rng)

	// OPT side (client splitting does not change the optimum).
	optFlow := mcf.BuildInnerMaxFlow("opt", pr.Inst, func(k int) kkt.AffineRHS {
		return kkt.Var(b.demands[k], 1, 0)
	}, 1, nil, pr.Input.MaxDemand)
	optRes, err := kkt.Emit(m, optFlow.LP, false)
	if err != nil {
		return nil, err
	}

	// One-hot split-level selectors linked to the demand volume.
	maxD := pr.Input.MaxDemand
	b.levels = make([][]lp.VarID, n)
	for k := 0; k < n; k++ {
		one := lp.NewExpr()
		b.levels[k] = make([]lp.VarID, pr.MaxSplits+1)
		for s := 0; s <= pr.MaxSplits; s++ {
			v := m.AddBinary(fmt.Sprintf("lvl%d.%d", k, s))
			b.levels[k][s] = v
			one = one.Add(v, 1)
			lo, hi := levelBounds(s, pr.MaxSplits, pr.SplitThreshold, maxD)
			// v=1 => lo <= d_k <= hi (boundaries inclusive on both sides —
			// the appendix's epsilon; the maximizer resolves ties and the
			// verification step reports the exact heuristic semantics).
			m.AddIndicatorLE(fmt.Sprintf("lvl%d.%d.hi", k, s), v,
				lp.NewExpr().Add(b.demands[k], 1), hi, maxD)
			m.AddIndicatorGE(fmt.Sprintf("lvl%d.%d.lo", k, s), v,
				lp.NewExpr().Add(b.demands[k], 1), lo, maxD)
		}
		p.AddConstraint(fmt.Sprintf("lvl%d.one", k), one, lp.EQ, 1)
	}

	// Heuristic side: per instantiation and partition, a certified max-flow
	// whose virtual demands are the (demand, level) slot aggregates.
	capFrac := 1 / float64(pr.Partitions)
	inv := 1 / float64(r)
	var heur lp.Expr
	for ri := 0; ri < r; ri++ {
		for c := 0; c < pr.Partitions; c++ {
			in, obj, err := pr.buildPartitionLP(b, ri, c, capFrac)
			if err != nil {
				return nil, err
			}
			if in == nil {
				continue
			}
			res, err := kkt.Emit(m, in, true)
			if err != nil {
				return nil, err
			}
			// Translate the local objective expression onto emitted vars.
			for _, t := range obj.Terms {
				heur = heur.Add(res.X[t.Var], t.Coef*inv)
			}
		}
	}

	for _, t := range optRes.Obj.Terms {
		p.SetObj(t.Var, p.Obj(t.Var)+t.Coef)
	}
	for _, t := range heur.Terms {
		p.SetObj(t.Var, p.Obj(t.Var)-t.Coef)
	}
	return b, nil
}

// buildPartitionLP assembles the inner LP of one (instantiation, partition):
// flow variables per (demand, level, path), volume rows tying flow to the
// aggregated slot volume count/2^s * d_k, and gating rows zeroing levels the
// demand did not select. Returns nil when no slot maps to the partition.
// The second return value indexes the objective over *local* variables.
func (pr *POPSplitGapProblem) buildPartitionLP(b *popSplitBuild, ri, c int, capFrac float64) (*kkt.InnerLP, lp.Expr, error) {
	n := pr.Inst.Demands.Len()
	maxD := pr.Input.MaxDemand
	in := &kkt.InnerLP{Name: fmt.Sprintf("split%d.%d", ri, c)}
	var obj lp.Expr
	type group struct {
		k, s  int
		count int
		vars  []int // local flow var per path
	}
	var groups []group
	for k := 0; k < n; k++ {
		for s := 0; s <= pr.MaxSplits; s++ {
			count := 0
			for _, part := range b.plan[ri][k][s] {
				if part == c {
					count++
				}
			}
			if count == 0 {
				continue
			}
			g := group{k: k, s: s, count: count}
			for range pr.Inst.Paths[k] {
				g.vars = append(g.vars, in.NumVars)
				in.Obj = append(in.Obj, 1)
				in.VarUB = append(in.VarUB, maxD)
				in.NumVars++
			}
			groups = append(groups, g)
		}
	}
	if len(groups) == 0 {
		return nil, lp.Expr{}, nil
	}
	for gi, g := range groups {
		frac := float64(g.count) / float64(int(1)<<g.s)
		volRow := kkt.Row{
			Name: fmt.Sprintf("vol%d", gi), Rel: lp.LE,
			RHS:     kkt.Var(b.demands[g.k], frac, 0),
			DualUB:  1,
			SlackUB: maxD,
		}
		gateRow := kkt.Row{
			Name: fmt.Sprintf("gate%d", gi), Rel: lp.LE,
			RHS:     kkt.Var(b.levels[g.k][g.s], maxD, 0),
			DualUB:  1,
			SlackUB: maxD,
		}
		for _, v := range g.vars {
			volRow.Terms = append(volRow.Terms, kkt.InnerTerm{Var: v, Coef: 1})
			gateRow.Terms = append(gateRow.Terms, kkt.InnerTerm{Var: v, Coef: 1})
			obj = obj.Add(lp.VarID(v), 1)
		}
		in.AddRow(volRow)
		in.AddRow(gateRow)
	}
	for e := 0; e < pr.Inst.G.NumEdges(); e++ {
		capVal := pr.Inst.G.Edge(e).Capacity * capFrac
		row := kkt.Row{
			Name: fmt.Sprintf("cap%d", e), Rel: lp.LE,
			RHS: kkt.Constant(capVal), DualUB: 1, SlackUB: capVal,
		}
		for _, g := range groups {
			for pi, path := range pr.Inst.Paths[g.k] {
				if path.Contains(e) {
					row.Terms = append(row.Terms, kkt.InnerTerm{Var: g.vars[pi], Coef: 1})
				}
			}
		}
		in.AddRow(row)
	}
	return in, obj, nil
}

// Stats reports the meta model's size without solving.
func (pr *POPSplitGapProblem) Stats() (ModelStats, error) { return searchStats(pr.search(false)) }

// Solve runs the white-box search and verifies against a direct evaluation
// of split POP on the same slot plan.
func (pr *POPSplitGapProblem) Solve(opts milp.Options) (*Result, error) {
	return runGap(opts, nil, pr.search)
}

// search builds the meta model plus runGap's split-POP pieces; the one
// seed is the all-max input.
func (pr *POPSplitGapProblem) search(polish bool) (*gapSearch, error) {
	b, err := pr.build()
	if err != nil {
		return nil, err
	}
	g := &gapSearch{model: b.model,
		verify: func(out *Result) error { return pr.verify(out, b.plan) },
		read: func(x []float64) []float64 {
			out := make([]float64, len(b.demands))
			for k, dv := range b.demands {
				out[k] = math.Max(pr.Input.MinDemand, math.Min(pr.Input.MaxDemand, x[dv]))
			}
			return out
		}}
	if polish {
		g.polish = pr.polisher(b)
		x := make([]float64, b.model.P.NumVars())
		for _, dv := range b.demands {
			x[dv] = pr.Input.MaxDemand
		}
		g.seeds = [][]float64{x}
	}
	return g, nil
}

// evalSplitPOP prices split POP exactly under the fixed slot plan and
// returns the mean total flow across instantiations.
func (pr *POPSplitGapProblem) evalSplitPOP(d []float64, plan slotPlan) (float64, error) {
	at := pr.Inst.WithVolumes(d)
	sum := 0.0
	for _, instPlan := range plan {
		var clients []mcf.Client
		var assign []int
		for k, v := range d {
			s := levelOf(v, pr.SplitThreshold, pr.MaxSplits)
			vol := v / float64(int(1)<<s)
			for _, part := range instPlan[k][s] {
				clients = append(clients, mcf.Client{Demand: k, Volume: vol})
				assign = append(assign, part)
			}
		}
		f, err := mcf.SolvePOPAssigned(at, clients, assign, pr.Partitions)
		if err != nil {
			return 0, err
		}
		sum += f.Total
	}
	return sum / float64(len(plan)), nil
}

func (pr *POPSplitGapProblem) polisher(b *popSplitBuild) func(x []float64) (float64, []float64, bool) {
	cache := newPriceCache(512)
	pc := mcf.NewPricer(pr.Inst)
	price := func(d []float64) (float64, bool) {
		opt, err := pc.MaxFlow(d)
		if err != nil {
			return 0, false
		}
		heur, err := pr.evalSplitPOP(d, b.plan)
		if err != nil {
			return 0, false
		}
		return opt.Total - heur, true
	}
	return func(x []float64) (float64, []float64, bool) {
		raw := make([]float64, len(b.demands))
		for k, dv := range b.demands {
			raw[k] = x[dv]
		}
		return cache.polishBest(&pr.Input, price, x, b.demands, raw)
	}
}

func (pr *POPSplitGapProblem) verify(out *Result, plan slotPlan) error {
	at := pr.Inst.WithVolumes(out.Demands)
	opt, err := mcf.SolveMaxFlow(at)
	if err != nil {
		return fmt.Errorf("core: verifying OPT: %w", err)
	}
	heur, err := pr.evalSplitPOP(out.Demands, plan)
	if err != nil {
		return fmt.Errorf("core: verifying split POP: %w", err)
	}
	out.priced(opt.Total, heur, pr.Inst.G.TotalCapacity())
	return nil
}
