package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/kkt"
	"repro/internal/lp"
	"repro/internal/mcf"
	"repro/internal/milp"
)

// DPGapProblem searches for demands maximizing OPT - DemandPinning on an
// instance (Section 3.2, "Supporting DP").
type DPGapProblem struct {
	Inst *mcf.Instance
	// Threshold is DP's pinning threshold T_d (paper default: 5% of link
	// capacity).
	Threshold float64
	Input     InputConstraints
	// FullKKTOpt certifies the OPT side with a complete KKT system instead
	// of relying on the sign-aligned primal-only encoding — an ablation
	// that roughly doubles the SOS pair count without changing the answer.
	FullKKTOpt bool
	// DisablePolish turns off the primal heuristic that evaluates each
	// relaxation's demand vector with the direct solvers (ablation; without
	// it branch and bound must reach complementarity-feasible leaves on its
	// own before it has any incumbent).
	DisablePolish bool
	// BigMComplementarity, when > 0, replaces every complementarity pair
	// with big-M indicator rows using this constant — the second ablation.
	BigMComplementarity float64
	// LiteralEncoding uses the paper's Section-3.2 encoding verbatim: the
	// pinning "or" constraints become big-M rows *inside* the heuristic's
	// inner LP. The default instead decomposes the heuristic as
	// pinned-volume + certified residual max-flow (mathematically the same
	// optimum), whose pure 0/1 inner matrix admits proved dual bounds and
	// therefore much tighter relaxations. Ablation: BenchmarkAblationLiteral.
	LiteralEncoding bool
}

// dpBuild is the constructed meta model plus the handles needed to read a
// solution back.
type dpBuild struct {
	model   *milp.Model
	demands []lp.VarID
	pinned  []lp.VarID // z_k indicator: demand k is pinned
	heurObj lp.Expr
}

// Build constructs the single-shot optimization for (1) with OPT (3) and
// DemPinMaxFlow (5) as inner problems. Exported indirectly through
// ModelStats so Figure 6 can report sizes without solving.
func (pr *DPGapProblem) build() (*dpBuild, error) {
	n := pr.Inst.Demands.Len()
	if err := pr.Input.validate(pr.Inst.Demands); err != nil {
		return nil, err
	}
	p := lp.NewProblem("dp-gap", lp.Maximize)
	m := milp.NewModel(p)
	b := &dpBuild{model: m}
	b.demands = pr.Input.addDemandVars(m, n)

	// OPT side: FeasibleFlow with volumes = outer demand variables.
	optFlow := mcf.BuildInnerMaxFlow("opt", pr.Inst, func(k int) kkt.AffineRHS {
		return kkt.Var(b.demands[k], 1, 0)
	}, 1, nil, pr.Input.MaxDemand)
	optRes, err := kkt.Emit(m, optFlow.LP, pr.FullKKTOpt)
	if err != nil {
		return nil, err
	}

	// Heuristic side. Pinning indicators z_k (z_k = 1 iff d_k <= T) are
	// shared by both encodings.
	b.pinned = make([]lp.VarID, n)
	for k := 0; k < n; k++ {
		b.pinned[k] = m.AddBinary(fmt.Sprintf("z%d", k))
	}
	if pr.LiteralEncoding {
		if err := pr.buildLiteralHeuristic(b); err != nil {
			return nil, err
		}
	} else {
		if err := pr.buildPhase2Heuristic(b); err != nil {
			return nil, err
		}
	}

	// Outer linking: z_k = 1 <=> d_k <= T (ambiguous only at d_k == T,
	// where the maximizer always chooses the true, pinned branch since
	// pinning can only lower the heuristic's value).
	m1 := math.Max(pr.Input.MaxDemand-pr.Threshold, 0)
	m0 := math.Max(pr.Threshold-pr.Input.MinDemand, 0)
	for k := 0; k < n; k++ {
		// z=1 => d <= T.
		p.AddConstraint(fmt.Sprintf("link.hi%d", k),
			lp.NewExpr().Add(b.demands[k], 1).Add(b.pinned[k], m1),
			lp.LE, pr.Threshold+m1)
		// z=0 => d >= T.
		p.AddConstraint(fmt.Sprintf("link.lo%d", k),
			lp.NewExpr().Add(b.demands[k], 1).Add(b.pinned[k], m0),
			lp.GE, pr.Threshold)
	}

	// Objective (1): maximize OPT value minus heuristic value.
	for _, t := range optRes.Obj.Terms {
		p.SetObj(t.Var, t.Coef)
	}
	for _, t := range b.heurObj.Terms {
		p.SetObj(t.Var, -t.Coef)
	}

	if pr.BigMComplementarity > 0 {
		m.ReplacePairsWithBigM(pr.BigMComplementarity)
	}
	return b, nil
}

// buildLiteralHeuristic encodes DemPinMaxFlow (5) exactly as Section 3.2
// writes it: the FeasibleFlow polytope plus big-M pinning rows inside the
// inner problem, all KKT-certified together.
func (pr *DPGapProblem) buildLiteralHeuristic(b *dpBuild) error {
	n := pr.Inst.Demands.Len()
	dpFlow := mcf.BuildInnerMaxFlow("dp", pr.Inst, func(k int) kkt.AffineRHS {
		return kkt.Var(b.demands[k], 1, 0)
	}, 1, nil, 0) // big-M rows invalidate the 0/1-matrix dual bounds: none set
	bigM := pr.Input.MaxDemand
	for k := 0; k < n; k++ {
		// z_k = 1 forces all non-shortest-path flow to zero:
		//   sum_{p != 0} f_k^p <= M*(1 - z_k).
		if len(pr.Inst.Paths[k]) > 1 {
			row := kkt.Row{Name: fmt.Sprintf("pin0.%d", k), Rel: lp.LE,
				RHS: kkt.Var(b.pinned[k], -bigM, bigM)}
			for pi := 1; pi < len(pr.Inst.Paths[k]); pi++ {
				row.Terms = append(row.Terms, kkt.InnerTerm{Var: dpFlow.Index[k][pi], Coef: 1})
			}
			dpFlow.LP.AddRow(row)
		}
		// z_k = 1 forces the shortest path to carry the whole demand:
		//   f_k^0 >= d_k - M*(1 - z_k).
		row := kkt.Row{Name: fmt.Sprintf("pin1.%d", k), Rel: lp.GE,
			RHS: kkt.AffineRHS{Const: -bigM, Terms: []lp.Term{
				{Var: b.demands[k], Coef: 1}, {Var: b.pinned[k], Coef: bigM},
			}}}
		row.Terms = append(row.Terms, kkt.InnerTerm{Var: dpFlow.Index[k][0], Coef: 1})
		dpFlow.LP.AddRow(row)
	}
	dpRes, err := kkt.Emit(b.model, dpFlow.LP, true)
	if err != nil {
		return err
	}
	b.heurObj = dpRes.Obj
	return nil
}

// buildPhase2Heuristic encodes the heuristic the way DP actually computes
// it: pinned demands contribute w_k = z_k*d_k on their shortest paths
// (exact McCormick linearization — z is binary), and the remaining demands
// are routed by a certified max-flow over residual capacities. The residual
// problem keeps the pure 0/1 structure, so the proved dual bounds and
// McCormick complementarity cuts apply, making the single-shot relaxation
// dramatically tighter than the literal big-M encoding.
func (pr *DPGapProblem) buildPhase2Heuristic(b *dpBuild) error {
	n := pr.Inst.Demands.Len()
	p := b.model.P
	maxD := pr.Input.MaxDemand

	// w_k = z_k * d_k, linearized exactly.
	pinnedVol := make([]lp.VarID, n)
	for k := 0; k < n; k++ {
		w := p.AddVar(fmt.Sprintf("w%d", k), 0, maxD)
		pinnedVol[k] = w
		p.AddConstraint(fmt.Sprintf("w%d.le-zd", k),
			lp.NewExpr().Add(w, 1).Add(b.pinned[k], -maxD), lp.LE, 0)
		p.AddConstraint(fmt.Sprintf("w%d.le-d", k),
			lp.NewExpr().Add(w, 1).Add(b.demands[k], -1), lp.LE, 0)
		p.AddConstraint(fmt.Sprintf("w%d.ge", k),
			lp.NewExpr().Add(w, 1).Add(b.demands[k], -1).Add(b.pinned[k], -maxD),
			lp.GE, -maxD)
	}

	// Residual capacity per edge: c_e minus the pinned load crossing it.
	pinLoad := make([]lp.Expr, pr.Inst.G.NumEdges())
	for k := 0; k < n; k++ {
		for _, e := range pr.Inst.ShortestPath(k).Edges {
			pinLoad[e] = pinLoad[e].Add(pinnedVol[k], 1)
		}
	}
	phase2 := mcf.BuildInnerMaxFlow("dp2", pr.Inst, func(k int) kkt.AffineRHS {
		// Unpinned volume: d_k - w_k (zero when pinned).
		return kkt.AffineRHS{Terms: []lp.Term{
			{Var: b.demands[k], Coef: 1}, {Var: pinnedVol[k], Coef: -1},
		}}
	}, 1, nil, maxD)
	// Patch capacity rows to subtract the pinned load: the row becomes
	// sum f + sum_k w_k[e in sp_k] <= c_e.
	for e := 0; e < pr.Inst.G.NumEdges(); e++ {
		row := &phase2.LP.Rows[phase2.CapRows[e]]
		for _, t := range pinLoad[e].Terms {
			row.RHS.Terms = append(row.RHS.Terms, lp.Term{Var: t.Var, Coef: -t.Coef})
		}
	}
	res, err := kkt.Emit(b.model, phase2.LP, true)
	if err != nil {
		return err
	}
	// Heuristic value = pinned volume + certified phase-2 flow.
	b.heurObj = res.Obj
	for k := 0; k < n; k++ {
		b.heurObj = b.heurObj.Add(pinnedVol[k], 1)
	}
	return nil
}

// Stats builds the meta model and reports its size without solving —
// the Figure 6 measurements.
func (pr *DPGapProblem) Stats() (ModelStats, error) { return searchStats(pr.search(false)) }

// Fingerprint builds the meta model and reports the search fingerprint
// Solve(opts) would stamp on its milp result — the identity cmd/gapserved
// keys its result cache and checkpoint files by — without solving anything.
func (pr *DPGapProblem) Fingerprint(opts milp.Options) (uint64, error) {
	b, err := pr.build()
	if err != nil {
		return 0, err
	}
	return milp.SearchFingerprint(b.model, opts), nil
}

// Solve runs the white-box search and verifies the found input against the
// direct OPT and DP solvers.
func (pr *DPGapProblem) Solve(opts milp.Options) (*Result, error) {
	return runGap(opts, nil, pr.search)
}

// Resume continues a white-box search from a branch-and-bound checkpoint
// written by an earlier Solve with Options.Checkpoint set. The meta model
// is rebuilt from the problem description — which must match the
// checkpointed run's (milp.Resume rejects mismatched fingerprints) — and
// the search picks up at the snapshotted node step; seed incumbents
// are ignored in favor of the snapshot's.
func (pr *DPGapProblem) Resume(st *checkpoint.BnBState, opts milp.Options) (*Result, error) {
	if st == nil {
		return nil, fmt.Errorf("core: nil checkpoint state")
	}
	return runGap(opts, st, pr.search)
}

// search builds the meta model plus runGap's DP-specific pieces. The
// seeds are the structured candidates: every demand at the maximum, every
// demand at the threshold, and the greedy pinning.
func (pr *DPGapProblem) search(polish bool) (*gapSearch, error) {
	b, err := pr.build()
	if err != nil {
		return nil, err
	}
	pc := mcf.NewPricer(pr.Inst)
	price := gapPrice(func(d []float64) (float64, float64, error) { return pc.DPGap(d, pr.Threshold) })
	g := &gapSearch{model: b.model, verify: price.verifier(pr.Inst.G.TotalCapacity()), read: func(x []float64) []float64 {
		out := make([]float64, len(b.demands))
		for k, dv := range b.demands {
			// Clean numerical dust so verification uses a legal input.
			d := math.Min(math.Max(x[dv], pr.Input.MinDemand), pr.Input.MaxDemand)
			// Snap demands the model pinned to the threshold boundary.
			if x[b.pinned[k]] > 0.5 && d > pr.Threshold && d-pr.Threshold < 1e-6 {
				d = pr.Threshold
			}
			out[k] = d
		}
		return out
	}}
	if !polish || pr.DisablePolish {
		return g, nil
	}
	g.polish = pr.polisher(b, price.gap)
	for _, cand := range [][]float64{
		constantVector(len(b.demands), pr.Input.MaxDemand),
		constantVector(len(b.demands), pr.Threshold),
		pr.greedyPinSeed(),
	} {
		x := make([]float64, b.model.P.NumVars())
		for k, dv := range b.demands {
			x[dv] = cand[k]
			if cand[k] <= pr.Threshold {
				x[b.pinned[k]] = 1
			}
		}
		g.seeds = append(g.seeds, x)
	}
	return g, nil
}

// greedyPinSeed builds a structured candidate input: demands are pinned at
// the threshold greedily in order of decreasing shortest-path length —
// where a pinned demand wastes the most capacity (Section 4's qualitative
// finding) — skipping any pin that would oversubscribe a link, so the seed
// is always DP-feasible. Unpinned demands sit at the box maximum.
func (pr *DPGapProblem) greedyPinSeed() []float64 {
	n := pr.Inst.Demands.Len()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return pr.Inst.ShortestPath(order[a]).Hops() > pr.Inst.ShortestPath(order[b]).Hops()
	})
	residual := make([]float64, pr.Inst.G.NumEdges())
	for e := range residual {
		residual[e] = pr.Inst.G.Edge(e).Capacity
	}
	d := constantVector(n, pr.Input.MaxDemand)
	for _, k := range order {
		sp := pr.Inst.ShortestPath(k)
		if sp.Hops() < 2 {
			continue // pinning a one-hop demand wastes nothing
		}
		fits := true
		for _, e := range sp.Edges {
			if residual[e] < pr.Threshold {
				fits = false
				break
			}
		}
		if !fits {
			continue
		}
		for _, e := range sp.Edges {
			residual[e] -= pr.Threshold
		}
		d[k] = pr.Threshold
	}
	return d
}

// polisher returns the primal heuristic for the DP gap search: extract the
// relaxation's demand vector, repair it into the constrained set, and price
// it exactly with price. Two rounded variants are also priced
// — "pin at the threshold" (demands the relaxation leans toward pinning are
// set to exactly T, where a pinned demand does maximal damage) and
// "bang-bang" (every demand at either T or the maximum) — the classic MIP
// rounding-heuristic move adapted to this domain. Any value returned is a
// genuinely achievable gap, so branch and bound can use it as an incumbent.
func (pr *DPGapProblem) polisher(b *dpBuild, price func([]float64) (float64, bool)) func(x []float64) (float64, []float64, bool) {
	cache := newPriceCache(512)
	// Structured seeds, tried once (the cache absorbs repeats): pin every
	// demand, and pin exactly the demands with multi-hop shortest paths —
	// the structure Section 4 identifies as DP's weakness ("serving small
	// demands on longer paths uses capacity along more edges"). They play
	// the role of the primal heuristics a commercial MIP solver runs.
	n := len(b.demands)
	allPin := make([]float64, n)
	longPin := make([]float64, n)
	for k := 0; k < n; k++ {
		allPin[k] = pr.Threshold
		if pr.Inst.ShortestPath(k).Hops() >= 2 {
			longPin[k] = pr.Threshold
		} else {
			longPin[k] = pr.Input.MaxDemand
		}
	}
	return func(x []float64) (float64, []float64, bool) {
		raw := make([]float64, len(b.demands))
		for k, dv := range b.demands {
			raw[k] = x[dv]
		}
		candidates := [][]float64{raw, allPin, longPin}
		if pr.Threshold >= pr.Input.MinDemand && pr.Threshold <= pr.Input.MaxDemand {
			pin := make([]float64, len(raw))
			bang := make([]float64, len(raw))
			for k := range raw {
				leans := x[b.pinned[k]] > 0.5 || raw[k] <= pr.Threshold
				if leans {
					pin[k] = pr.Threshold
					bang[k] = pr.Threshold
				} else {
					pin[k] = raw[k]
					bang[k] = pr.Input.MaxDemand
				}
			}
			candidates = append(candidates, pin, bang)
		}
		return cache.polishBest(&pr.Input, price, x, b.demands, candidates...)
	}
}

// priceCache memoizes the exact pricing of demand vectors (rounded to 1e-6)
// so the polish step does not re-solve identical candidates node after node.
// Unlike a plain seen-set it stores the *result*, which makes every polisher
// a pure function of its argument: repeats return the memoized gap instead
// of being suppressed, so the answer does not depend on call order — what
// milp.Options.Polish asks of a polisher so that a resumed search, whose
// cache starts empty, polishes to the same incumbents. The search calls its
// polisher from one goroutine, so the cache takes no lock.
type priceCache struct {
	max     int
	entries map[string]priceEntry
	fifo    []string
}

type priceEntry struct {
	gap float64
	ok  bool
}

func newPriceCache(max int) *priceCache {
	return &priceCache{max: max, entries: make(map[string]priceEntry, max)}
}

func (c *priceCache) key(d []float64) string {
	buf := make([]byte, 0, len(d)*8)
	for _, x := range d {
		v := int64(math.Round(x * 1e6))
		for i := 0; i < 8; i++ {
			buf = append(buf, byte(v>>(8*i)))
		}
	}
	return string(buf)
}

// price returns f(d), memoized; past max entries the oldest is evicted.
func (c *priceCache) price(d []float64, f func([]float64) (float64, bool)) (float64, bool) {
	k := c.key(d)
	if e, hit := c.entries[k]; hit {
		return e.gap, e.ok
	}
	gap, ok := f(d)
	if len(c.fifo) >= c.max {
		delete(c.entries, c.fifo[0])
		c.fifo = c.fifo[1:]
	}
	c.entries[k] = priceEntry{gap: gap, ok: ok}
	c.fifo = append(c.fifo, k)
	return gap, ok
}

// polishBest is the shared tail of the polishers: it repairs each
// candidate input into the constrained set ic (nil: taken as is), prices
// the valid ones through the cache, and returns the best gap with x's input
// variables vars set to the winning input.
func (c *priceCache) polishBest(ic *InputConstraints, price func([]float64) (float64, bool),
	x []float64, vars []lp.VarID, cands ...[]float64) (float64, []float64, bool) {
	bestGap, ok := 0.0, false
	var bestD []float64
	for _, cand := range cands {
		d, valid := cand, true
		if ic != nil {
			d, valid = ic.sanitize(cand)
		}
		if !valid {
			continue
		}
		if gap, priced := c.price(d, price); priced && (!ok || gap > bestGap) {
			bestGap, bestD, ok = gap, d, true
		}
	}
	if !ok {
		return 0, nil, false
	}
	sol := append([]float64(nil), x...)
	for k, dv := range vars {
		sol[dv] = bestD[k]
	}
	return bestGap, sol, true
}
