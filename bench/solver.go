package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/blackbox"
	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/mcf"
	"repro/internal/milp"
	"repro/internal/obs"
	"repro/internal/topology"
)

// maxDemand bounds every demand in every workload.
const maxDemand = 100

// gapInstance builds the instance an op searches: B4 with pairs random
// demand pairs drawn from demandSeed, 2 paths per pair, DP threshold 5.
// The toy size is Figure 1's three pairs at threshold 50.
func gapInstance(toy bool, pairs int, demandSeed int64) (*mcf.Instance, float64, error) {
	if toy {
		set := demand.NewSet([]demand.Pair{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 2}})
		inst, err := mcf.NewInstance(topology.Figure1(), set, 2)
		return inst, 50, err
	}
	g := topology.B4()
	set := demand.RandomPairs(g, pairs, rand.New(rand.NewSource(demandSeed)))
	inst, err := mcf.NewInstance(g, set, 2)
	return inst, 5, err
}

// dpConfig is one white-box search workload. Op i searches the instance of
// demand seed seed+offset+i, serially and depth-first, stopping at
// maxNodes explored nodes or proven optimality.
type dpConfig struct {
	pairs    int
	offset   int64
	warm     bool
	maxNodes int
}

// problem is op i's set-up: the instance and the search model over it.
func (cfg dpConfig) problem(s *session, i int) (*core.DPGapProblem, error) {
	inst, thr, err := gapInstance(s.toy, cfg.pairs, s.seed+cfg.offset+int64(i))
	if err != nil {
		return nil, err
	}
	pr := &core.DPGapProblem{Inst: inst, Threshold: thr, Input: core.InputConstraints{MaxDemand: maxDemand}}
	_, err = pr.Stats()
	return pr, err
}

func setupDP(cfg dpConfig) func(*session, int) (time.Duration, error) {
	return func(s *session, n int) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := cfg.problem(s, i); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
}

func runDP(cfg dpConfig) func(*session) (*phase, error) {
	return func(s *session) (*phase, error) {
		p := s.newPhase()
		err := s.loop(func(i int) error {
			id := fmt.Sprintf("search=%d/demand_seed=%d", i, s.seed+cfg.offset+int64(i))
			pr, err := cfg.problem(s, i)
			if err != nil {
				return err
			}

			opts := milp.Options{DepthFirst: true, WarmStart: cfg.warm, MaxNodes: cfg.maxNodes}
			search := s.rec.begin("search", id, s.root)
			if p.layers != nil {
				opts.Tracer = obs.NewTracer(&solverSink{rec: s.rec, search: search, req: id,
					counts: &p.layers.counts, last: time.Now()})
			}
			w := p.open()
			res, err := pr.Solve(opts)
			lat := w.close()
			s.rec.end(search)

			o := op{ID: id, Latency: lat}
			if err == nil {
				p.units += float64(res.Solver.Nodes)
				p.rates = append(p.rates, float64(res.Solver.Nodes)/lat.Seconds())
				o.Answer, err = checkSearch(pr.Inst, pr.Threshold, cfg.maxNodes, res)
			}
			p.record(s, o, err)
			return nil
		})
		return p, err
	}
}

// checkSearch verifies a search result independently of the solver: the
// reported gap must be what the direct OPT and DP solvers give at the
// reported demands, and the bound must not be below it.
func checkSearch(inst *mcf.Instance, thr float64, maxNodes int, res *core.Result) (answer, error) {
	sv := res.Solver
	if sv.Status != milp.StatusOptimal && sv.Status != milp.StatusFeasible {
		return answer{}, fmt.Errorf("status %v, want optimal or feasible", sv.Status)
	}
	if maxNodes > 0 && sv.Nodes > maxNodes {
		return answer{}, fmt.Errorf("%d nodes explored, cap %d", sv.Nodes, maxNodes)
	}
	if res.Demands == nil {
		return answer{}, fmt.Errorf("no demands reported")
	}
	gap, err := blackbox.DPGap(inst, thr)(res.Demands)
	if err != nil {
		return answer{}, fmt.Errorf("re-pricing the demands: %w", err)
	}
	tol := 1e-6 * (1 + math.Abs(gap))
	if math.Abs(gap-res.Gap) > tol {
		return answer{}, fmt.Errorf("gap %v, direct solvers give %v", res.Gap, gap)
	}
	if math.Abs(res.ModelGap-gap) > 1e-4*(1+math.Abs(gap)) || sv.Bound < res.ModelGap-tol {
		return answer{}, fmt.Errorf("model gap %v, bound %v, verified gap %v", res.ModelGap, sv.Bound, gap)
	}
	return answer{Status: sv.Status.String(), Nodes: sv.Nodes, GapMilli: gapMilli(gap)}, nil
}

// hillClimbRestarts is the restart count of one blackbox_hc op.
const hillClimbRestarts = 10

// hillClimbInstance is op i's set-up: the 12-pair instance of demand seed
// seed+6+i and its DP gap function.
func hillClimbInstance(s *session, i int) (*mcf.Instance, blackbox.GapFunc, error) {
	inst, thr, err := gapInstance(s.toy, 12, s.seed+6+int64(i))
	if err != nil {
		return nil, nil, err
	}
	return inst, blackbox.DPGap(inst, thr), nil
}

func setupHillClimb(s *session, n int) (time.Duration, error) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, _, err := hillClimbInstance(s, i); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// runHillClimb is the black-box baseline: op i hill-climbs (Sigma 10,
// K 100) over the DP gap of the 12-pair instance of demand seed
// seed+6+i, with its random stream seeded from seed+i.
func runHillClimb(s *session) (*phase, error) {
	restarts := hillClimbRestarts
	if s.toy {
		restarts = 2
	}
	p := s.newPhase()
	err := s.loop(func(i int) error {
		id := fmt.Sprintf("call=%d/demand_seed=%d", i, s.seed+6+int64(i))
		inst, gap, err := hillClimbInstance(s, i)
		if err != nil {
			return err
		}

		call := s.rec.begin("blackbox.call", id, s.root)
		opts := blackbox.Options{MaxDemand: maxDemand, Sigma: 10, K: 100, Restarts: restarts,
			Rng: rand.New(rand.NewSource(s.seed + int64(i)))}
		f := gap
		if p.layers != nil {
			f = func(d []float64) (float64, error) {
				e := s.rec.begin("mcf.gap_eval", id, call)
				g, err := gap(d)
				s.rec.end(e)
				return g, err
			}
			opts.Tracer = obs.NewTracer(&solverSink{rec: s.rec, search: call, req: id, counts: &p.layers.counts})
		}
		w := p.open()
		res, err := blackbox.HillClimb(f, inst.Demands.Len(), opts)
		lat := w.close()
		s.rec.end(call)

		o := op{ID: id, Latency: lat}
		if err == nil {
			p.units += float64(res.Evals)
			p.rates = append(p.rates, float64(res.Evals)/lat.Seconds())
			if p.layers != nil {
				p.layers.counts.evals += res.Evals
			}
			o.Answer, err = checkHillClimb(gap, res)
		}
		p.record(s, o, err)
		return nil
	})
	return p, err
}

// checkHillClimb re-evaluates the best point the search reports.
func checkHillClimb(gap blackbox.GapFunc, res *blackbox.Result) (answer, error) {
	if res.Demands == nil || math.IsInf(res.Gap, 0) {
		return answer{}, fmt.Errorf("no feasible point found in %d evaluations", res.Evals)
	}
	g, err := gap(res.Demands)
	if err != nil {
		return answer{}, fmt.Errorf("re-evaluating the best point: %w", err)
	}
	if math.Abs(g-res.Gap) > 1e-9*(1+math.Abs(g)) {
		return answer{}, fmt.Errorf("gap %v, re-evaluation gives %v", res.Gap, g)
	}
	return answer{Evals: res.Evals, GapMilli: gapMilli(g)}, nil
}
