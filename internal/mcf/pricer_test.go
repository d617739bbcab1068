package mcf

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/demand"
	"repro/internal/kkt"
	"repro/internal/lp"
	"repro/internal/topology"
)

// refOptLP is the OPT LP exactly as SolveMaxFlow built it on every call
// before the Pricer: BuildInnerMaxFlow at the instance's volumes, lowered
// by innerProblem.
func refOptLP(t *testing.T, inst *Instance) (*lp.Problem, *InnerFlow) {
	t.Helper()
	vols := inst.Demands.Volumes()
	fl := BuildInnerMaxFlow("opt", inst, func(k int) kkt.AffineRHS {
		return kkt.Constant(vols[k])
	}, 1, nil, 0)
	p, _, err := innerProblem(fl.LP)
	if err != nil {
		t.Fatal(err)
	}
	return p, fl
}

// refMaxFlow solves refOptLP and extracts the flow as SolveMaxFlow did.
func refMaxFlow(t *testing.T, inst *Instance) (*Flow, error) {
	t.Helper()
	p, fl := refOptLP(t, inst)
	sol, err := p.SolveWith(oneShotOpts())
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.StatusOptimal {
		return nil, fmt.Errorf("mcf: max-flow LP %v", sol.Status)
	}
	out := newFlow(inst)
	for k, ps := range inst.Paths {
		for p := range ps {
			out.add(k, p, sol.X[fl.Index[k][p]])
		}
	}
	return out, nil
}

// refDemandPinning is SolveDemandPinning as it was before the Pricer: the
// phase-2 LP rebuilt on every call with a variable map, formatted names
// and a Path.Contains scan per edge. It also returns that LP (nil when
// nothing reached phase 2).
func refDemandPinning(t *testing.T, inst *Instance, threshold float64) (*Flow, *lp.Problem, error) {
	t.Helper()
	if !DemandPinningFeasible(inst, threshold) {
		return nil, nil, ErrInfeasible
	}
	out := newFlow(inst)
	vols := inst.Demands.Volumes()
	pinned := Pinned(inst, threshold)
	anyFree := false
	for k, isPinned := range pinned {
		if isPinned {
			out.add(k, 0, vols[k])
		} else {
			anyFree = true
		}
	}
	if !anyFree {
		return out, nil, nil
	}
	p := dpPhase2Problem(t, inst, threshold)
	sol, err := p.SolveWith(oneShotOpts())
	if err != nil {
		return nil, nil, err
	}
	if sol.Status != lp.StatusOptimal {
		return nil, nil, fmt.Errorf("mcf: DP phase-2 LP %v", sol.Status)
	}
	v := 0 // dpPhase2Problem adds the unpinned paths' variables in (k, p) order
	for k, ps := range inst.Paths {
		if pinned[k] {
			continue
		}
		for pi := range ps {
			out.add(k, pi, sol.X[v])
			v++
		}
	}
	return out, p, nil
}

// refPOPAssigned is SolvePOPAssigned as it was before the Pricer: per
// partition, BuildInnerMaxFlow over the partition's demands at capacities
// divided by the partition count, lowered by innerProblem and solved. It
// also returns each partition's LP (nil for a partition with no demand).
func refPOPAssigned(t *testing.T, inst *Instance, clients []Client, assign []int, partitions int) (*Flow, []*lp.Problem, error) {
	t.Helper()
	per := AggregateAssigned(clients, assign, partitions, inst.Demands.Len())
	out := newFlow(inst)
	lps := make([]*lp.Problem, partitions)
	capFrac := 1 / float64(partitions)
	for c := 0; c < partitions; c++ {
		pv := per[c]
		fl := BuildInnerMaxFlow(fmt.Sprintf("pop%d", c), inst, func(k int) kkt.AffineRHS {
			return kkt.Constant(pv[k])
		}, capFrac, func(k int) bool { return pv[k] > 0 }, 0)
		if fl.LP.NumVars == 0 {
			continue
		}
		p, xs, err := innerProblem(fl.LP)
		if err != nil {
			t.Fatal(err)
		}
		lps[c] = p
		sol, err := p.SolveWith(oneShotOpts())
		if err != nil {
			return nil, nil, err
		}
		if sol.Status != lp.StatusOptimal {
			return nil, nil, fmt.Errorf("mcf: POP partition %d LP %v", c, sol.Status)
		}
		for k, ps := range inst.Paths {
			for p := range ps {
				if idx := fl.Index[k][p]; idx != -1 {
					out.add(k, p, sol.X[xs[idx]])
				}
			}
		}
	}
	return out, lps, nil
}

// refDemandPinningConcurrent is SolveDemandPinningConcurrent as it was
// before the Pricer: the LP rebuilt on every call with a (k, p) map,
// formatted names and a Path.Contains scan per edge. It also returns that
// LP (nil when nothing was left to route).
func refDemandPinningConcurrent(t *testing.T, inst *Instance, threshold float64) (*Flow, float64, *lp.Problem, error) {
	t.Helper()
	residual, ok := residualAfterPinning(inst, inst.Demands.Volumes(), threshold)
	if !ok {
		return nil, 0, nil, fmt.Errorf("%w: pinned demands oversubscribe a link", ErrInfeasible)
	}
	out := newFlow(inst)
	vols := inst.Demands.Volumes()
	pinned := Pinned(inst, threshold)
	anyFree := false
	for k, isPinned := range pinned {
		if isPinned {
			out.add(k, 0, vols[k])
		} else if vols[k] > 0 {
			anyFree = true
		}
	}
	if !anyFree {
		return out, 1, nil, nil
	}

	p := lp.NewProblem("concurrent", lp.Maximize)
	lam := p.AddVar("lambda", 0, 1)
	p.SetObj(lam, 1)
	varOf := make(map[[2]int]lp.VarID)
	for k, ps := range inst.Paths {
		if pinned[k] || vols[k] == 0 {
			continue
		}
		e := lp.NewExpr().Add(lam, -vols[k])
		cap := lp.NewExpr()
		for pi := range ps {
			v := p.AddVar(fmt.Sprintf("f%d.%d", k, pi), 0, lp.Inf)
			varOf[[2]int{k, pi}] = v
			e = e.Add(v, 1)
			cap = cap.Add(v, 1)
		}
		p.AddConstraint(fmt.Sprintf("dem%d", k), e, lp.GE, 0)
		p.AddConstraint(fmt.Sprintf("vol%d", k), cap, lp.LE, vols[k])
	}
	for e := 0; e < inst.G.NumEdges(); e++ {
		expr := lp.NewExpr()
		for k, ps := range inst.Paths {
			if pinned[k] || vols[k] == 0 {
				continue
			}
			for pi, path := range ps {
				if path.Contains(e) {
					expr = expr.Add(varOf[[2]int{k, pi}], 1)
				}
			}
		}
		if len(expr.Terms) > 0 {
			p.AddConstraint(fmt.Sprintf("cap%d", e), expr, lp.LE, residual[e])
		}
	}
	sol, err := p.SolveWith(oneShotOpts())
	if err != nil {
		return nil, 0, nil, err
	}
	if sol.Status != lp.StatusOptimal {
		return nil, 0, nil, fmt.Errorf("mcf: concurrent LP %v", sol.Status)
	}
	for k, ps := range inst.Paths {
		if pinned[k] || vols[k] == 0 {
			continue
		}
		for pi := range ps {
			out.add(k, pi, sol.X[varOf[[2]int{k, pi}]])
		}
	}
	return out, sol.X[lam], p, nil
}

// sameBits reports whether two floats are the same float64 bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameFlow fails unless got and want carry bitwise the same flow.
func sameFlow(t *testing.T, what string, got, want *Flow) {
	t.Helper()
	if !sameBits(got.Total, want.Total) {
		t.Fatalf("%s: Total %v, reference %v", what, got.Total, want.Total)
	}
	for k := range want.PerPath {
		if !sameBits(got.PerDemand[k], want.PerDemand[k]) {
			t.Fatalf("%s: PerDemand[%d] %v, reference %v", what, k, got.PerDemand[k], want.PerDemand[k])
		}
		for p := range want.PerPath[k] {
			if !sameBits(got.PerPath[k][p], want.PerPath[k][p]) {
				t.Fatalf("%s: PerPath[%d][%d] %v, reference %v", what, k, p, got.PerPath[k][p], want.PerPath[k][p])
			}
		}
	}
}

// sameLP fails unless got and want are the same LP to the bit: name,
// sense, variables (names, bounds, objective) and constraints (names,
// relations, right-hand sides, and terms in order).
func sameLP(t *testing.T, what string, got, want *lp.Problem) {
	t.Helper()
	if got.Name != want.Name || got.Sense() != want.Sense() ||
		got.NumVars() != want.NumVars() || got.NumConstraints() != want.NumConstraints() {
		t.Fatalf("%s: LP %s %v %dx%d, reference %s %v %dx%d", what,
			got.Name, got.Sense(), got.NumConstraints(), got.NumVars(),
			want.Name, want.Sense(), want.NumConstraints(), want.NumVars())
	}
	for j := 0; j < want.NumVars(); j++ {
		v := lp.VarID(j)
		glo, ghi := got.Bounds(v)
		wlo, whi := want.Bounds(v)
		if got.VarName(v) != want.VarName(v) || !sameBits(glo, wlo) || !sameBits(ghi, whi) ||
			!sameBits(got.Obj(v), want.Obj(v)) {
			t.Fatalf("%s: variable %d differs from the reference", what, j)
		}
	}
	for i := 0; i < want.NumConstraints(); i++ {
		c := lp.ConID(i)
		ge, grel, grhs := got.Constraint(c)
		we, wrel, wrhs := want.Constraint(c)
		if got.ConName(c) != want.ConName(c) || grel != wrel || !sameBits(grhs, wrhs) || len(ge.Terms) != len(we.Terms) {
			t.Fatalf("%s: constraint %s differs from the reference %s", what, got.ConName(c), want.ConName(c))
		}
		for n := range we.Terms {
			if ge.Terms[n].Var != we.Terms[n].Var || !sameBits(ge.Terms[n].Coef, we.Terms[n].Coef) {
				t.Fatalf("%s: constraint %s term %d differs from the reference", what, want.ConName(c), n)
			}
		}
	}
}

// pricedPair is one volume vector's reference answers.
type pricedPair struct {
	vols    []float64
	opt, dp *Flow
	dpErr   error
}

// checkPricer prices vols on pc and fails unless the LPs it builds and the
// flows it returns are bitwise the reference's on inst at those volumes.
func checkPricer(t *testing.T, pc *Pricer, inst *Instance, vols []float64, threshold float64) pricedPair {
	t.Helper()
	at := inst.WithVolumes(vols)
	what := fmt.Sprintf("%s volumes %v threshold %v", inst.G.Name(), vols, threshold)

	wantOptLP, _ := refOptLP(t, at)
	gotOptLP, err := pc.optLP(vols)
	if err != nil {
		t.Fatal(err)
	}
	sameLP(t, what+" OPT", gotOptLP, wantOptLP)
	wantOpt, err := refMaxFlow(t, at)
	if err != nil {
		t.Fatal(err)
	}
	gotOpt, err := pc.MaxFlow(vols)
	if err != nil {
		t.Fatal(err)
	}
	sameFlow(t, what+" OPT", gotOpt, wantOpt)

	wantDP, wantLP, wantErr := refDemandPinning(t, at, threshold)
	gotDP, gotErr := pc.DemandPinning(vols, threshold)
	if errors.Is(wantErr, ErrInfeasible) != errors.Is(gotErr, ErrInfeasible) || (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: DP error %v, reference %v", what, gotErr, wantErr)
	}
	if wantErr != nil {
		return pricedPair{vols: vols, opt: wantOpt, dpErr: wantErr}
	}
	sameFlow(t, what+" DP", gotDP, wantDP)
	if wantLP != nil {
		residual, _ := residualAfterPinning(inst, vols, threshold)
		sc := pc.phase2LP(vols, threshold, residual)
		sameLP(t, what+" DP phase 2", sc.p, wantLP)
		pc.putScratch(sc)
	}
	return pricedPair{vols: vols, opt: wantOpt, dp: wantDP}
}

// checkConcurrent prices vols under the concurrent objective at threshold
// on pc and fails unless the LP it builds, the flow and lambda it returns
// (or its error) are bitwise the reference's. It reports whether the
// reference routed anything in an LP, and whether pinning was infeasible.
func checkConcurrent(t *testing.T, pc *Pricer, inst *Instance, vols []float64, threshold float64) (phase2, infeasible bool) {
	t.Helper()
	at := inst.WithVolumes(vols)
	what := fmt.Sprintf("%s volumes %v concurrent threshold %v", inst.G.Name(), vols, threshold)
	want, wantLam, wantLP, wantErr := refDemandPinningConcurrent(t, at, threshold)
	got, gotLam, gotErr := pc.DemandPinningConcurrent(vols, threshold)
	if errors.Is(wantErr, ErrInfeasible) != errors.Is(gotErr, ErrInfeasible) || (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
	}
	if wantErr != nil {
		return false, true
	}
	sameFlow(t, what, got, want)
	if !sameBits(gotLam, wantLam) {
		t.Fatalf("%s: lambda %v, reference %v", what, gotLam, wantLam)
	}
	if wantLP != nil {
		residual, _ := residualAfterPinning(inst, vols, threshold)
		sc := pc.concurrentLP(vols, threshold, residual)
		sameLP(t, what, sc.p, wantLP)
		pc.putScratch(sc)
	}
	return wantLP != nil, false
}

// checkPOP prices clients under assign on pc and fails unless every
// partition's LP, the union flow and POPGap's total are bitwise the
// reference's. It
// reports how many partitions had no demand to route.
func checkPOP(t *testing.T, pc *Pricer, inst *Instance, clients []Client, assign []int, partitions int) (empty int) {
	t.Helper()
	what := fmt.Sprintf("%s clients %v assignment %v", inst.G.Name(), clients, assign)
	want, wantLPs, err := refPOPAssigned(t, inst, clients, assign, partitions)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pc.POPAssigned(clients, assign, partitions)
	if err != nil {
		t.Fatal(err)
	}
	sameFlow(t, what, got, want)
	// POPGap sums each assignment's total without building the Flow.
	if total, err := pc.popTotal(clients, assign, partitions); err != nil || !sameBits(total, got.Total) {
		t.Fatalf("%s: popTotal %v (%v), POPAssigned total %v", what, total, err, got.Total)
	}
	built := make([]bool, len(wantLPs))
	if err := pc.popLPs(clients, assign, partitions, func(c int, sc *lpScratch) error {
		if wantLPs[c] == nil {
			t.Fatalf("%s: partition %d LP %v, reference none", what, c, sc.p)
		}
		sameLP(t, fmt.Sprintf("%s partition %d", what, c), sc.p, wantLPs[c])
		built[c] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for c, wantLP := range wantLPs {
		switch {
		case wantLP == nil:
			empty++
		case !built[c]:
			t.Fatalf("%s: partition %d has no LP, reference %v", what, c, wantLP)
		}
	}
	return empty
}

// drawVolumes draws a volume vector that mixes zeros, values exactly at
// the threshold, values just below and above it, and values in (0, max].
func drawVolumes(rng *rand.Rand, n int, threshold, max float64) []float64 {
	v := make([]float64, n)
	for k := range v {
		switch rng.Intn(6) {
		case 0:
			v[k] = 0
		case 1:
			v[k] = threshold
		case 2:
			v[k] = threshold * rng.Float64()
		case 3:
			v[k] = math.Nextafter(threshold, math.Inf(1))
		default:
			v[k] = max * rng.Float64()
		}
	}
	return v
}

// TestPricerMatchesPerCallBuild is the pricer's differential: over random
// volume vectors on B4, Abilene and Figure 1, every LP the pricer hands the
// solver and every flow it returns must be bitwise those of the per-call
// builders it replaced, for OPT, DP, concurrent DP (at the case's threshold
// and at -Inf) and POP — zeros, volumes exactly at the threshold,
// all-pinned and infeasible pinnings, split clients and empty partitions
// included.
func TestPricerMatchesPerCallBuild(t *testing.T) {
	cases := []struct {
		inst      *Instance
		threshold float64
		max       float64
	}{
		{randomInstance(t, topology.B4(), 12, 2, 7), 5, 100},
		{randomInstance(t, topology.B4(), 24, 3, 11), 20, 100},
		{randomInstance(t, topology.Abilene(), 16, 2, 3), 40, 200},
		{fig1Instance(t), 50, 150},
	}
	rng := rand.New(rand.NewSource(1))
	var allPinned, infeasible, phase2 int
	var concInfeasible, concAllPinned, concLP, split, empty int
	for _, c := range cases {
		pc := NewPricer(c.inst)
		n := c.inst.Demands.Len()
		for i := 0; i < 60; i++ {
			vols := drawVolumes(rng, n, c.threshold, c.max)
			if i%10 == 9 {
				for k := range vols { // everything pinned
					vols[k] = c.threshold * rng.Float64()
				}
			}
			got := checkPricer(t, pc, c.inst, vols, c.threshold)
			switch {
			case got.dpErr != nil:
				infeasible++
			case got.dp != nil && maxVolume(vols) <= c.threshold:
				allPinned++
			default:
				phase2++
			}

			for _, th := range []float64{c.threshold, math.Inf(-1)} {
				routed, inf := checkConcurrent(t, pc, c.inst, vols, th)
				switch {
				case inf:
					concInfeasible++
				case !routed && th == c.threshold:
					concAllPinned++
				case routed && th == math.Inf(-1):
					concLP++
				}
			}

			partitions := 1 + i%4
			clients := Clients(vols, POPOptions{})
			if i%3 == 0 {
				clients = SplitClients(vols, c.max/4, 2)
				if len(clients) > n {
					split++
				}
			}
			empty += checkPOP(t, pc, c.inst, clients, RandomAssignment(len(clients), partitions, rng), partitions)
		}
	}
	// Figure 1 at threshold 150 pins 200 units onto the 100-capacity link
	// 0->1; with three partitions and no client in partition 1, that
	// partition's LP is empty.
	fig := fig1Instance(t)
	vols := []float64{100, 100, 100}
	got := checkPricer(t, NewPricer(fig), fig, vols, 150)
	if got.dpErr != nil {
		infeasible++
	}
	if _, inf := checkConcurrent(t, NewPricer(fig), fig, vols, 150); inf {
		concInfeasible++
	}
	empty += checkPOP(t, NewPricer(fig), fig, Clients(vols, POPOptions{}), []int{0, 2, 2}, 3)
	if allPinned == 0 || infeasible == 0 || phase2 == 0 {
		t.Fatalf("coverage: %d all-pinned, %d infeasible, %d phase-2 vectors; want each > 0", allPinned, infeasible, phase2)
	}
	if concAllPinned == 0 || concInfeasible == 0 || concLP == 0 || split == 0 || empty == 0 {
		t.Fatalf("coverage: concurrent %d all-pinned, %d infeasible, %d -Inf LPs; POP %d split-client vectors, %d empty partitions; want each > 0",
			concAllPinned, concInfeasible, concLP, split, empty)
	}
}

func maxVolume(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

// fig1Instance is the paper's Figure 1 example with its three demands.
func fig1Instance(t *testing.T) *Instance {
	t.Helper()
	set := demand.NewSet([]demand.Pair{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 2}})
	inst, err := NewInstance(topology.Figure1(), set, 2)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestPricerConcurrent shares one pricer between 8 goroutines (run it
// under -race): the lazy builds happen once, the OPT LP's copies and the
// assembly scratch of the DP phase-2, concurrent and POP partition LPs
// move on and off their free lists, the POP partition names grow under
// their locks, and presolve states and slabs pass between goroutines.
// Every answer, the gap evaluations' (DPGap, POPGap and both concurrent
// DP solves of a concurrent DP gap) included, is still the reference's,
// bit for bit.
func TestPricerConcurrent(t *testing.T) {
	inst := randomInstance(t, topology.B4(), 12, 2, 7)
	const threshold = 5
	rng := rand.New(rand.NewSource(2))
	want := make([]pricedPair, 48)
	lams, pops, assigns := make([]float64, len(want)), make([]float64, len(want)), make([][]int, len(want))
	lamsDP, errsDP := make([]float64, len(want)), make([]error, len(want))
	for i := range want {
		want[i] = checkPricer(t, NewPricer(inst), inst, drawVolumes(rng, inst.Demands.Len(), threshold, 100), threshold)
		at := inst.WithVolumes(want[i].vols)
		_, lams[i], _, _ = refDemandPinningConcurrent(t, at, math.Inf(-1))
		_, lamsDP[i], _, errsDP[i] = refDemandPinningConcurrent(t, at, threshold)
		assigns[i] = RandomAssignment(inst.Demands.Len(), 1+i%4, rng)
		pop, _, err := refPOPAssigned(t, at, Clients(want[i].vols, POPOptions{}), assigns[i], 1+i%4)
		if err != nil {
			t.Fatal(err)
		}
		pops[i] = pop.Total
	}
	pc := NewPricer(inst)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(want); i += 8 {
				opt, err := pc.MaxFlow(want[i].vols)
				if err != nil || !sameBits(opt.Total, want[i].opt.Total) {
					errs <- fmt.Errorf("vector %d: OPT %v (%v), reference %v", i, opt, err, want[i].opt.Total)
					return
				}
				if _, lam, err := pc.DemandPinningConcurrent(want[i].vols, math.Inf(-1)); err != nil || !sameBits(lam, lams[i]) {
					errs <- fmt.Errorf("vector %d: lambda %v (%v), reference %v", i, lam, err, lams[i])
					return
				}
				if _, lam, err := pc.DemandPinningConcurrent(want[i].vols, threshold); (err == nil) != (errsDP[i] == nil) || !sameBits(lam, lamsDP[i]) {
					errs <- fmt.Errorf("vector %d: concurrent DP lambda %v (%v), reference %v (%v)", i, lam, err, lamsDP[i], errsDP[i])
					return
				}
				if pop, err := pc.POPAssigned(Clients(want[i].vols, POPOptions{}), assigns[i], 1+i%4); err != nil || !sameBits(pop.Total, pops[i]) {
					errs <- fmt.Errorf("vector %d: POP %v (%v), reference %v", i, pop, err, pops[i])
					return
				}
				if opt, pop, err := pc.POPGap(want[i].vols, [][]int{assigns[i]}, 1+i%4, nil); err != nil || !sameBits(opt, want[i].opt.Total) || !sameBits(pop, pops[i]) {
					errs <- fmt.Errorf("vector %d: POPGap %v, %v (%v), reference %v, %v", i, opt, pop, err, want[i].opt.Total, pops[i])
					return
				}
				dp, err := pc.DemandPinning(want[i].vols, threshold)
				gapOpt, gapDP, gapErr := pc.DPGap(want[i].vols, threshold)
				if want[i].dpErr != nil {
					if !errors.Is(err, ErrInfeasible) || !errors.Is(gapErr, ErrInfeasible) {
						errs <- fmt.Errorf("vector %d: DP error %v, DPGap error %v, reference %v", i, err, gapErr, want[i].dpErr)
						return
					}
					continue
				}
				if err != nil || !sameBits(dp.Total, want[i].dp.Total) {
					errs <- fmt.Errorf("vector %d: DP %v (%v), reference %v", i, dp, err, want[i].dp.Total)
					return
				}
				if gapErr != nil || !sameBits(gapOpt, want[i].opt.Total) || !sameBits(gapDP, want[i].dp.Total) {
					errs <- fmt.Errorf("vector %d: DPGap %v, %v (%v), reference %v, %v", i, gapOpt, gapDP, gapErr, want[i].opt.Total, want[i].dp.Total)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPricerCapacitySwappedInstance covers a literal Instance over the
// same pairs and paths but a graph with other capacities, the shape
// core's capacity search prices: its own pricer (and the wrappers) must
// answer for its capacities, never for the original graph's.
func TestPricerCapacitySwappedInstance(t *testing.T) {
	inst := randomInstance(t, topology.B4(), 12, 2, 7)
	caps := make([]float64, inst.G.NumEdges())
	for e := range caps {
		caps[e] = inst.G.Edge(e).Capacity * float64(1+e%3) / 4
	}
	swapped := &Instance{G: inst.G.WithCapacities(caps), Demands: inst.Demands, Paths: inst.Paths}
	rng := rand.New(rand.NewSource(3))
	pc, orig := NewPricer(swapped), NewPricer(inst)
	differs := false
	for i := 0; i < 20; i++ {
		vols := drawVolumes(rng, inst.Demands.Len(), 5, 100)
		got := checkPricer(t, pc, swapped, vols, 5)
		wrapped, err := SolveMaxFlow(swapped.WithVolumes(vols))
		if err != nil {
			t.Fatal(err)
		}
		sameFlow(t, "SolveMaxFlow on the swapped instance", wrapped, got.opt)
		if o, err := orig.MaxFlow(vols); err == nil && !sameBits(o.Total, got.opt.Total) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("the swapped capacities never changed OPT; the case shows nothing")
	}
}

// TestPricerRejectsInvalidVolumes: a volume vector WithVolumes refuses
// panics with the same value through the pricer.
func TestPricerRejectsInvalidVolumes(t *testing.T) {
	inst := fig1Instance(t)
	pc := NewPricer(inst)
	panicOf := func(f func()) (v any) {
		defer func() { v = recover() }()
		f()
		return nil
	}
	for _, vols := range [][]float64{
		{10, math.NaN(), 10},
		{10, 10, -1},
		{math.Inf(1), 0, 0},
		{10, 10},
	} {
		want := panicOf(func() { inst.WithVolumes(vols) })
		if want == nil {
			t.Fatalf("WithVolumes(%v) did not panic", vols)
		}
		for _, got := range []any{
			panicOf(func() { _, _ = pc.MaxFlow(vols) }),
			panicOf(func() { _, _ = pc.DemandPinning(vols, 50) }),
		} {
			if fmt.Sprintf("%T %v", got, got) != fmt.Sprintf("%T %v", want, want) {
				t.Errorf("pricing %v panicked with %T %v, WithVolumes with %T %v", vols, got, got, want, want)
			}
		}
	}
}

// TestDPGapMatchesFlows is the referee of DPGap's shortcuts: on random
// vectors at 4, 12, 24 and 48 pairs on B4, its two totals must be bitwise
// MaxFlow's and DemandPinning's Total, which build both Flows and always
// solve DP's phase 2. It covers vectors that pin nothing (DPGap returns
// OPT's total as DP's without a second LP), mixed ones, all-pinned ones
// and oversubscribed pinnings, which must fail with ErrInfeasible.
func TestDPGapMatchesFlows(t *testing.T) {
	const threshold, max = 5.0, 100.0
	rng := rand.New(rand.NewSource(4))
	for _, pairs := range []int{4, 12, 24, 48} {
		inst := randomInstance(t, topology.B4(), pairs, 2, int64(pairs))
		pc := NewPricer(inst)
		for i := 0; i < 200; i++ {
			vols := make([]float64, pairs)
			th := threshold
			kind := []string{"unpinned", "mixed", "all-pinned", "oversubscribed"}[i%4]
			switch kind {
			case "unpinned":
				for k := range vols {
					vols[k] = threshold + (max-threshold)*(1-rng.Float64())
				}
				vols[rng.Intn(pairs)] = math.Nextafter(threshold, math.Inf(1))
			case "mixed":
				vols = drawVolumes(rng, pairs, threshold, max)
				pinned := rng.Intn(pairs)
				vols[pinned] = threshold
				vols[(pinned+1+rng.Intn(pairs-1))%pairs] = max
			case "all-pinned":
				for k := range vols {
					vols[k] = threshold * rng.Float64()
				}
				vols[rng.Intn(pairs)] = threshold
			case "oversubscribed":
				// A pinned volume above every link's capacity cannot fit
				// on its shortest path.
				th = 1.5 * topology.DefaultCapacity
				vols = drawVolumes(rng, pairs, th, 2*topology.DefaultCapacity)
				vols[rng.Intn(pairs)] = 1.2 * topology.DefaultCapacity
			}
			what := fmt.Sprintf("%d pairs, %s vector %v, threshold %v", pairs, kind, vols, th)

			opt, dp, err := pc.DPGap(vols, th)
			wantDP, wantErr := pc.DemandPinning(vols, th)
			if kind == "oversubscribed" {
				if !errors.Is(err, ErrInfeasible) || !errors.Is(wantErr, ErrInfeasible) || opt != 0 || dp != 0 {
					t.Fatalf("%s: DPGap %v, %v, %v and DemandPinning %v; want ErrInfeasible from both", what, opt, dp, err, wantErr)
				}
				continue
			}
			if err != nil || wantErr != nil {
				t.Fatalf("%s: DPGap error %v, DemandPinning error %v", what, err, wantErr)
			}
			wantOpt, err := pc.MaxFlow(vols)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(opt, wantOpt.Total) || !sameBits(dp, wantDP.Total) {
				t.Fatalf("%s: DPGap totals %v, %v; MaxFlow and DemandPinning %v, %v", what, opt, dp, wantOpt.Total, wantDP.Total)
			}
		}
	}
}
