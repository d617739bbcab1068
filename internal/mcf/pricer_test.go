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
		gotLP, _ := pc.phase2LP(vols, threshold, residual)
		sameLP(t, what+" DP phase 2", gotLP, wantLP)
	}
	return pricedPair{vols: vols, opt: wantOpt, dp: wantDP}
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
// builders it replaced — zeros, volumes exactly at the threshold,
// all-pinned and infeasible pinnings included.
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
		}
	}
	// Figure 1 at threshold 150 pins 200 units onto the 100-capacity link 0->1.
	fig := fig1Instance(t)
	got := checkPricer(t, NewPricer(fig), fig, []float64{100, 100, 100}, 150)
	if got.dpErr != nil {
		infeasible++
	}
	if allPinned == 0 || infeasible == 0 || phase2 == 0 {
		t.Fatalf("coverage: %d all-pinned, %d infeasible, %d phase-2 vectors; want each > 0", allPinned, infeasible, phase2)
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
// under -race): the lazy builds happen once and every answer is still the
// reference's, bit for bit.
func TestPricerConcurrent(t *testing.T) {
	inst := randomInstance(t, topology.B4(), 12, 2, 7)
	const threshold = 5
	rng := rand.New(rand.NewSource(2))
	want := make([]pricedPair, 48)
	for i := range want {
		want[i] = checkPricer(t, NewPricer(inst), inst, drawVolumes(rng, inst.Demands.Len(), threshold, 100), threshold)
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
				dp, err := pc.DemandPinning(want[i].vols, threshold)
				if want[i].dpErr != nil {
					if !errors.Is(err, ErrInfeasible) {
						errs <- fmt.Errorf("vector %d: DP error %v, reference %v", i, err, want[i].dpErr)
						return
					}
					continue
				}
				if err != nil || !sameBits(dp.Total, want[i].dp.Total) {
					errs <- fmt.Errorf("vector %d: DP %v (%v), reference %v", i, dp, err, want[i].dp.Total)
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
