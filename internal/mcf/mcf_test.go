package mcf

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/demand"
	"repro/internal/kkt"
	"repro/internal/topology"
)

const eps = 1e-6

func almost(a, b float64) bool { return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b)) }

// figure1Instance builds the paper's Figure-1 scenario (see DESIGN.md for
// the reconstruction): demands 0->1: 100, 1->2: 100, 0->2: 50 on the
// 3-node topology, with 2 paths per pair.
func figure1Instance(t *testing.T) *Instance {
	t.Helper()
	g := topology.Figure1()
	set := demand.NewSet([]demand.Pair{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 2}})
	set.SetVolumes([]float64{100, 100, 50})
	inst, err := NewInstance(g, set, 2)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestFigure1Opt(t *testing.T) {
	inst := figure1Instance(t)
	f, err := SolveMaxFlow(inst)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(f.Total, 250) {
		t.Fatalf("OPT=%v, want 250", f.Total)
	}
	if err := f.Check(inst, 1e-6); err != nil {
		t.Fatal(err)
	}
}

func TestFigure1DemandPinning(t *testing.T) {
	inst := figure1Instance(t)
	f, err := SolveDemandPinning(inst, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(f.Total, 150) {
		t.Fatalf("DP=%v, want 150", f.Total)
	}
	// The pinned demand (0->2, 50 units) must sit entirely on its shortest
	// path (via node 1).
	if !almost(f.PerPath[2][0], 50) {
		t.Fatalf("pinned flow=%v on shortest path, want 50", f.PerPath[2][0])
	}
	if err := f.Check(inst, 1e-6); err != nil {
		t.Fatal(err)
	}
}

func TestFigure1Gap(t *testing.T) {
	// The headline of Figure 1: a 100-unit gap, over 38% of OPT.
	inst := figure1Instance(t)
	opt, err := SolveMaxFlow(inst)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := SolveDemandPinning(inst, 50)
	if err != nil {
		t.Fatal(err)
	}
	gap := opt.Total - dp.Total
	if !almost(gap, 100) {
		t.Fatalf("gap=%v, want 100", gap)
	}
	if gap/opt.Total < 0.38 {
		t.Fatalf("gap fraction %v, want > 0.38", gap/opt.Total)
	}
}

func TestDemandPinningThresholdZeroPinsNothing(t *testing.T) {
	inst := figure1Instance(t)
	dp, err := SolveDemandPinning(inst, -1) // below every volume: nothing pinned
	if err != nil {
		t.Fatal(err)
	}
	opt, _ := SolveMaxFlow(inst)
	if !almost(dp.Total, opt.Total) {
		t.Fatalf("unpinned DP=%v should equal OPT=%v", dp.Total, opt.Total)
	}
}

func TestDemandPinningAllPinnedBoundary(t *testing.T) {
	// Threshold at the max volume pins everything (paper pins "at or
	// below"). On Figure 1 that is infeasible: pinned 0->1 (100) and pinned
	// 0->2 (50, via 0-1-2) share edge 0->1 with capacity 100 — exactly the
	// Section-5 infeasibility DP can run into.
	inst := figure1Instance(t)
	if _, err := SolveDemandPinning(inst, 100); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err=%v, want ErrInfeasible", err)
	}
}

func TestDemandPinningInfeasible(t *testing.T) {
	// Two small demands pinned onto one shared link exceeding its capacity:
	// the Section-5 infeasibility case.
	g := topology.Line(2) // nodes 0,1; capacity 100 each direction
	set := demand.NewSet([]demand.Pair{{Src: 0, Dst: 1}})
	set.SetVolumes([]float64{150})
	inst, err := NewInstance(g, set, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SolveDemandPinning(inst, 200); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err=%v, want ErrInfeasible", err)
	}
	if DemandPinningFeasible(inst, 200) {
		t.Fatal("feasibility check disagrees")
	}
	if !DemandPinningFeasible(inst, 100) {
		t.Fatal("threshold below volume must be feasible (nothing pinned)")
	}
}

func TestPinnedClassification(t *testing.T) {
	inst := figure1Instance(t)
	pinned := Pinned(inst, 50)
	want := []bool{false, false, true}
	for i := range want {
		if pinned[i] != want[i] {
			t.Fatalf("pinned=%v, want %v", pinned, want)
		}
	}
}

func TestMaxFlowRespectsCapacity(t *testing.T) {
	g := topology.Abilene()
	set := demand.AllPairs(g)
	rng := rand.New(rand.NewSource(42))
	set.Uniform(rng, 0, 40)
	inst, err := NewInstance(g, set, 2)
	if err != nil {
		t.Fatal(err)
	}
	f, err := SolveMaxFlow(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Check(inst, 1e-5); err != nil {
		t.Fatal(err)
	}
	if f.Total <= 0 || f.Total > set.Total() {
		t.Fatalf("total=%v out of (0, %v]", f.Total, set.Total())
	}
}

func TestDPNeverBeatsOpt(t *testing.T) {
	g := topology.SWAN()
	set := demand.AllPairs(g)
	rng := rand.New(rand.NewSource(7))
	set.Uniform(rng, 0, 30)
	inst, err := NewInstance(g, set, 2)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := SolveMaxFlow(inst)
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range []float64{0, 2.5, 5, 10, 20} {
		if !DemandPinningFeasible(inst, th) {
			continue
		}
		dp, err := SolveDemandPinning(inst, th)
		if err != nil {
			t.Fatal(err)
		}
		if dp.Total > opt.Total+1e-5 {
			t.Fatalf("threshold %v: DP %v beats OPT %v", th, dp.Total, opt.Total)
		}
		if err := dp.Check(inst, 1e-5); err != nil {
			t.Fatalf("threshold %v: %v", th, err)
		}
	}
}

func TestPOPValidation(t *testing.T) {
	inst := figure1Instance(t)
	if _, err := SolvePOP(inst, POPOptions{Partitions: 0, Rng: rand.New(rand.NewSource(1))}); err == nil {
		t.Fatal("expected error for 0 partitions")
	}
	if _, err := SolvePOP(inst, POPOptions{Partitions: 2}); err == nil {
		t.Fatal("expected error for nil rng")
	}
	if _, err := SolvePOP(inst, POPOptions{Partitions: 2, Rng: rand.New(rand.NewSource(1)), ClientSplit: true}); err == nil {
		t.Fatal("expected error for bad client-split config")
	}
}

func TestPOPOnePartitionEqualsOpt(t *testing.T) {
	inst := figure1Instance(t)
	opt, _ := SolveMaxFlow(inst)
	pop, err := SolvePOP(inst, POPOptions{Partitions: 1, Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(pop.Total, opt.Total) {
		t.Fatalf("POP(1)=%v, want OPT=%v", pop.Total, opt.Total)
	}
}

func TestPOPNeverBeatsOptAndIsFeasible(t *testing.T) {
	g := topology.B4()
	set := demand.AllPairs(g)
	rng := rand.New(rand.NewSource(11))
	set.Uniform(rng, 0, 25)
	inst, err := NewInstance(g, set, 2)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := SolveMaxFlow(inst)
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{2, 3, 4} {
		pop, err := SolvePOP(inst, POPOptions{Partitions: parts, Rng: rand.New(rand.NewSource(5))})
		if err != nil {
			t.Fatal(err)
		}
		if pop.Total > opt.Total+1e-5 {
			t.Fatalf("%d partitions: POP %v beats OPT %v", parts, pop.Total, opt.Total)
		}
		if err := pop.Check(inst, 1e-5); err != nil {
			t.Fatalf("%d partitions: %v", parts, err)
		}
	}
}

func TestSplitClients(t *testing.T) {
	// Volume 40, threshold 10, max 3 splits: 40 -> 20 -> 10 -> 5: 8 clients
	// of 5. Volume 8 stays a single client.
	clients := SplitClients([]float64{40, 8}, 10, 3)
	count := map[int]int{}
	total := map[int]float64{}
	for _, c := range clients {
		count[c.Demand]++
		total[c.Demand] += c.Volume
	}
	if count[0] != 8 || !almost(total[0], 40) {
		t.Fatalf("demand 0: %d clients total %v, want 8/40", count[0], total[0])
	}
	if count[1] != 1 || !almost(total[1], 8) {
		t.Fatalf("demand 1: %d clients total %v, want 1/8", count[1], total[1])
	}
	// Max splits bites: volume 100, threshold 1, 2 splits => 4 clients of 25.
	clients = SplitClients([]float64{100}, 1, 2)
	if len(clients) != 4 || !almost(clients[0].Volume, 25) {
		t.Fatalf("clients=%v", clients)
	}
}

func TestPartitionClientsConservesVolume(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	clients := SplitClients([]float64{40, 8, 13}, 10, 3)
	per := AggregateAssigned(clients, RandomAssignment(len(clients), 3, rng), 3, 3)
	for k, want := range []float64{40, 8, 13} {
		got := 0.0
		for c := range per {
			got += per[c][k]
		}
		if !almost(got, want) {
			t.Fatalf("demand %d: partitioned total %v, want %v", k, got, want)
		}
	}
}

func TestPOPClientSplitRuns(t *testing.T) {
	g := topology.SWAN()
	set := demand.AllPairs(g)
	rng := rand.New(rand.NewSource(13))
	set.Uniform(rng, 0, 60)
	inst, err := NewInstance(g, set, 2)
	if err != nil {
		t.Fatal(err)
	}
	opt, _ := SolveMaxFlow(inst)
	pop, err := SolvePOP(inst, POPOptions{
		Partitions: 2, Rng: rand.New(rand.NewSource(5)),
		ClientSplit: true, SplitThreshold: 20, MaxSplits: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pop.Check(inst, 1e-5); err != nil {
		t.Fatal(err)
	}
	if pop.Total > opt.Total+1e-5 {
		t.Fatalf("POP+split %v beats OPT %v", pop.Total, opt.Total)
	}
	// Client splitting should not hurt on average: compare expectations.
	plain, err := ExpectedPOPTotal(inst, POPOptions{Partitions: 2, Rng: rand.New(rand.NewSource(9))}, 5)
	if err != nil {
		t.Fatal(err)
	}
	split, err := ExpectedPOPTotal(inst, POPOptions{
		Partitions: 2, Rng: rand.New(rand.NewSource(9)),
		ClientSplit: true, SplitThreshold: 20, MaxSplits: 3,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if split < plain-0.15*plain {
		t.Fatalf("client splitting collapsed value: %v vs %v", split, plain)
	}
}

func TestExpectedPOPTotalValidation(t *testing.T) {
	inst := figure1Instance(t)
	if _, err := ExpectedPOPTotal(inst, POPOptions{Partitions: 2, Rng: rand.New(rand.NewSource(1))}, 0); err == nil {
		t.Fatal("expected error for 0 rounds")
	}
}

func TestNewInstanceValidation(t *testing.T) {
	g := topology.New("disc", 3)
	g.AddEdge(0, 1, 10)
	set := demand.NewSet([]demand.Pair{{Src: 0, Dst: 2}})
	if _, err := NewInstance(g, set, 2); err == nil {
		t.Fatal("expected error for unreachable pair")
	}
	g2 := topology.Line(3)
	if _, err := NewInstance(g2, demand.AllPairs(g2), 0); err == nil {
		t.Fatal("expected error for 0 paths")
	}
}

func TestInstanceHelpers(t *testing.T) {
	inst := figure1Instance(t)
	// Figure 1 is directed: 0->1 and 1->2 each have a single loopless path;
	// only 0->2 has two.
	if inst.NumFlowVars() != 1+1+2 {
		t.Fatalf("flow vars=%d, want 4", inst.NumFlowVars())
	}
	sp := inst.ShortestPath(2)
	if sp.Hops() != 2 {
		t.Fatalf("shortest path of 0->2 should be 2 hops, got %d", sp.Hops())
	}
	w := inst.WithVolumes([]float64{1, 2, 3})
	if w.Demands.Total() != 6 || inst.Demands.Total() != 250 {
		t.Fatal("WithVolumes aliases or mutates")
	}
}

// TestQuickHeuristicsNeverBeatOpt is the core sanity property across random
// inputs: OPT dominates both heuristics, and all flows are feasible.
func TestQuickHeuristicsNeverBeatOpt(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := topology.Circle(5+rng.Intn(3), 1)
		set := demand.AllPairs(g)
		set.Uniform(rng, 0, 50)
		inst, err := NewInstance(g, set, 2)
		if err != nil {
			return false
		}
		opt, err := SolveMaxFlow(inst)
		if err != nil || opt.Check(inst, 1e-5) != nil {
			return false
		}
		th := rng.Float64() * 20
		if DemandPinningFeasible(inst, th) {
			dp, err := SolveDemandPinning(inst, th)
			if err != nil || dp.Check(inst, 1e-5) != nil {
				t.Logf("seed %d: dp err=%v", seed, err)
				return false
			}
			if dp.Total > opt.Total+1e-4 {
				t.Logf("seed %d: DP %v > OPT %v", seed, dp.Total, opt.Total)
				return false
			}
		}
		pop, err := SolvePOP(inst, POPOptions{Partitions: 1 + rng.Intn(3), Rng: rng})
		if err != nil || pop.Check(inst, 1e-5) != nil {
			t.Logf("seed %d: pop err=%v", seed, err)
			return false
		}
		if pop.Total > opt.Total+1e-4 {
			t.Logf("seed %d: POP %v > OPT %v", seed, pop.Total, opt.Total)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildInnerMaxFlowBookkeeping(t *testing.T) {
	inst := figure1Instance(t)
	vols := inst.Demands.Volumes()
	// Include only demand 2 (the 2-path pair), as POP partitions do.
	fl := BuildInnerMaxFlow("sub", inst, func(k int) kkt.AffineRHS {
		return kkt.Constant(vols[k])
	}, 0.5, func(k int) bool { return k == 2 }, 100)
	if fl.LP.NumVars != 2 {
		t.Fatalf("vars=%d, want 2 (two paths of demand 2)", fl.LP.NumVars)
	}
	for k := 0; k < 2; k++ {
		if fl.DemandRows[k] != -1 || fl.Index[k][0] != -1 {
			t.Fatalf("excluded demand %d has rows/vars", k)
		}
	}
	if fl.DemandRows[2] == -1 {
		t.Fatal("included demand has no row")
	}
	// Capacity rows exist for every edge, scaled by capFrac.
	for e := 0; e < inst.G.NumEdges(); e++ {
		row := fl.LP.Rows[fl.CapRows[e]]
		want := inst.G.Edge(e).Capacity * 0.5
		if row.RHS.Const != want {
			t.Fatalf("edge %d cap RHS %v, want %v", e, row.RHS.Const, want)
		}
		if row.DualUB != 1 || row.SlackUB != want {
			t.Fatalf("edge %d bounds not set: %+v", e, row)
		}
	}
	// VarUB: flow on the direct path (edge cap 50*0.5=25) vs 2-hop (50).
	direct := fl.LP.VarUB[fl.Index[2][1]]
	twoHop := fl.LP.VarUB[fl.Index[2][0]]
	if direct != 25 || twoHop != 50 {
		t.Fatalf("VarUB direct=%v twoHop=%v, want 25/50", direct, twoHop)
	}
}

func TestFlowEdgeLoadsAndCheckErrors(t *testing.T) {
	inst := figure1Instance(t)
	f, err := SolveMaxFlow(inst)
	if err != nil {
		t.Fatal(err)
	}
	loads := f.EdgeLoads(inst)
	if len(loads) != inst.G.NumEdges() {
		t.Fatalf("loads len=%d", len(loads))
	}
	total := 0.0
	for _, l := range loads {
		total += l
	}
	if total <= 0 {
		t.Fatal("no load recorded")
	}
	// Corrupt the flow: overserve a demand.
	f.PerDemand[0] = inst.Demands.Volume(0) + 5
	if err := f.Check(inst, 1e-6); err == nil {
		t.Fatal("Check missed overserved demand")
	}
	f2, _ := SolveMaxFlow(inst)
	f2.PerPath[0][0] = -1
	if err := f2.Check(inst, 1e-6); err == nil {
		t.Fatal("Check missed negative flow")
	}
	f3, _ := SolveMaxFlow(inst)
	f3.PerPath[2][0] += 1000
	f3.PerDemand[2] = 0 // keep demand check quiet; capacity must trip
	if err := f3.Check(inst, 1e-6); err == nil {
		t.Fatal("Check missed capacity violation")
	}
}
