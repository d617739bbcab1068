package mcf

import (
	"fmt"
	"math/rand"

	"repro/internal/lp"
)

// POPOptions configures the POP heuristic (6). Partitions is the number of
// subproblems c; Rng drives the uniform random assignment of clients to
// partitions (required, so runs are reproducible). ClientSplit enables the
// Appendix-A extension: demands at or above SplitThreshold are halved
// repeatedly (at most MaxSplits times per client) before partitioning,
// reducing the damage a single large demand can do to one partition.
type POPOptions struct {
	Partitions     int
	Rng            *rand.Rand
	ClientSplit    bool
	SplitThreshold float64
	MaxSplits      int
}

func (o *POPOptions) validate() error {
	if o.Partitions < 1 {
		return fmt.Errorf("mcf: POP needs >= 1 partition, got %d", o.Partitions)
	}
	if o.Rng == nil {
		return fmt.Errorf("mcf: POP needs a seeded Rng for reproducible partitions")
	}
	if o.ClientSplit && (o.SplitThreshold <= 0 || o.MaxSplits < 1) {
		return fmt.Errorf("mcf: client splitting needs SplitThreshold > 0 and MaxSplits >= 1")
	}
	return nil
}

// Client is a unit of partitioning: a demand index and the volume this
// client carries. Without client splitting every demand is one client.
type Client struct {
	Demand int
	Volume float64
}

// SplitClients implements Appendix A's client splitting: each demand whose
// volume is at or above threshold is halved until it drops below the
// threshold or has been split maxSplits times, yielding 2^s equal clients.
func SplitClients(vols []float64, threshold float64, maxSplits int) []Client {
	var out []Client
	for k, v := range vols {
		splits := 0
		vol := v
		for vol >= threshold && splits < maxSplits {
			vol /= 2
			splits++
		}
		n := 1 << splits
		for i := 0; i < n; i++ {
			out = append(out, Client{Demand: k, Volume: vol})
		}
	}
	return out
}

// RandomAssignment draws a uniform partition index for each of n clients —
// the randomness POP's guarantees hinge on. Separating the draw from the
// solve lets the gap finder optimize against fixed instantiations and then
// test the found input on fresh ones (Figure 5a).
func RandomAssignment(n, partitions int, rng *rand.Rand) []int {
	a := make([]int, n)
	for i := range a {
		a[i] = rng.Intn(partitions)
	}
	return a
}

// AggregateAssigned pools client volumes per (partition, demand) under a
// fixed client-to-partition assignment: clients of the same demand landing
// in the same partition pool their volume, as the flow LP cannot tell them
// apart.
func AggregateAssigned(clients []Client, assign []int, partitions, numDemands int) [][]float64 {
	per := make([][]float64, partitions)
	for c := range per {
		per[c] = make([]float64, numDemands)
	}
	for i, cl := range clients {
		per[assign[i]][cl.Demand] += cl.Volume
	}
	return per
}

// SolvePOPAssigned solves POP under a fixed client-to-partition assignment.
func SolvePOPAssigned(inst *Instance, clients []Client, assign []int, partitions int) (*Flow, error) {
	return NewPricer(inst).POPAssigned(clients, assign, partitions)
}

// POPAssigned is SolvePOPAssigned on the pricer's instance: each partition
// routes its clients' pooled volumes over the capacities divided by the
// partition count, and the flows are unioned in partition order.
func (pc *Pricer) POPAssigned(clients []Client, assign []int, partitions int) (*Flow, error) {
	out := newFlow(pc.inst)
	if err := pc.solvePOP(clients, assign, partitions, func(varOf []lp.VarID, x []float64) {
		pc.addFlows(out, varOf, x)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// popTotal is POPAssigned's Flow.Total without building the Flow: the
// partitions' flows summed in partition, demand and path order, the order
// Flow.add sums them in.
func (pc *Pricer) popTotal(clients []Client, assign []int, partitions int) (float64, error) {
	total := 0.0
	err := pc.solvePOP(clients, assign, partitions, func(varOf []lp.VarID, x []float64) {
		for _, v := range varOf {
			if v >= 0 {
				total += x[v]
			}
		}
	})
	return total, err
}

// solvePOP solves every partition's LP in partition order and hands each
// optimal point to use with the partition's varOf.
func (pc *Pricer) solvePOP(clients []Client, assign []int, partitions int, use func(varOf []lp.VarID, x []float64)) error {
	lps, varOfs, err := pc.popLPs(clients, assign, partitions)
	if err != nil {
		return err
	}
	for c, p := range lps {
		if p == nil {
			continue
		}
		sol, err := p.SolveWith(oneShotOpts())
		if err != nil {
			return err
		}
		if sol.Status != lp.StatusOptimal {
			return fmt.Errorf("mcf: POP partition %d LP %v", c, sol.Status)
		}
		use(varOfs[c], sol.X)
	}
	return nil
}

// popLPs assembles every partition's LP, nil for a partition with no
// demand to route, and its varOf as in flowLP.
func (pc *Pricer) popLPs(clients []Client, assign []int, partitions int) ([]*lp.Problem, [][]lp.VarID, error) {
	if len(assign) != len(clients) {
		return nil, nil, fmt.Errorf("mcf: %d assignments for %d clients", len(assign), len(clients))
	}
	per := AggregateAssigned(clients, assign, partitions, pc.inst.Demands.Len())
	caps := make([]float64, pc.inst.G.NumEdges())
	for e := range caps {
		caps[e] = pc.inst.G.Edge(e).Capacity * (1 / float64(partitions))
	}
	names := pc.popNames(partitions)
	lps, varOfs := make([]*lp.Problem, partitions), make([][]lp.VarID, partitions)
	for c, pv := range per {
		if p, varOf := pc.flowLP(names[c], pv, 0, caps, true); p.NumVars() > 0 {
			lps[c], varOfs[c] = p, varOf
		}
	}
	return lps, varOfs, nil
}

// POPGap prices OPT and POP at vols, one client per demand, under each
// fixed client-to-partition assignment: the two sides of the POP gap. It
// returns OPT's total and descriptor applied to the POP total of each
// assignment, or their mean when descriptor is nil.
func (pc *Pricer) POPGap(vols []float64, assignments [][]int, partitions int, descriptor func([]float64) float64) (opt, pop float64, err error) {
	opt, err = pc.optTotal(vols)
	if err != nil {
		return 0, 0, err
	}
	clients := Clients(vols, POPOptions{})
	totals := make([]float64, len(assignments))
	for i, a := range assignments {
		if totals[i], err = pc.popTotal(clients, a, partitions); err != nil {
			return 0, 0, fmt.Errorf("mcf: POP instantiation %d: %w", i, err)
		}
	}
	if descriptor != nil {
		return opt, descriptor(totals), nil
	}
	sum := 0.0
	for _, t := range totals {
		sum += t
	}
	return opt, sum / float64(len(totals)), nil
}

// Clients materializes the client list for volumes vols under the options:
// one client per demand, or the Appendix-A split set.
func Clients(vols []float64, opts POPOptions) []Client {
	if opts.ClientSplit {
		return SplitClients(vols, opts.SplitThreshold, opts.MaxSplits)
	}
	clients := make([]Client, len(vols))
	for k, v := range vols {
		clients[k] = Client{Demand: k, Volume: v}
	}
	return clients
}

// SolvePOP solves POPMaxFlow (6): clients are partitioned uniformly at
// random, each partition solves OptMaxFlow over its own demands with every
// edge capacity divided by the partition count, and the flows are unioned.
func SolvePOP(inst *Instance, opts POPOptions) (*Flow, error) {
	return NewPricer(inst).POP(inst.Demands.Volumes(), opts)
}

// POP is SolvePOP at the given volumes. It panics on a vector WithVolumes
// would refuse.
func (pc *Pricer) POP(vols []float64, opts POPOptions) (*Flow, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	pc.inst.Demands.CheckVolumes(vols)
	clients := Clients(vols, opts)
	assign := RandomAssignment(len(clients), opts.Partitions, opts.Rng)
	return pc.POPAssigned(clients, assign, opts.Partitions)
}

// ExpectedPOPTotal estimates E[POP total flow] over rounds independent
// random partitionings — the deterministic descriptor the paper optimizes
// against in expectation mode.
func ExpectedPOPTotal(inst *Instance, opts POPOptions, rounds int) (float64, error) {
	if rounds < 1 {
		return 0, fmt.Errorf("mcf: need >= 1 round")
	}
	pc := NewPricer(inst)
	sum := 0.0
	for r := 0; r < rounds; r++ {
		f, err := pc.POP(inst.Demands.Volumes(), opts)
		if err != nil {
			return 0, err
		}
		sum += f.Total
	}
	return sum / float64(rounds), nil
}
