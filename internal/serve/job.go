package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/mcf"
	"repro/internal/milp"
	"repro/internal/obs"
	"repro/internal/topology"
)

// Spec is one gap-search job as submitted over the wire. The zero value of
// every optional field selects the same default cmd/gapfinder uses, so a
// job body can be as small as {"topology":"b4","heuristic":"dp"}.
type Spec struct {
	// Topology names a builtin: b4, abilene, swan, figure1, circle-N-M.
	Topology string `json:"topology"`
	// Heuristic is dp or pop.
	Heuristic string `json:"heuristic"`
	// Pairs is the demand-support size (-1 = all reachable pairs; default 12).
	Pairs int `json:"pairs,omitempty"`
	// Paths is the number of paths per pair (default 2).
	Paths int `json:"paths,omitempty"`
	// Seed draws the demand support (and POP assignments, offset by 7 —
	// the gapfinder convention).
	Seed int64 `json:"seed,omitempty"`
	// Threshold is DP's pinning threshold (default 5).
	Threshold float64 `json:"threshold,omitempty"`
	// Partitions and Instantiations configure POP (defaults 2 and 3).
	Partitions     int `json:"partitions,omitempty"`
	Instantiations int `json:"instantiations,omitempty"`
	// MaxDemand bounds each demand (default 100).
	MaxDemand float64 `json:"max_demand,omitempty"`
	// BudgetSec is the solve budget in seconds; it is clamped to the
	// server's MaxBudget (default: the server's DefaultBudget).
	BudgetSec float64 `json:"budget_sec,omitempty"`
	// TargetGap, when > 0, stops at the first input with gap >= TargetGap —
	// the "is there a gap above the threshold" query.
	TargetGap float64 `json:"target_gap,omitempty"`
	// WarmStart warm-starts node relaxations from the parent basis.
	WarmStart bool `json:"warm_start,omitempty"`
}

// canonicalize fills defaults in place and validates every field. It is the
// single admission gate: a Spec that canonicalizes once never fails to build
// later in a worker.
func (s *Spec) canonicalize(defaultBudget, maxBudget time.Duration) error {
	if _, err := topology.ByName(s.Topology); err != nil {
		return err
	}
	switch s.Heuristic {
	case "dp", "pop":
	default:
		return fmt.Errorf("serve: unknown heuristic %q (want dp or pop)", s.Heuristic)
	}
	if s.Pairs == 0 {
		s.Pairs = 12
	}
	if s.Pairs < -1 {
		return fmt.Errorf("serve: pairs %d out of range", s.Pairs)
	}
	if s.Paths == 0 {
		s.Paths = 2
	}
	if s.Paths < 1 {
		return fmt.Errorf("serve: paths %d out of range", s.Paths)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Threshold == 0 {
		s.Threshold = 5
	}
	if s.Threshold < 0 {
		return fmt.Errorf("serve: negative threshold %g", s.Threshold)
	}
	if s.Partitions == 0 {
		s.Partitions = 2
	}
	if s.Partitions < 1 {
		return fmt.Errorf("serve: partitions %d out of range", s.Partitions)
	}
	if s.Instantiations == 0 {
		s.Instantiations = 3
	}
	if s.Instantiations < 1 {
		return fmt.Errorf("serve: instantiations %d out of range", s.Instantiations)
	}
	if s.MaxDemand == 0 {
		s.MaxDemand = 100
	}
	if s.MaxDemand < 0 {
		return fmt.Errorf("serve: negative max_demand %g", s.MaxDemand)
	}
	if s.BudgetSec == 0 {
		s.BudgetSec = defaultBudget.Seconds()
	}
	if s.BudgetSec < 0 {
		return fmt.Errorf("serve: negative budget_sec %g", s.BudgetSec)
	}
	if max := maxBudget.Seconds(); s.BudgetSec > max {
		s.BudgetSec = max
	}
	if s.TargetGap < 0 {
		return fmt.Errorf("serve: negative target_gap %g", s.TargetGap)
	}
	return nil
}

// budget is the per-job solve budget.
func (s *Spec) budget() time.Duration {
	return time.Duration(s.BudgetSec * float64(time.Second))
}

// gapProblem is the slice of core.DPGapProblem / core.POPGapProblem the
// daemon drives. Both types satisfy it.
type gapProblem interface {
	Fingerprint(opts milp.Options) (uint64, error)
	Solve(opts milp.Options) (*core.Result, error)
	Resume(st *checkpoint.BnBState, opts milp.Options) (*core.Result, error)
}

// problem constructs a fresh gap problem from the canonical spec. It must be
// called once per Fingerprint/Solve/Resume invocation: the POP problem's
// build consumes draws from its Rng, so a shared value would fingerprint one
// model and solve another.
func (s *Spec) problem() (gapProblem, error) {
	g, err := topology.ByName(s.Topology)
	if err != nil {
		return nil, err
	}
	var set *demand.Set
	if s.Pairs < 0 {
		set = demand.ReachablePairs(g)
	} else {
		set = demand.RandomPairs(g, s.Pairs, rand.New(rand.NewSource(s.Seed)))
	}
	inst, err := mcf.NewInstance(g, set, s.Paths)
	if err != nil {
		return nil, err
	}
	input := core.InputConstraints{MaxDemand: s.MaxDemand}
	switch s.Heuristic {
	case "dp":
		return &core.DPGapProblem{Inst: inst, Threshold: s.Threshold, Input: input}, nil
	case "pop":
		return &core.POPGapProblem{
			Inst: inst, Partitions: s.Partitions, Instantiations: s.Instantiations,
			Rng: rand.New(rand.NewSource(s.Seed + 7)), Input: input,
		}, nil
	default:
		return nil, fmt.Errorf("serve: unknown heuristic %q", s.Heuristic)
	}
}

// options builds the solver options for this spec, mirroring cmd/gapfinder's
// whitebox settings (depth-first, stall rule at budget/3) so a job solved
// through the daemon reports the same SUMMARY the CLI would.
func (s *Spec) options(tracer *obs.Tracer) milp.Options {
	budget := s.budget()
	opts := milp.Options{
		TimeLimit:    budget,
		DepthFirst:   true,
		StallWindow:  budget / 3,
		StallImprove: 0.005,
		WarmStart:    s.WarmStart,
		Tracer:       tracer,
	}
	if s.TargetGap > 0 {
		t := s.TargetGap
		opts.Target = &t
	}
	return opts
}

// cacheKey composes the result-store key from three layers:
//
//   - the milp search fingerprint (model shape + depth-first — what
//     determines the explored tree);
//   - the canonical spec with the budget zeroed. The fingerprint alone is
//     NOT sufficient: it hashes the model's shape, not its coefficients, so
//     two seeds drawing different demand pairs of the same count would
//     alias. The spec pins the exact instance — and carries the
//     solve-determining option (warm-start) the ledger key must
//     distinguish because it changes effort counters. The budget
//     is excluded deliberately: it is a deadline, not a different search.
//     The exclusion is sound because only budget-independent answers are
//     ever stored (see cacheable) — a truncated solve leaves its
//     checkpoint behind instead of a store entry, so a bigger-budget
//     resubmission resumes the search rather than inheriting the
//     truncation as a permanent cache hit;
//   - the presolve setting of the heuristic-side one-shot LPs (a constant
//     in this build, recorded so a future toggle cannot silently alias).
//
// Two submissions with the same key are the same solve — same answer, same
// effort counters — which is what makes a cache hit indistinguishable from
// a re-run. The spec must already be canonicalized.
func cacheKey(spec *Spec, fp uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], fp)
	h.Write(buf[:])
	keyed := *spec
	keyed.BudgetSec = 0
	h.Write(keyed.canonicalJSON())
	const presolveOneShots = 1 // internal/mcf oneShotOpts: always on
	h.Write([]byte{presolveOneShots})
	return h.Sum64()
}

// canonicalJSON is the spec's canonical wire form — fields in struct order,
// defaults filled — used both for queue persistence and for echoing the job
// back to clients.
func (s *Spec) canonicalJSON() json.RawMessage {
	b, err := json.Marshal(s)
	if err != nil {
		// A Spec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("serve: marshal spec: %v", err))
	}
	return b
}
