// Package milp solves mixed linear problems that combine a linear program
// with binary variables and complementarity ("SOS1 pair") constraints, via
// branch and bound over LP relaxations.
//
// It stands in for the role Gurobi plays in the paper: the KKT rewrite of
// the meta optimization (1) produces a linear program plus complementary-
// slackness products u*v = 0, which Gurobi models as SOS constraints. Here
// each product is a ComplPair and branch and bound resolves it exactly the
// way SOS1 branching does: one child fixes u = 0, the other fixes v = 0.
// No big-M constants are needed for the pairs, so the relaxation stays
// numerically clean; big-M is only used by the optional indicator helpers.
package milp

import (
	"context"
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"
	"repro/internal/lp"
	"repro/internal/obs"
)

// ComplPair is a complementarity constraint u*v = 0 between two variables
// whose lower bounds must be zero (both are nonnegative and at least one
// must vanish).
type ComplPair struct {
	U, V lp.VarID
	Name string
}

// Model is a linear problem plus integrality and complementarity side
// constraints. The embedded *lp.Problem may be built directly; register
// binaries and pairs through the Model so the solver can see them.
type Model struct {
	P        *lp.Problem
	binaries []lp.VarID
	pairs    []ComplPair
}

// NewModel wraps an LP under construction.
func NewModel(p *lp.Problem) *Model { return &Model{P: p} }

// AddBinary adds a fresh {0,1} variable and registers it as binary.
func (m *Model) AddBinary(name string) lp.VarID {
	v := m.P.AddVar(name, 0, 1)
	m.binaries = append(m.binaries, v)
	return v
}

// MarkBinary registers an existing variable as binary. Its bounds must be
// within [0,1]; they are tightened to [0,1] if wider.
func (m *Model) MarkBinary(v lp.VarID) {
	lo, hi := m.P.Bounds(v)
	if lo < 0 || hi > 1 {
		m.P.SetBounds(v, max(lo, 0), min(hi, 1))
	}
	m.binaries = append(m.binaries, v)
}

// AddComplementarity requires u*v = 0. Both variables must have lower bound
// zero (so that "fix to zero" is a valid branch); it panics otherwise.
func (m *Model) AddComplementarity(u, v lp.VarID, name string) {
	for _, x := range []lp.VarID{u, v} {
		if lo, _ := m.P.Bounds(x); lo != 0 {
			panic(fmt.Sprintf("milp: complementarity %q: variable %q has lower bound %g, want 0",
				name, m.P.VarName(x), lo))
		}
	}
	m.pairs = append(m.pairs, ComplPair{U: u, V: v, Name: name})
}

// NumBinaries reports how many binary variables are registered.
func (m *Model) NumBinaries() int { return len(m.binaries) }

// NumComplementarities reports how many complementarity pairs are
// registered. The paper's Figure 6 calls these "SOS constraints".
func (m *Model) NumComplementarities() int { return len(m.pairs) }

// Pairs returns the registered complementarity pairs.
func (m *Model) Pairs() []ComplPair { return m.pairs }

// Binaries returns the registered binary variables.
func (m *Model) Binaries() []lp.VarID { return m.binaries }

// ReplacePairsWithBigM rewrites every complementarity pair u*v = 0 into
// big-M indicator rows with a fresh binary y: u <= M*y and v <= M*(1-y).
// This is the classical alternative to SOS1 branching; it is only valid
// when M genuinely bounds u and v from above, which for KKT duals requires
// a bound on the optimal multipliers. Provided as an ablation knob — the
// paper's SOS route needs no such constants.
func (m *Model) ReplacePairsWithBigM(bigM float64) {
	pairs := m.pairs
	m.pairs = nil
	for i, pr := range pairs {
		y := m.AddBinary(fmt.Sprintf("bigm%d.%s", i, pr.Name))
		// u <= M*y  <=>  u - M*y <= 0.
		m.P.AddConstraint(fmt.Sprintf("bigm%d.u", i),
			lp.NewExpr().Add(pr.U, 1).Add(y, -bigM), lp.LE, 0)
		// v <= M*(1-y)  <=>  v + M*y <= M.
		m.P.AddConstraint(fmt.Sprintf("bigm%d.v", i),
			lp.NewExpr().Add(pr.V, 1).Add(y, bigM), lp.LE, bigM)
	}
}

// AddIndicatorLE adds "bin = 1 implies expr <= rhs" using a big-M row:
// expr <= rhs + M*(1 - bin).
func (m *Model) AddIndicatorLE(name string, bin lp.VarID, expr lp.Expr, rhs, bigM float64) lp.ConID {
	e := lp.NewExpr().AddExpr(expr, 1).Add(bin, bigM)
	return m.P.AddConstraint(name, e, lp.LE, rhs+bigM)
}

// AddIndicatorGE adds "bin = 1 implies expr >= rhs" using a big-M row:
// expr >= rhs - M*(1 - bin).
func (m *Model) AddIndicatorGE(name string, bin lp.VarID, expr lp.Expr, rhs, bigM float64) lp.ConID {
	e := lp.NewExpr().AddExpr(expr, 1).Add(bin, -bigM)
	return m.P.AddConstraint(name, e, lp.GE, rhs-bigM)
}

// Status reports the outcome of a branch-and-bound run.
type Status int

const (
	// StatusOptimal means the incumbent was proved optimal (within gap
	// tolerances).
	StatusOptimal Status = iota
	// StatusFeasible means the search stopped early (time, nodes, stall or
	// target) holding a feasible incumbent; Result.Bound bounds how far it
	// can be from optimal — the primal-dual gap of Section 3.3.
	StatusFeasible
	// StatusInfeasible means no feasible assignment exists.
	StatusInfeasible
	// StatusNoIncumbent means the search stopped early without finding any
	// feasible assignment.
	StatusNoIncumbent
	// StatusUnbounded means the root relaxation is unbounded.
	StatusUnbounded
	// StatusInterrupted means Options.Ctx was cancelled (operator signal,
	// parent shutdown) before the search finished. The incumbent, bound and
	// counters are the valid best-so-far state — exactly what a checkpoint
	// written at the last wave boundary holds — so an interrupted run still
	// reports a genuine gap certificate.
	StatusInterrupted
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusFeasible:
		return "feasible"
	case StatusInfeasible:
		return "infeasible"
	case StatusNoIncumbent:
		return "no-incumbent"
	case StatusUnbounded:
		return "unbounded"
	case StatusInterrupted:
		return "interrupted"
	default:
		return "unknown"
	}
}

// Options tunes the branch-and-bound search. The zero value runs to proven
// optimality with defaults.
type Options struct {
	// TimeLimit caps wall-clock time; 0 means unlimited.
	TimeLimit time.Duration
	// MaxNodes caps explored nodes; 0 means unlimited.
	MaxNodes int
	// AbsGapTol stops when bound - incumbent <= AbsGapTol (default 1e-6).
	AbsGapTol float64
	// RelGapTol stops when the gap relative to the incumbent is below this.
	RelGapTol float64
	// StallWindow / StallImprove implement the paper's progress rule: stop
	// when a full window elapses with relative incumbent improvement below
	// StallImprove (paper: 0.5%). Zero window disables the rule.
	StallWindow  time.Duration
	StallImprove float64
	// Target, if non-nil, stops at the first incumbent at least as good as
	// *Target (in the problem's sense) — the paper's Z3-style query "any
	// input with gap >= g".
	Target *float64
	// DepthFirst switches node selection from best-bound to depth-first
	// (an ablation knob; best-bound is the default).
	DepthFirst bool
	// LPMaxIters overrides the per-node LP iteration cap.
	LPMaxIters int
	// Workers sets how many goroutines solve node relaxations (and run the
	// Polish heuristic) concurrently. 0 or 1 selects the sequential search.
	// Parallelism is wave-based and deterministic: the set of explored nodes
	// is a pure function of Batch, never of Workers, so Workers=1 and
	// Workers=N with the same Batch explore the identical tree and return
	// the identical incumbent and bound. See DESIGN.md, "Deterministic
	// work-sharing".
	Workers int
	// Batch is the wave size: how many nodes are popped from the frontier
	// and relaxed before any of their results are applied. 0 selects a
	// default of 1 when Workers <= 1 (exactly the classic serial loop) and
	// 2*Workers otherwise (amortizing stragglers). Larger batches increase
	// parallel occupancy but act on staler incumbents, so they may explore
	// nodes a smaller batch would have pruned.
	Batch int
	// WarmStart makes every non-root node warm-start its LP relaxation from
	// its parent's terminal basis (dual-simplex repair of the one or two
	// branched bounds) instead of solving cold from scratch. The lp package
	// falls back to the cold path whenever a snapshot is unusable, and it
	// reports an infeasible child straight from the repair's certificate
	// only once that certificate, scaled as a dual of the cold phase 1,
	// holds on the child's data as built, so the explored tree, incumbent,
	// bound, and node counters are bit-identical with the flag on or off,
	// for any Workers/Batch setting — only the pivot counts
	// (Result.LPIters, lp_iterations_total) change. See
	// DESIGN.md, "Warm-started re-solves". (lp's Presolve knob is
	// intentionally NOT exposed here: a presolved relaxation may report a
	// different vertex of a degenerate optimal face, which would steer
	// branching and break this contract.)
	WarmStart bool
	// Seeds are known-feasible solutions installed as incumbents before the
	// search starts (same contract as Polish: the objective must be
	// genuinely achievable and the vector is treated opaquely). They
	// guarantee the search returns something useful even when node LPs
	// exceed the time budget.
	Seeds []Seed
	// Polish, if non-nil, is a primal heuristic: it receives each node's
	// relaxation point and may return a feasible objective value (in the
	// problem's sense) plus a solution vector. The value must be achievable
	// — it is installed as an incumbent and used for pruning. The vector is
	// treated opaquely (returned through Result.X); it is the caller's
	// responsibility that it encodes a real solution. This is how the gap
	// finder grounds the search: any relaxation's demand vector can be
	// evaluated exactly with the direct OPT/heuristic solvers.
	//
	// Concurrency contract: when Workers > 1 the solver calls Polish from
	// several goroutines at once, so it must be safe for concurrent use; and
	// for runs to be reproducible its return value must depend only on its
	// argument, not on call order (memoize results rather than suppressing
	// repeats — see internal/core's priceCache).
	Polish func(x []float64) (obj float64, sol []float64, ok bool)
	// Ctx, if non-nil, cancels the search cooperatively: the coordinator
	// polls it at every wave boundary (and forwards it to node LPs), and a
	// cancelled context ends the run with StatusInterrupted carrying the
	// best-so-far incumbent and a valid bound. Nodes whose relaxation was
	// cut off mid-pivot are pushed back onto the frontier unexplored, so the
	// open-node set — and any checkpoint written from it — stays complete.
	Ctx context.Context
	// Checkpoint, when non-empty, is a file path the coordinator atomically
	// rewrites with the full search state (incumbent, frontier with
	// warm-start bases, counters, wave cursor) at wave boundaries. A run
	// killed at any point can be continued with Resume and finishes with
	// the bit-identical incumbent, bound and node count the uninterrupted
	// run would have reported. Write failures are reported as
	// KindCheckpointWrite error events and do not stop the search.
	Checkpoint string
	// CheckpointEvery writes the snapshot every N completed waves
	// (default 1: every wave boundary).
	CheckpointEvery int
	// CheckpointFS overrides the filesystem used for checkpoint writes —
	// the fault-injection seam. Nil selects the OS.
	CheckpointFS checkpoint.FS
	// Faults, if non-nil, is a deterministic fault plan (see
	// internal/faultinject): injected LP failures surface as typed errors
	// alongside a StatusInterrupted best-so-far result, worker panics are
	// recovered and drained deterministically, and forced deadline expiry
	// takes the regular deadline path.
	Faults *faultinject.Plan
	// Tracer, if non-nil, receives structured events (node explored/pruned/
	// branched, LP solve start/end, incumbents, stall checks, polish
	// outcomes, solve done). A nil tracer costs nothing in the hot loop.
	Tracer *obs.Tracer
	// Log, if non-nil, receives progress lines. It is kept as a legacy
	// convenience: internally it is attached to the tracer as an
	// obs.LogfSink, so Log and Tracer render the same event stream.
	Log func(format string, args ...any)
}

// Seed is a known-feasible solution handed to the solver up front.
type Seed struct {
	Objective float64
	X         []float64
}

// Incumbent sources recorded in TracePoint.Source (aliases of the obs
// package's constants so callers need not import obs).
const (
	SourceSeed   = obs.SourceSeed
	SourcePolish = obs.SourcePolish
	SourceLeaf   = obs.SourceLeaf
	SourceFinal  = obs.SourceFinal
)

// TracePoint records an incumbent improvement — the raw series behind the
// paper's gap-versus-time plots (Figure 3). Every point carries the elapsed
// wall time and node count at which it was installed, the best proven bound
// at that moment, and the source that produced it (seed, polish, leaf, or
// the final bound tightening).
type TracePoint struct {
	Elapsed   time.Duration
	Objective float64
	Bound     float64 // best proven bound when the point was recorded (may be ±Inf early)
	Nodes     int
	Source    string // SourceSeed, SourcePolish, SourceLeaf, or SourceFinal
}

// Result is the outcome of a Solve.
type Result struct {
	Status    Status
	Objective float64 // incumbent objective, valid unless NoIncumbent/Infeasible
	Bound     float64 // best proven bound on the true optimum
	X         []float64
	Nodes     int
	LPSolves  int
	LPIters   int // total simplex pivots across all node LP solves
	// WarmLPSolves counts node relaxations completed by the warm-start path,
	// infeasibility certificates included; WarmLPFallbacks counts nodes
	// where a warm start was attempted but the cold solver produced the
	// answer. Both are zero unless Options.WarmStart.
	WarmLPSolves    int
	WarmLPFallbacks int
	// Dives counts the warm node relaxations that started from the
	// previous node's terminal tableau (lp.Dive): a serial warm search's
	// child solved right after its parent. A resumed search does not dive.
	Dives   int
	Elapsed time.Duration
	// Fingerprint is the search fingerprint: an FNV-1a hash of everything
	// the explored tree depends on — model shape plus the tree-determining
	// options (resolved Batch, node order); Workers is deliberately
	// excluded. It is the same value the checkpoint layer pins snapshots
	// to, so two Results with equal fingerprints explored comparable trees
	// and their node/pivot counters may be diffed (the benchmark ledger
	// keys fixtures by it).
	Fingerprint uint64
	// Trace lists every incumbent improvement in time order, closed by a
	// SourceFinal point when the solve's terminal bound is tighter than the
	// bound at the last improvement.
	Trace []TracePoint
}

// Gap returns the absolute primal-dual gap |Bound - Objective|.
func (r *Result) Gap() float64 {
	g := r.Bound - r.Objective
	if g < 0 {
		g = -g
	}
	return g
}
