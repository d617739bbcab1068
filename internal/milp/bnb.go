package milp

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"
	"repro/internal/lp"
	"repro/internal/obs"
)

// ctxCancelled reports whether an optional context has been cancelled.
func ctxCancelled(ctx context.Context) bool { return ctx != nil && ctx.Err() != nil }

const (
	intTol   = 1e-6 // integrality tolerance for binaries
	complTol = 1e-6 // complementarity violation tolerance: min(u,v) below this is satisfied
	boundTol = 1e-7 // pruning slack
	// absGapTol closes the search once bound - incumbent falls to it.
	absGapTol = 1e-6
)

// Step-level time attribution: one bnb_wave_seconds observation per node
// step (the relaxation-solving span only — the apply step is excluded),
// plus a running step count, and one bnb_polish_seconds observation per
// speculative polish call. A "wave" in these names and in
// WorkerPanicError.Wave is one node step; the benchmark and the ledger
// read the names. Observability output only; the explored tree never reads
// these, which the gapvet:allow walltime annotations at the measurement
// sites assert.
var (
	bnbWaveSeconds   = obs.Default.Histogram("bnb_wave_seconds")
	bnbWavesTotal    = obs.Default.Counter("bnb_waves_total")
	bnbPolishSeconds = obs.Default.Histogram("bnb_polish_seconds")
)

// node is a branch-and-bound node: a set of bound overrides plus the bound
// inherited from its parent's relaxation. The id is a creation-order serial
// number used as the heap's final tie-break, which makes the pop order a
// strict total order — the anchor of checkpoint-resume determinism.
type node struct {
	id        uint64
	overrides map[lp.VarID][2]float64
	bound     float64 // parent relaxation objective, in maximize-direction score
	depth     int
	// basis is the parent relaxation's terminal basis, used to warm-start
	// this node's own LP when Options.WarmStart is set. It is created during
	// the apply step and immutable after, so both children share one
	// snapshot. A nil basis (root node, unbounded parent) simply solves
	// cold.
	basis *lp.Basis
}

type nodeHeap struct {
	nodes      []*node
	depthFirst bool
}

func (h *nodeHeap) Len() int { return len(h.nodes) }
func (h *nodeHeap) Less(i, j int) bool {
	a, b := h.nodes[i], h.nodes[j]
	if h.depthFirst && a.depth != b.depth {
		return a.depth > b.depth
	}
	// Bounds are copied verbatim from parent relaxations, so exact equality
	// is the right plateau test for the (bound, id) total order.
	//gapvet:allow floateq exact tie-break on copied bounds anchors the deterministic pop order
	if a.bound != b.bound {
		return a.bound > b.bound
	}
	// (bound, id) tie-break: with a unique minimum, heap.Pop's result is a
	// pure function of the heap's contents regardless of insertion order.
	// Newest-first, so tie plateaus (e.g. symmetric knapsacks, where every
	// node shares the root bound) are walked depth-first toward a leaf
	// instead of breadth-first across the tree.
	return a.id > b.id
}
func (h *nodeHeap) Swap(i, j int) { h.nodes[i], h.nodes[j] = h.nodes[j], h.nodes[i] }
func (h *nodeHeap) Push(x any)    { h.nodes = append(h.nodes, x.(*node)) }
func (h *nodeHeap) Pop() any {
	old := h.nodes
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	h.nodes = old[:n-1]
	return it
}

// nodeResult is what relax computes for one node, before apply folds it
// into the search.
type nodeResult struct {
	sol *lp.Solution
	err error
	// Speculative polish outcome, computed whenever the node could still
	// improve on the incumbent.
	polishObj float64
	polishSol []float64
	polishOK  bool
}

// search is one branch-and-bound run: the model and options it started
// with plus the state every node step settles. Solve and Resume build it
// through one constructor; run then drives it through the named steps
// stop, pop, step (relax), apply (count, prune, polish, branch),
// writeCheckpoint and finish.
type search struct {
	m    *Model
	opts Options
	tr   *obs.Tracer
	dir  float64 // +1 for Maximize, -1 for Minimize: score = dir * objective

	// The fingerprint pins everything the explored tree depends on; a
	// checkpoint from a different model or node order must fail loudly
	// instead of resuming a structurally different search.
	fp   uint64
	ckpt *checkpoint.Writer

	start time.Time
	// elapsed0 is the wall clock the checkpointed run had already consumed;
	// it offsets elapsed-time reporting and counts against TimeLimit, so a
	// killed-and-resumed run gets the same total budget as an uninterrupted
	// one.
	elapsed0 time.Duration
	deadline time.Time // zero when no time limit is set
	// Stall rule state (paper Section 3.3: stop when incremental progress in
	// a window is below 0.5%).
	windowStart     time.Time
	windowIncumbent float64

	res              *Result
	incumbent        float64 // in score space (dir * objective)
	incumbentX       []float64
	bestBound        float64
	infeasibleProven bool // becomes false the moment the search stops early
	interrupted      bool

	h      *nodeHeap
	nextID uint64
	// A warm search solves its nodes one after another on this goroutine,
	// so a child popped right after its parent can dive on the parent's
	// terminal tableau; the handle finds that out by itself.
	dive *lp.Dive
}

// Solve runs branch and bound on the model. The LP's own sense is honored:
// for Maximize the bound decreases toward the incumbent from above, for
// Minimize from below.
//
// The search is serial: each step pops one node, solves its relaxation
// (plus a speculative Polish call) and applies the result, all on the
// calling goroutine, so a run is a pure function of the model and options.
// With Options.Ctx set the search is cooperatively cancellable
// (StatusInterrupted with the best-so-far incumbent and a valid bound), and
// with Options.Checkpoint set the state between steps is persisted
// atomically so Resume can continue a killed run to the bit-identical
// answer. On a failed node relaxation (solver error, recovered panic, or
// injected fault) Solve returns both the best-so-far StatusInterrupted
// result and a non-nil error.
func Solve(m *Model, opts Options) (*Result, error) { return runSearch(m, opts, nil) }

// runSearch is the engine behind Solve and Resume: a fresh search when resume
// is nil, otherwise the reconstruction of a checkpointed one.
func runSearch(m *Model, opts Options, resume *checkpoint.BnBState) (*Result, error) {
	s, err := newSearch(m, opts, resume)
	if err != nil {
		return nil, err
	}
	if resume == nil && s.seed() {
		return s.finish(StatusFeasible), nil
	}
	return s.run()
}

// newSearch builds the state of a fresh search (resume nil: the root node
// alone on the frontier) or reconstructs a checkpointed one verbatim.
func newSearch(m *Model, opts Options, resume *checkpoint.BnBState) (*search, error) {
	start := time.Now() //gapvet:allow walltime anchors TimeLimit and elapsed-time reporting; never shapes the tree
	s := &search{m: m, opts: opts, tr: opts.Tracer, dir: 1,
		start: start, windowStart: start,
		incumbent: math.Inf(-1), bestBound: math.Inf(1), infeasibleProven: true,
		h: &nodeHeap{depthFirst: opts.DepthFirst}, nextID: 1}
	if m.P.Sense() == lp.Minimize {
		s.dir = -1
	}
	s.fp = fingerprint(m, opts.DepthFirst)
	if resume != nil && resume.Fingerprint != s.fp {
		return nil, &checkpoint.MismatchError{What: "search fingerprint", Want: resume.Fingerprint, Got: s.fp}
	}
	if opts.Checkpoint != "" {
		s.ckpt = &checkpoint.Writer{Path: opts.Checkpoint,
			FS: faultinject.WrapFS(opts.CheckpointFS, opts.Faults)}
	}
	s.res = &Result{Status: StatusNoIncumbent, Fingerprint: s.fp}
	if opts.WarmStart {
		s.dive = new(lp.Dive)
	}
	if resume == nil {
		heap.Push(s.h, &node{bound: math.Inf(1)}) // root: id 0
	} else {
		// Seeds are NOT re-installed: the snapshot's incumbent already
		// dominates every seed the original run accepted, and replaying them
		// would double-count trace points.
		s.elapsed0 = time.Duration(resume.ElapsedNanos)
		s.res.Nodes = int(resume.Nodes)
		s.res.LPSolves = int(resume.LPSolves)
		s.res.LPIters = int(resume.LPIters)
		s.res.WarmLPSolves = int(resume.WarmLPSolves)
		s.res.WarmLPFallbacks = int(resume.WarmLPFallbacks)
		s.res.Dives = int(resume.Dives)
		s.res.Trace = traceIn(resume.Trace)
		if resume.HasIncumbent {
			s.incumbent = resume.Incumbent
			s.incumbentX = append([]float64(nil), resume.IncumbentX...)
		}
		s.bestBound = resume.BestBound
		s.infeasibleProven = resume.InfeasibleProven
		s.nextID = resume.NextID
		h, err := frontierIn(resume.Frontier, opts.DepthFirst)
		if err != nil {
			return nil, err
		}
		s.h = h
		s.tr.Emit(obs.Event{Kind: obs.KindResume, Objective: s.dir * s.incumbent,
			Bound: s.dir * s.bestBound, Nodes: s.res.Nodes, Detail: opts.Checkpoint})
	}
	if opts.TimeLimit > 0 {
		s.deadline = start.Add(opts.TimeLimit - s.elapsed0)
	}
	return s, nil
}

func (s *search) elapsed() time.Duration {
	return s.elapsed0 + time.Since(s.start) //gapvet:allow walltime elapsed-time reporting only
}

// seed installs the caller-provided seed solutions as starting incumbents.
// It reports whether one already meets the Target.
func (s *search) seed() bool {
	for _, sd := range s.opts.Seeds {
		if score := s.dir * sd.Objective; score > s.incumbent && s.improve(score, sd.X, SourceSeed) {
			return true
		}
	}
	return false
}

// improve installs a new incumbent (score in score space) and records it on
// the trace. It reports whether the incumbent meets the Target; comparing in
// score space makes "at least as good" respect the problem's sense.
func (s *search) improve(score float64, x []float64, source string) bool {
	s.incumbent = score
	s.incumbentX = append([]float64(nil), x...)
	obj, bound := s.dir*score, s.dir*s.bestBound
	s.res.Trace = append(s.res.Trace, TracePoint{Elapsed: s.elapsed(), Objective: obj,
		Bound: bound, Nodes: s.res.Nodes, Source: source})
	s.tr.Emit(obs.Event{Kind: obs.KindIncumbent, Objective: obj, Bound: bound,
		Nodes: s.res.Nodes, Source: source})
	return s.opts.Target != nil && score >= s.dir**s.opts.Target-boundTol
}

// run is the node loop: refresh the global bound, apply the stopping rules,
// then pop, solve and apply one node at a time.
func (s *search) run() (*Result, error) {
	s.windowIncumbent = s.incumbent
	for s.h.Len() > 0 {
		// Global bound = best of incumbent and all open node bounds; the heap
		// top carries the largest open bound when using best-bound order.
		// Computed before the node is popped, so it upper-bounds that node
		// too — incumbent trace points recorded while applying it stay valid.
		if !s.opts.DepthFirst {
			s.bestBound = s.h.nodes[0].bound
		} else {
			s.bestBound = s.incumbent
			for _, nd := range s.h.nodes {
				if nd.bound > s.bestBound {
					s.bestBound = nd.bound
				}
			}
		}
		if s.incumbentX != nil && s.bestBound-s.incumbent <= absGapTol {
			// Every remaining open node is prunable, so the incumbent itself
			// is the tightest valid bound: never report a stale heap-top bound
			// below it (that would show a spurious gap).
			s.bestBound = math.Max(s.bestBound, s.incumbent)
			return s.finish(StatusOptimal), nil
		}
		if s.stop() {
			s.infeasibleProven = false
			break
		}
		nd := s.pop()
		if nd == nil {
			continue
		}
		if st, done, err := s.apply(nd, s.step(nd)); done {
			return s.finish(st), err
		}
	}

	drained := s.h.Len() == 0 && s.infeasibleProven
	switch {
	case s.incumbentX == nil && s.interrupted:
		return s.finish(StatusInterrupted), nil
	case s.incumbentX == nil && drained:
		return s.finish(StatusInfeasible), nil
	case s.incumbentX == nil:
		return s.finish(StatusNoIncumbent), nil
	case drained:
		s.bestBound = s.incumbent
		return s.finish(StatusOptimal), nil
	case s.interrupted:
		return s.finish(StatusInterrupted), nil
	}
	return s.finish(StatusFeasible), nil
}

// stop applies the stopping rules, checked only between node steps (no
// node is ever in flight here), and reports whether the search ends. The
// interrupt check comes BEFORE the checkpoint write: a node cut off
// mid-pivot was pushed back unexplored, and disk keeps the state before
// its step; resume re-does that step in full.
func (s *search) stop() bool {
	if s.interrupted || ctxCancelled(s.opts.Ctx) {
		s.interrupted = true
		return true
	}
	s.writeCheckpoint()
	if s.opts.Faults.At(faultinject.OpDeadline, s.res.Nodes+1) {
		s.tr.Emit(obs.Event{Kind: obs.KindFaultInjected, Nodes: s.res.Nodes,
			Detail: fmt.Sprintf("%s fault at wave %d", faultinject.OpDeadline, s.res.Nodes+1)})
		return true
	}
	if !s.deadline.IsZero() && time.Now().After(s.deadline) {
		return true
	}
	if s.opts.MaxNodes > 0 && s.res.Nodes >= s.opts.MaxNodes {
		return true
	}
	//gapvet:allow walltime the paper's Section-3.3 stall rule is deliberately a wall-clock policy
	if s.opts.StallWindow > 0 && time.Since(s.windowStart) > s.opts.StallWindow {
		improved := s.incumbent - s.windowIncumbent
		rel := math.Abs(improved) / math.Max(1e-12, math.Abs(s.incumbent))
		if s.incumbentX != nil && rel < s.opts.StallImprove {
			s.tr.Emit(obs.Event{Kind: obs.KindStall, Objective: rel,
				Nodes: s.res.Nodes, Status: "stop"})
			return true
		}
		s.tr.Emit(obs.Event{Kind: obs.KindStall, Objective: rel,
			Nodes: s.res.Nodes, Status: "continue"})
		s.windowStart = time.Now() //gapvet:allow walltime stall-rule window anchor (see StallWindow above)
		s.windowIncumbent = s.incumbent
	}
	return false
}

// pop pops the best open node surviving the bound prune against the
// current incumbent; nil when the frontier runs out.
func (s *search) pop() *node {
	for s.h.Len() > 0 {
		nd := heap.Pop(s.h).(*node)
		if nd.bound > s.incumbent+boundTol {
			return nd
		}
		s.tr.Emit(obs.Event{Kind: obs.KindNodePruned, Nodes: s.res.Nodes,
			Bound: s.dir * nd.bound, Detail: "bound"})
	}
	return nil
}

// step solves one node's relaxation and times it as one node step.
func (s *search) step(nd *node) nodeResult {
	start := time.Now() //gapvet:allow walltime step time attribution; observed into an obs histogram, never shapes the tree
	r := s.relax(uint64(s.res.Nodes)+1, nd)
	bnbWaveSeconds.ObserveDuration(time.Since(start)) //gapvet:allow walltime step time attribution; observed into an obs histogram, never shapes the tree
	bnbWavesTotal.Inc()
	return r
}

// relax is the node's LP relaxation plus a speculative polish. It changes
// no search state but the dive handle: in a warm search it may dive on the
// tableau the previous call left.
//
// A panic (a Polish bug, or the injected worker-panic fault) becomes a
// typed error in the result, which apply surfaces with the best-so-far
// result. stepNo is the 1-based index of the node step.
func (s *search) relax(stepNo uint64, nd *node) (r nodeResult) {
	defer func() {
		if p := recover(); p != nil {
			r = nodeResult{err: &WorkerPanicError{Wave: stepNo, Node: nd.id, Value: p, Stack: debug.Stack()}}
		}
	}()
	if s.opts.Faults.At(faultinject.OpWorkerPanic, int(stepNo)) {
		panic(&faultinject.Error{Op: faultinject.OpWorkerPanic, N: int(stepNo)})
	}
	r.sol, r.err = s.m.P.SolveWith(lp.SolveOptions{
		BoundOverride: nd.overrides,
		MaxIters:      s.opts.LPMaxIters,
		Deadline:      s.deadline, // zero when no time limit is set
		Ctx:           s.opts.Ctx, // cancels in-flight pivots cooperatively
		// Warm starting changes only how fast a node's relaxation is solved,
		// never its outcome (lp falls back to the cold path on any doubt),
		// so the explored tree stays bit-identical.
		CaptureBasis: s.opts.WarmStart,
		WarmStart:    nd.basis, // nil for the root or under a cold run
		Dive:         s.dive,
	})
	if r.err != nil || r.sol == nil || r.sol.Status != lp.StatusOptimal {
		return r
	}
	// Speculative polish: skip nodes whose score cannot beat the incumbent
	// — the apply step is guaranteed to prune them, so skipping is
	// outcome-neutral.
	if s.opts.Polish != nil && r.sol.X != nil && s.dir*r.sol.Objective > s.incumbent+boundTol {
		start := time.Now() //gapvet:allow walltime polish time attribution; observed into an obs histogram, never shapes the tree
		r.polishObj, r.polishSol, r.polishOK = s.opts.Polish(r.sol.X)
		bnbPolishSeconds.ObserveDuration(time.Since(start)) //gapvet:allow walltime polish time attribution; observed into an obs histogram, never shapes the tree
	}
	return r
}

// apply folds one node's result into the search: it counts the solve,
// prunes, installs the polish outcome and branches. done reports that the
// search ends here with status st (and, for a failed relaxation, err).
func (s *search) apply(nd *node, wr nodeResult) (st Status, done bool, err error) {
	// The nth-LP-solve fault is counted here, at the apply step, so the
	// firing point is a position in the deterministic tree.
	if n, fire := s.opts.Faults.Hit(faultinject.OpLPSolve); fire && wr.err == nil {
		wr.err = &faultinject.Error{Op: faultinject.OpLPSolve, N: n}
	}
	if wr.err != nil {
		// A failed relaxation (solver error, recovered panic, or
		// injected fault) voids any completeness proof but not the
		// incumbent: return the best-so-far result alongside the error.
		if errors.Is(wr.err, faultinject.ErrInjected) {
			s.tr.Emit(obs.Event{Kind: obs.KindFaultInjected, Nodes: s.res.Nodes,
				Detail: wr.err.Error()})
		}
		return StatusInterrupted, true, fmt.Errorf("milp: node relaxation failed: %w", wr.err)
	}
	sol := wr.sol
	if sol != nil && sol.Status == lp.StatusInterrupted {
		// Cancelled mid-pivot: the node was never evaluated, so push it back
		// unexplored (before any counting) — the frontier and the reported
		// bound stay exactly valid — and let the check before the next step
		// stop the loop.
		heap.Push(s.h, nd)
		s.interrupted = true
		return 0, false, nil
	}
	s.res.LPSolves++
	s.tr.Emit(obs.Event{Kind: obs.KindLPSolveStart, Nodes: s.res.Nodes})
	if sol != nil {
		s.res.LPIters += sol.Iterations
		switch {
		case sol.Warm:
			s.res.WarmLPSolves++
			if sol.Dived {
				s.res.Dives++
			}
		case sol.WarmFallback:
			s.res.WarmLPFallbacks++
			s.tr.Emit(obs.Event{Kind: obs.KindWarmFallback, Nodes: s.res.Nodes,
				Iters: sol.Iterations})
		}
		s.tr.Emit(obs.Event{Kind: obs.KindLPSolveEnd, Nodes: s.res.Nodes,
			Iters: sol.Iterations, Degenerate: sol.DegeneratePivots,
			Status: sol.Status.String(), Detail: sol.WarmMode()})
	}
	s.res.Nodes++
	s.tr.Emit(obs.Event{Kind: obs.KindNodeExplored, Nodes: s.res.Nodes,
		Bound: s.dir * s.bestBound})
	switch sol.Status {
	case lp.StatusInfeasible:
		s.tr.Emit(obs.Event{Kind: obs.KindNodePruned, Nodes: s.res.Nodes,
			Detail: "infeasible"})
		return 0, false, nil
	case lp.StatusUnbounded:
		// Unbounded relaxations are common here: KKT dual variables have
		// unbounded rays until complementarity pins them. Branch with an
		// infinite bound; only a fully resolved unbounded leaf proves the
		// mixed problem itself unbounded (see branch).
		sol = nil
	case lp.StatusIterLimit, lp.StatusDeadline:
		// Keep the node's inherited bound and skip — it cannot be evaluated,
		// and dropping it silently would break infeasibility proofs. A
		// deadline abort means the whole search is out of wall clock, not
		// that this one node was too hard; the deadline check before the
		// next step stops the loop.
		s.infeasibleProven = false
		return 0, false, nil
	}
	// The Solution contract guarantees X non-nil on StatusOptimal, and an
	// unbounded sol was nil-ed above; this guard is purely defensive so a
	// contract violation skips the node instead of panicking in branching.
	if sol != nil && sol.X == nil {
		s.infeasibleProven = false
		return 0, false, nil
	}
	score := math.Inf(1)
	if sol != nil {
		score = s.dir * sol.Objective
	}
	if score <= s.incumbent+boundTol {
		s.tr.Emit(obs.Event{Kind: obs.KindNodePruned, Nodes: s.res.Nodes,
			Bound: s.dir * score, Detail: "bound"})
		return 0, false, nil
	}
	if s.opts.Polish != nil && sol != nil {
		if s.polish(wr) {
			return StatusFeasible, true, nil
		}
		if score <= s.incumbent+boundTol {
			return 0, false, nil
		}
	}
	return s.branch(nd, sol, score)
}

// polish installs the node's speculative polish outcome: the caller's
// primal heuristic turned this relaxation point into a genuinely feasible
// solution (e.g. by pricing the relaxation's demand vector with the direct
// solvers). relax always ran it for a node that reaches this step: its
// score beats the incumbent relax saw. It reports whether the new incumbent
// meets the Target.
func (s *search) polish(wr nodeResult) bool {
	if !wr.polishOK {
		s.tr.Emit(obs.Event{Kind: obs.KindPolishReject, Nodes: s.res.Nodes})
		return false
	}
	if pScore := s.dir * wr.polishObj; pScore > s.incumbent {
		s.tr.Emit(obs.Event{Kind: obs.KindPolishAccept,
			Objective: wr.polishObj, Nodes: s.res.Nodes})
		return s.improve(pScore, wr.polishSol, SourcePolish)
	}
	s.tr.Emit(obs.Event{Kind: obs.KindPolishReject,
		Objective: wr.polishObj, Nodes: s.res.Nodes})
	return false
}

// branch splits an evaluated node (sol nil when its relaxation was
// unbounded) on its most violated binary or complementarity pair. A point
// that already satisfies every side constraint is a leaf instead: a new
// incumbent, or — with no point at all — proof that the mixed problem is
// unbounded. done and st are as for apply.
func (s *search) branch(nd *node, sol *lp.Solution, score float64) (st Status, done bool, err error) {
	var x []float64
	var childBasis *lp.Basis
	if sol != nil {
		x, childBasis = sol.X, sol.Basis
	}
	branchVar, branchPair := pickBranch(s.m, x, nd.overrides)
	if branchVar == -1 && branchPair == -1 {
		if x == nil {
			return StatusUnbounded, true, nil
		}
		// Integral and complementary: new incumbent.
		if score > s.incumbent && s.improve(score, x, SourceLeaf) {
			return StatusFeasible, true, nil
		}
		return 0, false, nil
	}
	// Both children inherit this node's terminal basis (nil when the
	// relaxation was unbounded or warm starting is off): the child LP
	// differs from this node's only in the branched bounds, which is what
	// makes the dual-simplex repair cheap.
	if branchVar != -1 {
		s.tr.Emit(obs.Event{Kind: obs.KindNodeBranched, Nodes: s.res.Nodes,
			Detail: s.m.P.VarName(branchVar)})
		heap.Push(s.h, s.child(nd, branchVar, 0, score, childBasis))
		heap.Push(s.h, s.child(nd, branchVar, 1, score, childBasis))
	} else {
		pr := s.m.pairs[branchPair]
		s.tr.Emit(obs.Event{Kind: obs.KindNodeBranched, Nodes: s.res.Nodes,
			Detail: pr.Name})
		heap.Push(s.h, s.child(nd, pr.U, 0, score, childBasis))
		heap.Push(s.h, s.child(nd, pr.V, 0, score, childBasis))
	}
	return 0, false, nil
}

// child makes a child of nd that fixes v to val. Children take
// creation-order ids, so the heap's tie-break order is reproducible run to
// run.
func (s *search) child(nd *node, v lp.VarID, val, bound float64, basis *lp.Basis) *node {
	ov := make(map[lp.VarID][2]float64, len(nd.overrides)+1)
	for k, b := range nd.overrides {
		ov[k] = b
	}
	ov[v] = [2]float64{val, val}
	id := s.nextID
	s.nextID++
	return &node{id: id, overrides: ov, bound: bound, depth: nd.depth + 1, basis: basis}
}

// capture snapshots the search state. Only called between node steps (no
// node in flight), so every field is a settled value.
func (s *search) capture() *checkpoint.Snapshot {
	st := &checkpoint.BnBState{
		Fingerprint:      s.fp,
		NextID:           s.nextID,
		Nodes:            int64(s.res.Nodes),
		LPSolves:         int64(s.res.LPSolves),
		LPIters:          int64(s.res.LPIters),
		WarmLPSolves:     int64(s.res.WarmLPSolves),
		WarmLPFallbacks:  int64(s.res.WarmLPFallbacks),
		Dives:            int64(s.res.Dives),
		BestBound:        s.bestBound,
		InfeasibleProven: s.infeasibleProven,
		ElapsedNanos:     s.elapsed().Nanoseconds(),
		Frontier:         frontierOut(s.h),
		Trace:            traceOut(s.res.Trace),
	}
	if s.incumbentX != nil {
		st.HasIncumbent = true
		st.Incumbent = s.incumbent
		st.IncumbentX = append([]float64(nil), s.incumbentX...)
	}
	return &checkpoint.Snapshot{BnB: st}
}

// writeCheckpoint persists the snapshot atomically every CheckpointEvery
// node steps (every step when it is below 2). A failed write (disk full,
// injected fault) is reported on the trace and otherwise ignored: the
// previous good snapshot survives untouched, and losing a checkpoint must
// never lose the search.
func (s *search) writeCheckpoint() {
	if s.ckpt == nil || s.res.Nodes%max(1, s.opts.CheckpointEvery) != 0 {
		return
	}
	if err := s.ckpt.Save(s.capture()); err != nil {
		if errors.Is(err, faultinject.ErrInjected) {
			s.tr.Emit(obs.Event{Kind: obs.KindFaultInjected, Nodes: s.res.Nodes,
				Detail: err.Error()})
		}
		s.tr.Emit(obs.Event{Kind: obs.KindCheckpointWrite, Nodes: s.res.Nodes,
			Status: "error", Detail: err.Error()})
		return
	}
	s.tr.Emit(obs.Event{Kind: obs.KindCheckpointWrite, Nodes: s.res.Nodes,
		Status: "ok", Detail: s.opts.Checkpoint})
}

// finish releases the dive handle and fills the Result for the given
// terminal status.
func (s *search) finish(status Status) *Result {
	s.dive.Release()
	res := s.res
	res.Elapsed = s.elapsed()
	res.Status = status
	if s.incumbentX != nil {
		res.Objective = s.dir * s.incumbent
		res.X = s.incumbentX
		// A break path (deadline/MaxNodes/stall) or a drained heap can leave
		// bestBound at a stale value below an incumbent raised by the final
		// step — polish candidates are not constrained by the subtree
		// bound of the node that produced them. The incumbent's score is
		// always a valid bound, so clamp: a negative gap is never reportable.
		s.bestBound = math.Max(s.bestBound, s.incumbent)
	}
	if math.IsInf(s.bestBound, 1) && s.incumbentX != nil {
		res.Bound = res.Objective
	} else {
		res.Bound = s.dir * s.bestBound
	}
	// Close the trace with the terminal bound when it is tighter than the
	// bound at the last improvement — this covers the early Target return
	// (which tightens bestBound to the incumbent) and optimal closure, so a
	// gap-versus-time plot always ends at the reported gap.
	if s.incumbentX != nil && len(res.Trace) > 0 &&
		res.Trace[len(res.Trace)-1].Bound != res.Bound { //gapvet:allow floateq exact repetition check: skips the closing trace point only when the bound is bit-identical
		res.Trace = append(res.Trace, TracePoint{
			Elapsed:   res.Elapsed,
			Objective: res.Objective,
			Bound:     res.Bound,
			Nodes:     res.Nodes,
			Source:    SourceFinal,
		})
	}
	s.tr.Emit(obs.Event{Kind: obs.KindSolveDone, Objective: res.Objective,
		Bound: res.Bound, Nodes: res.Nodes, Status: status.String()})
	return res
}

// pickBranch returns the most violated binary (by fractionality) or
// complementarity pair (by min(u,v)); (-1,-1) when the point is feasible
// for the full model. A nil x (unbounded node) branches on the first
// entity not already fixed by the node's overrides, so progress is
// guaranteed even without a relaxation point.
func pickBranch(m *Model, x []float64, overrides map[lp.VarID][2]float64) (lp.VarID, int) {
	if x == nil {
		fixed := func(v lp.VarID) bool {
			b, ok := overrides[v]
			return ok && b[0] == b[1] //gapvet:allow floateq branching stores identical endpoints when fixing, so equality is exact
		}
		for _, v := range m.binaries {
			if !fixed(v) {
				return v, -1
			}
		}
		for i, pr := range m.pairs {
			if !fixed(pr.U) && !fixed(pr.V) {
				return -1, i
			}
		}
		return -1, -1
	}
	bestVar := lp.VarID(-1)
	bestFrac := intTol
	for _, v := range m.binaries {
		f := math.Min(x[v], 1-x[v])
		if f > bestFrac {
			bestFrac = f
			bestVar = v
		}
	}
	bestPair := -1
	bestViol := complTol
	for i, pr := range m.pairs {
		u, v := math.Max(x[pr.U], 0), math.Max(x[pr.V], 0)
		if viol := math.Min(u, v); viol > bestViol {
			bestViol = viol
			bestPair = i
		}
	}
	// Prefer whichever violation is larger; binaries win ties since they
	// tend to reshape the relaxation more. (Branching all binaries strictly
	// first was tried and measured worse: resolving the largest
	// complementarity violations moves the relaxation's demand vector — and
	// with it the polish candidates — much faster.)
	if bestVar != -1 && bestFrac >= bestViol {
		return bestVar, -1
	}
	if bestPair != -1 {
		return -1, bestPair
	}
	return bestVar, -1
}
