package milp

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
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
)

// Wave-level time attribution: one bnb_wave_seconds observation per solved
// wave (the relaxation-solving span only, serial or pooled — the apply step
// is excluded), plus a running wave count. Observability output only; the
// explored tree never reads these, which the gapvet:allow walltime
// annotations at the measurement sites assert.
var (
	bnbWaveSeconds = obs.Default.Histogram("bnb_wave_seconds")
	bnbWavesTotal  = obs.Default.Counter("bnb_waves_total")
)

// node is a branch-and-bound node: a set of bound overrides plus the bound
// inherited from its parent's relaxation. The id is a creation-order serial
// number used as the heap's final tie-break, which makes the pop order a
// strict total order — the anchor of the deterministic parallel mode.
type node struct {
	id        uint64
	overrides map[lp.VarID][2]float64
	bound     float64 // parent relaxation objective, in maximize-direction score
	depth     int
	// basis is the parent relaxation's terminal basis, used to warm-start
	// this node's own LP when Options.WarmStart is set. It is created on the
	// coordinator during the deterministic apply step and immutable after,
	// so sharing one snapshot between both children is race-free. A nil
	// basis (root node, unbounded parent) simply solves cold.
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

// nodeResult is everything a worker computes for one wave node. The
// coordinator applies results strictly in wave order, so the explored tree
// (and every counter and trace event) is independent of which worker ran
// which node, and of how their completions interleaved.
type nodeResult struct {
	sol *lp.Solution
	err error
	// Speculative polish outcome, computed on the worker whenever the node
	// could still improve on the wave-start incumbent.
	polishTried bool
	polishObj   float64
	polishSol   []float64
	polishOK    bool
}

// Solve runs branch and bound on the model. The LP's own sense is honored:
// for Maximize the bound decreases toward the incumbent from above, for
// Minimize from below.
//
// With Options.Workers > 1 the search proceeds in waves: the coordinator
// pops up to Options.Batch nodes from the frontier, the workers solve their
// relaxations (plus speculative Polish calls) concurrently, and the
// coordinator applies the results sequentially in pop order. Everything
// that shapes the tree — pruning, incumbents, branching — happens on the
// coordinator, so a run is reproducible and Workers only changes wall-clock
// time, never the answer.
//
// With Options.Ctx set the search is cooperatively cancellable
// (StatusInterrupted with the best-so-far incumbent and a valid bound), and
// with Options.Checkpoint set the wave-boundary state is persisted
// atomically so Resume can continue a killed run to the bit-identical
// answer. On a failed node relaxation (solver error, recovered worker
// panic, or injected fault) Solve returns both the best-so-far
// StatusInterrupted result and a non-nil error.
func Solve(m *Model, opts Options) (*Result, error) { return runSearch(m, opts, nil) }

// runSearch is the engine behind Solve and Resume: a fresh search when resume
// is nil, otherwise the reconstruction of a checkpointed one.
func runSearch(m *Model, opts Options, resume *checkpoint.BnBState) (*Result, error) {
	start := time.Now() //gapvet:allow walltime anchors TimeLimit and elapsed-time reporting; never shapes the tree

	dir := 1.0
	if m.P.Sense() == lp.Minimize {
		dir = -1
	}
	if opts.AbsGapTol == 0 {
		opts.AbsGapTol = 1e-6
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}
	batch := resolveBatch(opts)
	// The legacy Log callback becomes one more sink on the tracer, so both
	// render the same event stream. A nil tracer with a nil Log stays nil,
	// and every Emit below is then a single branch with no allocation.
	tr := opts.Tracer
	if opts.Log != nil {
		tr = tr.With(obs.LogfSink{Logf: opts.Log})
	}

	// The fingerprint pins everything the explored tree depends on; a
	// checkpoint from a different model or batch must fail loudly instead of
	// resuming a structurally different search.
	fp := fingerprint(m, batch, opts.DepthFirst)
	if resume != nil && resume.Fingerprint != fp {
		return nil, &checkpoint.MismatchError{What: "search fingerprint", Want: resume.Fingerprint, Got: fp}
	}
	var ckpt *checkpoint.Writer
	ckptEvery := uint64(1)
	if opts.Checkpoint != "" {
		ckpt = &checkpoint.Writer{Path: opts.Checkpoint,
			FS: faultinject.WrapFS(opts.CheckpointFS, opts.Faults)}
		if opts.CheckpointEvery > 1 {
			ckptEvery = uint64(opts.CheckpointEvery)
		}
	}

	res := &Result{Status: StatusNoIncumbent, Fingerprint: fp}
	incumbent := math.Inf(-1) // in score space (dir * objective)
	var incumbentX []float64
	bestBound := math.Inf(1)

	// elapsed0 is the wall clock the checkpointed run had already consumed;
	// it offsets elapsed-time reporting and counts against TimeLimit, so a
	// killed-and-resumed run gets the same total budget as an uninterrupted
	// one.
	var elapsed0 time.Duration
	if resume != nil {
		elapsed0 = time.Duration(resume.ElapsedNanos)
	}
	elapsed := func() time.Duration {
		return elapsed0 + time.Since(start) //gapvet:allow walltime elapsed-time reporting only
	}
	deadline := time.Time{}
	if opts.TimeLimit > 0 {
		deadline = start.Add(opts.TimeLimit - elapsed0)
	}
	// Stall rule state (paper Section 3.3: stop when incremental progress in
	// a window is below 0.5%).
	windowStart := start
	windowIncumbent := incumbent

	h := &nodeHeap{depthFirst: opts.DepthFirst}
	var nextID uint64 = 1
	var waves uint64
	interrupted := false
	if resume == nil {
		heap.Push(h, &node{bound: math.Inf(1)}) // root: id 0
	}

	// A serial warm search solves its nodes one after another on this
	// goroutine, so a child popped right after its parent can dive on the
	// parent's terminal tableau; the handle finds that out by itself.
	var dive *lp.Dive
	if opts.WarmStart && workers == 1 && resume == nil {
		dive = new(lp.Dive)
	}

	// relax is the worker-side work for one node: the LP relaxation plus a
	// speculative polish. It is a pure function of (nd, waveIncumbent) — it
	// reads only immutable state — so results are identical no matter which
	// worker runs it. Each call builds its own simplex tableau (lp.SolveWith
	// shares no scratch memory between calls) or, in a serial warm search,
	// may dive on the one the previous call left.
	relax := func(nd *node, waveIncumbent float64) nodeResult {
		var r nodeResult
		r.sol, r.err = m.P.SolveWith(lp.SolveOptions{
			BoundOverride: nd.overrides,
			MaxIters:      opts.LPMaxIters,
			Deadline:      deadline, // zero when no time limit is set
			Ctx:           opts.Ctx, // cancels in-flight pivots cooperatively
			// Warm starting changes only how fast a node's relaxation is
			// solved, never its outcome (lp falls back to the cold path on
			// any doubt), so the explored tree stays bit-identical.
			CaptureBasis: opts.WarmStart,
			WarmStart:    nd.basis, // nil for the root or under a cold run
			Dive:         dive,
		})
		if r.err != nil || r.sol == nil || r.sol.Status != lp.StatusOptimal {
			return r
		}
		// Speculative polish: skip nodes whose score cannot beat even the
		// wave-start incumbent — the apply step is guaranteed to prune them,
		// so skipping is outcome-neutral.
		if opts.Polish != nil && r.sol.X != nil && dir*r.sol.Objective > waveIncumbent+boundTol {
			r.polishTried = true
			r.polishObj, r.polishSol, r.polishOK = opts.Polish(r.sol.X)
		}
		return r
	}

	// runNode wraps relax with panic recovery: a panicking worker (a Polish
	// bug, or the injected worker-panic fault) becomes a typed error in its
	// fixed result slot while the rest of the pool drains normally, and the
	// coordinator surfaces it in deterministic wave order. waveNo is the
	// 1-based index of the wave being solved.
	runNode := func(waveNo uint64, i int, nd *node, waveIncumbent float64) (r nodeResult) {
		defer func() {
			if p := recover(); p != nil {
				r = nodeResult{err: &WorkerPanicError{Wave: waveNo, Node: nd.id, Value: p, Stack: debug.Stack()}}
			}
		}()
		if i == 0 && opts.Faults.At(faultinject.OpWorkerPanic, int(waveNo)) {
			panic(&faultinject.Error{Op: faultinject.OpWorkerPanic, N: int(waveNo)})
		}
		return relax(nd, waveIncumbent)
	}

	// recordIncumbent appends a fully-populated trace point and emits the
	// matching event. obj and bound are in the problem's own sense.
	recordIncumbent := func(obj float64, source string) {
		bound := dir * bestBound
		res.Trace = append(res.Trace, TracePoint{
			Elapsed:   elapsed(),
			Objective: obj,
			Bound:     bound,
			Nodes:     res.Nodes,
			Source:    source,
		})
		tr.Emit(obs.Event{Kind: obs.KindIncumbent, Objective: obj, Bound: bound,
			Nodes: res.Nodes, Source: source})
	}

	finish := func(status Status) *Result {
		dive.Release()
		res.Elapsed = elapsed()
		res.Status = status
		if incumbentX != nil {
			res.Objective = dir * incumbent
			res.X = incumbentX
			// A break path (deadline/MaxNodes/stall) or a drained heap can
			// leave bestBound at a stale value below an incumbent raised later
			// in the final wave — polish candidates are not constrained by the
			// subtree bound of the node that produced them. The incumbent's
			// score is always a valid bound, so clamp: a negative gap is never
			// reportable (mirrors the optimality exit's clamp above).
			bestBound = math.Max(bestBound, incumbent)
		}
		if math.IsInf(bestBound, 1) && incumbentX != nil {
			res.Bound = res.Objective
		} else {
			res.Bound = dir * bestBound
		}
		// Close the trace with the terminal bound when it is tighter than the
		// bound at the last improvement — this covers the early Target return
		// (which tightens bestBound to the incumbent) and optimal closure, so
		// a gap-versus-time plot always ends at the reported gap.
		if incumbentX != nil && len(res.Trace) > 0 &&
			res.Trace[len(res.Trace)-1].Bound != res.Bound { //gapvet:allow floateq exact repetition check: skips the closing trace point only when the bound is bit-identical
			res.Trace = append(res.Trace, TracePoint{
				Elapsed:   res.Elapsed,
				Objective: res.Objective,
				Bound:     res.Bound,
				Nodes:     res.Nodes,
				Source:    SourceFinal,
			})
		}
		tr.Emit(obs.Event{Kind: obs.KindSolveDone, Objective: res.Objective,
			Bound: res.Bound, Nodes: res.Nodes, Status: status.String()})
		return res
	}

	infeasibleProven := true // becomes false the moment we stop early

	if resume != nil {
		// Reconstruct the wave-boundary state verbatim. Seeds are NOT
		// re-installed: the snapshot's incumbent already dominates every seed
		// the original run accepted, and replaying them would double-count
		// trace points.
		res.Nodes = int(resume.Nodes)
		res.LPSolves = int(resume.LPSolves)
		res.LPIters = int(resume.LPIters)
		res.WarmLPSolves = int(resume.WarmLPSolves)
		res.WarmLPFallbacks = int(resume.WarmLPFallbacks)
		res.Trace = traceIn(resume.Trace)
		if resume.HasIncumbent {
			incumbent = resume.Incumbent
			incumbentX = append([]float64(nil), resume.IncumbentX...)
		}
		bestBound = resume.BestBound
		infeasibleProven = resume.InfeasibleProven
		nextID = resume.NextID
		waves = resume.Waves
		h = frontierIn(resume.Frontier, opts.DepthFirst)
		tr.Emit(obs.Event{Kind: obs.KindResume, Objective: dir * incumbent,
			Bound: dir * bestBound, Nodes: res.Nodes, Detail: opts.Checkpoint})
	} else {
		// Install caller-provided seed solutions as starting incumbents.
		for _, sd := range opts.Seeds {
			if score := dir * sd.Objective; score > incumbent {
				incumbent = score
				incumbentX = append([]float64(nil), sd.X...)
				recordIncumbent(sd.Objective, SourceSeed)
				if opts.Target != nil && incumbent >= dir**opts.Target-boundTol {
					infeasibleProven = false
					return finish(StatusFeasible), nil
				}
			}
		}
	}
	windowIncumbent = incumbent

	// capture snapshots the wave-boundary state. Only called between waves
	// (no node in flight), so every field is a settled coordinator-side
	// value.
	capture := func() *checkpoint.Snapshot {
		st := &checkpoint.BnBState{
			Fingerprint:      fp,
			Waves:            waves,
			NextID:           nextID,
			Nodes:            int64(res.Nodes),
			LPSolves:         int64(res.LPSolves),
			LPIters:          int64(res.LPIters),
			WarmLPSolves:     int64(res.WarmLPSolves),
			WarmLPFallbacks:  int64(res.WarmLPFallbacks),
			BestBound:        bestBound,
			InfeasibleProven: infeasibleProven,
			ElapsedNanos:     elapsed().Nanoseconds(),
			Frontier:         frontierOut(h),
			Trace:            traceOut(res.Trace),
		}
		if incumbentX != nil {
			st.HasIncumbent = true
			st.Incumbent = incumbent
			st.IncumbentX = append([]float64(nil), incumbentX...)
		}
		return &checkpoint.Snapshot{BnB: st}
	}
	// writeCheckpoint persists the snapshot atomically. A failed write (disk
	// full, injected fault) is reported on the trace and otherwise ignored:
	// the previous good snapshot survives untouched, and losing a checkpoint
	// must never lose the search.
	writeCheckpoint := func() {
		if ckpt == nil || waves%ckptEvery != 0 {
			return
		}
		if err := ckpt.Save(capture()); err != nil {
			if errors.Is(err, faultinject.ErrInjected) {
				tr.Emit(obs.Event{Kind: obs.KindFaultInjected, Nodes: res.Nodes,
					Detail: err.Error()})
			}
			tr.Emit(obs.Event{Kind: obs.KindCheckpointWrite, Nodes: res.Nodes,
				Status: "error", Detail: err.Error()})
			return
		}
		tr.Emit(obs.Event{Kind: obs.KindCheckpointWrite, Nodes: res.Nodes,
			Status: "ok", Detail: opts.Checkpoint})
	}

	wave := make([]*node, 0, batch)
	resBuf := make([]nodeResult, batch)

	for h.Len() > 0 {
		// Global bound = best of incumbent and all open node bounds; the heap
		// top carries the largest open bound when using best-bound order.
		// Computed before the wave is popped, so it upper-bounds every wave
		// node too — incumbent trace points recorded mid-wave stay valid.
		if !opts.DepthFirst {
			bestBound = h.nodes[0].bound
		} else {
			bb := incumbent
			for _, nd := range h.nodes {
				if nd.bound > bb {
					bb = nd.bound
				}
			}
			bestBound = bb
		}
		if incumbentX != nil {
			gap := bestBound - incumbent
			if gap <= opts.AbsGapTol || (opts.RelGapTol > 0 && gap <= opts.RelGapTol*math.Abs(incumbent)) {
				// Every remaining open node is prunable, so the incumbent
				// itself is the tightest valid bound: never report a stale
				// heap-top bound below it (that would show a spurious gap).
				bestBound = math.Max(bestBound, incumbent)
				return finish(StatusOptimal), nil
			}
		}
		// Stopping rules, checked only at wave boundaries (no node is ever
		// in flight here). The interrupt check comes BEFORE the checkpoint
		// write: a wave cut short mid-apply pushed its unexplored nodes back,
		// and snapshotting that mixed frontier would not reproduce the
		// uninterrupted pop order. Disk always holds the last complete wave
		// boundary; resume re-does the final wave in full.
		if interrupted || ctxCancelled(opts.Ctx) {
			interrupted = true
			infeasibleProven = false
			break
		}
		writeCheckpoint()
		if opts.Faults.At(faultinject.OpDeadline, int(waves)+1) {
			tr.Emit(obs.Event{Kind: obs.KindFaultInjected, Nodes: res.Nodes,
				Detail: fmt.Sprintf("%s fault at wave %d", faultinject.OpDeadline, waves+1)})
			infeasibleProven = false
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			infeasibleProven = false
			break
		}
		if opts.MaxNodes > 0 && res.Nodes >= opts.MaxNodes {
			infeasibleProven = false
			break
		}
		//gapvet:allow walltime the paper's Section-3.3 stall rule is deliberately a wall-clock policy
		if opts.StallWindow > 0 && time.Since(windowStart) > opts.StallWindow {
			improved := incumbent - windowIncumbent
			rel := math.Abs(improved) / math.Max(1e-12, math.Abs(incumbent))
			if incumbentX != nil && rel < opts.StallImprove {
				tr.Emit(obs.Event{Kind: obs.KindStall, Objective: rel,
					Nodes: res.Nodes, Status: "stop"})
				infeasibleProven = false
				break
			}
			tr.Emit(obs.Event{Kind: obs.KindStall, Objective: rel,
				Nodes: res.Nodes, Status: "continue"})
			windowStart = time.Now() //gapvet:allow walltime stall-rule window anchor (see StallWindow above)
			windowIncumbent = incumbent
		}

		// Pop the wave: up to batch nodes surviving the bound prune against
		// the current incumbent, in strict heap order. With Batch == 1 this
		// is exactly the classic pop-prune-solve loop.
		lim := batch
		if opts.MaxNodes > 0 {
			if rem := opts.MaxNodes - res.Nodes; rem < lim {
				lim = rem
			}
		}
		wave = wave[:0]
		for len(wave) < lim && h.Len() > 0 {
			nd := heap.Pop(h).(*node)
			if nd.bound <= incumbent+boundTol {
				tr.Emit(obs.Event{Kind: obs.KindNodePruned, Nodes: res.Nodes,
					Bound: dir * nd.bound, Detail: "bound"})
				continue // pruned by bound
			}
			wave = append(wave, nd)
		}
		if len(wave) == 0 {
			continue
		}

		// Solve the wave's relaxations. Workers pull jobs dynamically; the
		// result slot is fixed by wave position, so scheduling cannot leak
		// into the outcome.
		results := resBuf[:len(wave)]
		waveNo := waves + 1
		waveStart := time.Now() //gapvet:allow walltime wave time attribution; observed into an obs histogram, never shapes the tree
		if workers == 1 || len(wave) == 1 {
			for i, nd := range wave {
				results[i] = runNode(waveNo, i, nd, incumbent)
			}
		} else {
			waveIncumbent := incumbent
			var cursor atomic.Int64
			var wg sync.WaitGroup
			nw := min(workers, len(wave))
			wg.Add(nw)
			for w := 0; w < nw; w++ {
				go func() {
					defer wg.Done()
					for {
						i := int(cursor.Add(1)) - 1
						if i >= len(wave) {
							return
						}
						// Disjoint-slot writes: the atomic cursor hands each worker a
						// unique index, results is preallocated to len(wave), and no
						// slot is written twice — safety lives in the indexing, not a lock.
						//gapvet:allow sharedstate disjoint slots; atomic cursor assigns each index to exactly one worker
						results[i] = runNode(waveNo, i, wave[i], waveIncumbent)
					}
				}()
			}
			wg.Wait()
		}
		bnbWaveSeconds.ObserveDuration(time.Since(waveStart)) //gapvet:allow walltime wave time attribution; observed into an obs histogram, never shapes the tree
		bnbWavesTotal.Inc()

		// Apply results sequentially in wave (= deterministic pop) order.
		for wi, nd := range wave {
			wr := results[wi]
			// The nth-LP-solve fault is counted here, at the apply step, so
			// the firing point is a position in the deterministic tree rather
			// than a race between workers.
			if n, fire := opts.Faults.Hit(faultinject.OpLPSolve); fire && wr.err == nil {
				wr = nodeResult{err: &faultinject.Error{Op: faultinject.OpLPSolve, N: n}}
			}
			if wr.err != nil {
				// A failed relaxation (solver error, recovered worker panic, or
				// injected fault) voids any completeness proof but not the
				// incumbent: return the best-so-far result alongside the error.
				if errors.Is(wr.err, faultinject.ErrInjected) {
					tr.Emit(obs.Event{Kind: obs.KindFaultInjected, Nodes: res.Nodes,
						Detail: wr.err.Error()})
				}
				infeasibleProven = false
				return finish(StatusInterrupted), fmt.Errorf("milp: node relaxation failed: %w", wr.err)
			}
			if wr.sol != nil && wr.sol.Status == lp.StatusInterrupted {
				// Cancelled mid-pivot: the node was never evaluated, so push it
				// back unexplored (before any counting) — the frontier and the
				// reported bound stay exactly valid — and let the wave-boundary
				// check stop the loop.
				heap.Push(h, nd)
				interrupted = true
				continue
			}
			// Intra-wave re-check: an earlier node of this wave may have
			// raised the incumbent past this node's bound. Never fires when
			// Batch == 1 (the pop-time prune used the same incumbent).
			latePruned := nd.bound <= incumbent+boundTol

			res.LPSolves++
			tr.Emit(obs.Event{Kind: obs.KindLPSolveStart, Nodes: res.Nodes})
			sol := wr.sol
			if sol != nil {
				res.LPIters += sol.Iterations
				switch {
				case sol.Warm:
					res.WarmLPSolves++
					if sol.Dived {
						res.Dives++
					}
				case sol.WarmFallback:
					res.WarmLPFallbacks++
					tr.Emit(obs.Event{Kind: obs.KindWarmFallback, Nodes: res.Nodes,
						Iters: sol.Iterations})
				}
				tr.Emit(obs.Event{Kind: obs.KindLPSolveEnd, Nodes: res.Nodes,
					Iters: sol.Iterations, Degenerate: sol.DegeneratePivots,
					Status: sol.Status.String(), Detail: sol.WarmMode()})
			}
			if latePruned {
				tr.Emit(obs.Event{Kind: obs.KindNodePruned, Nodes: res.Nodes,
					Bound: dir * nd.bound, Detail: "bound"})
				continue
			}
			res.Nodes++
			tr.Emit(obs.Event{Kind: obs.KindNodeExplored, Nodes: res.Nodes,
				Bound: dir * bestBound})
			switch sol.Status {
			case lp.StatusInfeasible:
				tr.Emit(obs.Event{Kind: obs.KindNodePruned, Nodes: res.Nodes,
					Detail: "infeasible"})
				continue
			case lp.StatusUnbounded:
				// Unbounded relaxations are common here: KKT dual variables have
				// unbounded rays until complementarity pins them. Branch with an
				// infinite bound; only a fully resolved unbounded leaf proves the
				// mixed problem itself unbounded (handled below).
				sol = nil
			case lp.StatusIterLimit:
				// Keep the node's inherited bound and skip — we cannot evaluate
				// it, and dropping it silently would break infeasibility proofs.
				infeasibleProven = false
				continue
			case lp.StatusDeadline:
				// Unlike an iteration-capped node, a deadline abort means the
				// whole search is out of wall clock, not that this one node was
				// too hard: skip it (unevaluated nodes void optimality and
				// infeasibility proofs) and let the wave-boundary deadline
				// check stop the loop.
				infeasibleProven = false
				continue
			}

			// The Solution contract guarantees X non-nil on StatusOptimal, and
			// an unbounded sol was nil-ed above; this guard is purely defensive
			// so a contract violation skips the node instead of panicking in
			// polish or branching.
			if sol != nil && sol.X == nil {
				infeasibleProven = false
				continue
			}

			var score float64
			var x []float64
			if sol == nil {
				score = math.Inf(1)
			} else {
				score = dir * sol.Objective
				x = sol.X
			}
			if score <= incumbent+boundTol {
				tr.Emit(obs.Event{Kind: obs.KindNodePruned, Nodes: res.Nodes,
					Bound: dir * score, Detail: "bound"})
				continue
			}

			// Primal heuristic: let the caller turn this relaxation point into a
			// genuine feasible solution (e.g. by evaluating the true gap of the
			// relaxation's demand vector with the direct solvers). The worker
			// already ran it speculatively whenever this point is reachable (the
			// score beats the wave-start incumbent, which is never above the
			// current one); the fallback covers the contract defensively.
			if opts.Polish != nil && x != nil {
				if !wr.polishTried {
					wr.polishObj, wr.polishSol, wr.polishOK = opts.Polish(x)
				}
				if wr.polishOK {
					pObj, pSol := wr.polishObj, wr.polishSol
					if pScore := dir * pObj; pScore > incumbent {
						incumbent = pScore
						incumbentX = append([]float64(nil), pSol...)
						tr.Emit(obs.Event{Kind: obs.KindPolishAccept,
							Objective: pObj, Nodes: res.Nodes})
						recordIncumbent(pObj, SourcePolish)
						if opts.Target != nil && incumbent >= dir**opts.Target-boundTol {
							infeasibleProven = false
							bestBound = math.Max(bestBound, incumbent)
							return finish(StatusFeasible), nil
						}
						if score <= incumbent+boundTol {
							continue
						}
					} else {
						tr.Emit(obs.Event{Kind: obs.KindPolishReject,
							Objective: pObj, Nodes: res.Nodes})
					}
				} else {
					tr.Emit(obs.Event{Kind: obs.KindPolishReject, Nodes: res.Nodes})
				}
			}

			branchVar, branchPair := pickBranch(m, x, nd.overrides)
			if branchVar == -1 && branchPair == -1 && x == nil {
				// An unbounded node with every side constraint resolved means
				// the mixed problem itself is unbounded.
				return finish(StatusUnbounded), nil
			}
			if branchVar == -1 && branchPair == -1 && x != nil {
				// Integral and complementary: new incumbent.
				if score > incumbent {
					incumbent = score
					incumbentX = append([]float64(nil), x...)
					recordIncumbent(dir*incumbent, SourceLeaf)
					// Compare in score space so "at least as good" respects sense.
					if opts.Target != nil && incumbent >= dir**opts.Target-boundTol {
						infeasibleProven = false
						bestBound = math.Max(bestBound, incumbent)
						return finish(StatusFeasible), nil
					}
				}
				continue
			}

			// Branch. Children take creation-order ids on the coordinator, so
			// the heap's tie-break order is reproducible run to run. Both
			// children inherit this node's terminal basis (nil when the
			// relaxation was unbounded or warm starting is off): the child LP
			// differs from this node's only in the branched bounds, which is
			// what makes the dual-simplex repair cheap.
			var childBasis *lp.Basis
			if sol != nil {
				childBasis = sol.Basis
			}
			mk := func(v lp.VarID, lo, hi float64) *node {
				ov := make(map[lp.VarID][2]float64, len(nd.overrides)+1)
				for k, b := range nd.overrides {
					ov[k] = b
				}
				ov[v] = [2]float64{lo, hi}
				id := nextID
				nextID++
				return &node{id: id, overrides: ov, bound: score, depth: nd.depth + 1, basis: childBasis}
			}
			if branchVar != -1 {
				tr.Emit(obs.Event{Kind: obs.KindNodeBranched, Nodes: res.Nodes,
					Detail: m.P.VarName(branchVar)})
				heap.Push(h, mk(branchVar, 0, 0))
				heap.Push(h, mk(branchVar, 1, 1))
			} else {
				pr := m.pairs[branchPair]
				tr.Emit(obs.Event{Kind: obs.KindNodeBranched, Nodes: res.Nodes,
					Detail: pr.Name})
				heap.Push(h, mk(pr.U, 0, 0))
				heap.Push(h, mk(pr.V, 0, 0))
			}
		}
		waves++
	}

	if incumbentX == nil {
		if interrupted {
			return finish(StatusInterrupted), nil
		}
		if infeasibleProven && h.Len() == 0 {
			return finish(StatusInfeasible), nil
		}
		return finish(StatusNoIncumbent), nil
	}
	if h.Len() == 0 && infeasibleProven {
		bestBound = incumbent
		return finish(StatusOptimal), nil
	}
	if interrupted {
		return finish(StatusInterrupted), nil
	}
	return finish(StatusFeasible), nil
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
