// Package obs is the solver stack's observability layer: a structured
// event system (Tracer), a process-wide metrics registry (counters, gauges,
// timing histograms with expvar publication and a Prometheus-style text
// dump), and JSONL trace export whose records are a superset of
// milp.TracePoint — so the paper's gap-versus-time plots (Figure 3) come
// straight from a trace file.
//
// The package depends only on the standard library and is designed to cost
// nothing when disabled: a nil *Tracer is a valid, inert tracer, and every
// Emit on it returns immediately without allocating.
package obs

import (
	"sync"
	"time"
)

// Kind enumerates the event taxonomy. The names returned by String are the
// stable identifiers written to JSONL traces; DESIGN.md documents each.
type Kind uint8

const (
	// KindLPSolveStart marks the start of one LP (relaxation) solve.
	KindLPSolveStart Kind = iota
	// KindLPSolveEnd carries the solve's iteration/pivot/degenerate counts
	// and terminal status.
	KindLPSolveEnd
	// KindNodeExplored marks a branch-and-bound node whose relaxation was
	// evaluated; Nodes is the running explored count.
	KindNodeExplored
	// KindNodePruned marks a node discarded by bound or infeasibility
	// before branching.
	KindNodePruned
	// KindNodeBranched marks a node split into children; Detail names the
	// branching entity.
	KindNodeBranched
	// KindIncumbent marks an incumbent improvement; Source says whether it
	// came from a seed, polish, leaf, or the final bound tightening.
	KindIncumbent
	// KindStall is one evaluation of the paper's Section-3.3 progress rule;
	// Objective carries the window's relative improvement and Status is
	// "stop" or "continue".
	KindStall
	// KindPolishAccept marks a polish (primal heuristic) value installed as
	// a new incumbent.
	KindPolishAccept
	// KindPolishReject marks a polish attempt that did not improve the
	// incumbent (or declined to produce a value).
	KindPolishReject
	// KindRestart marks a black-box local-search restart.
	KindRestart
	// KindMoveAccept marks an accepted local-search move (uphill, or a
	// lucky annealing downhill).
	KindMoveAccept
	// KindMoveReject marks a rejected local-search move.
	KindMoveReject
	// KindPhaseStart / KindPhaseEnd bracket a named phase (build, solve,
	// verify, ...); PhaseEnd carries the duration in Dur.
	KindPhaseStart
	KindPhaseEnd
	// KindSolveDone marks the end of a branch-and-bound run with its final
	// status, objective, bound, and node count.
	KindSolveDone
	// KindWarmFallback marks an LP solve where a warm start was requested but
	// the cold two-phase path produced the answer (incompatible basis, lost
	// dual feasibility, or a repair that failed to converge). Iters carries
	// the solve's pivot count.
	KindWarmFallback
	// KindCheckpointWrite marks one checkpoint snapshot attempt; Status is
	// "ok" or "error" (Detail carries the error text), Nodes the explored
	// count at capture time.
	KindCheckpointWrite
	// KindResume marks a search reconstructed from a checkpoint; Nodes,
	// Objective and Bound carry the restored counters.
	KindResume
	// KindFaultInjected marks a deterministic fault-plan trigger firing;
	// Detail names the fault operation and occurrence.
	KindFaultInjected
)

func (k Kind) String() string {
	switch k {
	case KindLPSolveStart:
		return "lp_solve_start"
	case KindLPSolveEnd:
		return "lp_solve_end"
	case KindNodeExplored:
		return "node_explored"
	case KindNodePruned:
		return "node_pruned"
	case KindNodeBranched:
		return "node_branched"
	case KindIncumbent:
		return "incumbent"
	case KindStall:
		return "stall_check"
	case KindPolishAccept:
		return "polish_accepted"
	case KindPolishReject:
		return "polish_rejected"
	case KindRestart:
		return "restart"
	case KindMoveAccept:
		return "move_accepted"
	case KindMoveReject:
		return "move_rejected"
	case KindPhaseStart:
		return "phase_start"
	case KindPhaseEnd:
		return "phase_end"
	case KindSolveDone:
		return "solve_done"
	case KindWarmFallback:
		return "warm_fallback"
	case KindCheckpointWrite:
		return "checkpoint_write"
	case KindResume:
		return "resume"
	case KindFaultInjected:
		return "fault_injected"
	default:
		return "unknown"
	}
}

// Incumbent sources. Defined here (rather than in milp) so sinks can
// classify incumbent events without importing the solver.
const (
	SourceSeed   = "seed"   // caller-provided seed solution
	SourcePolish = "polish" // polish primal heuristic
	SourceLeaf   = "leaf"   // integral + complementary B&B leaf
	SourceFinal  = "final"  // final bound tightening at solve end
)

// Event is one structured observation. Fields are a union over the event
// taxonomy; unused fields are zero. Events are plain values so emitting one
// never allocates.
type Event struct {
	Kind    Kind
	Elapsed time.Duration // stamped by the Tracer: time since tracer start

	Objective  float64       // incumbent/relaxation objective, or stall improvement
	Bound      float64       // best proven bound at emission time
	Nodes      int           // branch-and-bound nodes explored so far
	Iters      int           // LP pivots (LPSolveEnd) or black-box evaluations
	Degenerate int           // degenerate pivots (LPSolveEnd)
	Dur        time.Duration // phase duration (PhaseEnd)

	Source string // incumbent source (seed/polish/leaf/final, or search method)
	Phase  string // phase name (PhaseStart/PhaseEnd)
	Status string // LP or solver status, or stall "stop"/"continue"
	Detail string // free-form annotation (e.g. branching entity)
}

// Sink consumes events. Implementations must be safe for concurrent use
// when the Tracer they are attached to is shared across goroutines.
type Sink interface {
	Emit(Event)
}

// Tracer stamps events with elapsed time and fans them out to its sinks.
// The zero value is unusable; construct with NewTracer. A nil *Tracer is a
// valid disabled tracer: all methods are no-ops.
type Tracer struct {
	mu    sync.Mutex
	start time.Time
	sinks []Sink
}

// NewTracer returns a tracer emitting to the given sinks, with its clock
// started now.
func NewTracer(sinks ...Sink) *Tracer {
	return &Tracer{start: time.Now(), sinks: sinks}
}

// Enabled reports whether emitting has any effect — use it to skip
// constructing expensive event details.
func (t *Tracer) Enabled() bool { return t != nil && len(t.sinks) > 0 }

// With returns a tracer that additionally emits to s, sharing the
// receiver's start time. A nil receiver yields a fresh tracer over s alone.
func (t *Tracer) With(s Sink) *Tracer {
	if t == nil {
		return NewTracer(s)
	}
	nt := &Tracer{start: t.start}
	nt.sinks = append(append(nt.sinks, t.sinks...), s)
	return nt
}

// Emit stamps e.Elapsed and forwards e to every sink. Emission is
// serialized, so sinks observe a nondecreasing Elapsed sequence. On a nil
// or sink-less tracer it returns immediately and never allocates.
func (t *Tracer) Emit(e Event) {
	if t == nil || len(t.sinks) == 0 {
		return
	}
	t.mu.Lock()
	e.Elapsed = time.Since(t.start)
	for _, s := range t.sinks {
		s.Emit(e)
	}
	t.mu.Unlock()
}

// TimePhase runs f as a named phase, bracketing it with PhaseStart and
// PhaseEnd events on tr (which may be nil). It returns f's duration and
// error. Phase durations reach the metrics registry through a MetricsSink
// attached to tr.
func TimePhase(tr *Tracer, name string, f func() error) (time.Duration, error) {
	tr.Emit(Event{Kind: KindPhaseStart, Phase: name})
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	tr.Emit(Event{Kind: KindPhaseEnd, Phase: name, Dur: d})
	return d, err
}

// Collector is a Sink that records every event in memory — for tests and
// post-run analysis.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

func (c *Collector) Emit(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Events returns a copy of everything recorded so far.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Count returns how many recorded events have the given kind.
func (c *Collector) Count(k Kind) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// LogfSink renders the human-relevant subset of events (incumbents,
// stalls, solve done, phases, restarts) as progress lines through a
// printf-style callback and drops high-frequency node/LP events. Attach it
// to a tracer with Tracer.With to get progress output from any solver.
type LogfSink struct {
	Logf func(format string, args ...any)
}

func (s LogfSink) Emit(e Event) {
	if s.Logf == nil {
		return
	}
	switch e.Kind {
	case KindIncumbent:
		s.Logf("bnb: node %d new incumbent %.6g (bound %.6g, %s)",
			e.Nodes, e.Objective, e.Bound, e.Source)
	case KindStall:
		if e.Status == "stop" {
			s.Logf("bnb: stalling (%.3g%% improvement in window), stopping", e.Objective*100)
		}
	case KindSolveDone:
		s.Logf("bnb: done status=%s obj=%.6g bound=%.6g nodes=%d", e.Status, e.Objective, e.Bound, e.Nodes)
	case KindPhaseEnd:
		s.Logf("phase %s: %v", e.Phase, e.Dur)
	case KindRestart:
		s.Logf("%s: restart (best %.6g after %d evals)", e.Source, e.Objective, e.Iters)
	}
}
