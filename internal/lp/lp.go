// Package lp provides a linear-programming model and a dense two-phase
// primal simplex solver built entirely on the standard library.
//
// The package plays the role Gurobi's LP core plays in the paper: every
// inner problem (OptMaxFlow, DemandPinning, POP partitions) and every
// branch-and-bound node of the meta optimization is solved through it.
//
// A Problem is built incrementally from variables (with lower/upper bounds,
// possibly infinite) and linear constraints (<=, >=, ==). Solve converts the
// problem to standard computational form (minimize c'x, Ax = b, x >= 0),
// runs phase-1/phase-2 simplex, and maps the result back, including dual
// values for every user constraint.
package lp

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/obs"
)

// Sense is the optimization direction of a Problem.
type Sense int

const (
	// Minimize asks for the smallest objective value.
	Minimize Sense = iota
	// Maximize asks for the largest objective value.
	Maximize
)

func (s Sense) String() string {
	if s == Maximize {
		return "maximize"
	}
	return "minimize"
}

// Rel is the relation of a linear constraint.
type Rel int

const (
	// LE is "less than or equal".
	LE Rel = iota
	// GE is "greater than or equal".
	GE
	// EQ is "equal".
	EQ
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	default:
		return "=="
	}
}

// Inf is positive infinity, usable as a variable bound.
var Inf = math.Inf(1)

// VarID identifies a variable within a Problem.
type VarID int

// ConID identifies a constraint within a Problem.
type ConID int

// Term is one coefficient*variable entry of a linear expression.
type Term struct {
	Var  VarID
	Coef float64
}

// Expr is a linear expression: a sum of terms. The zero value is the empty
// expression. Expressions are value types; Add returns the receiver to allow
// chaining but mutates in place for efficiency.
type Expr struct {
	Terms []Term
}

// NewExpr returns an expression holding the given terms.
func NewExpr(terms ...Term) Expr { return Expr{Terms: terms} }

// Add appends coef*v to the expression and returns it.
func (e Expr) Add(v VarID, coef float64) Expr {
	e.Terms = append(e.Terms, Term{Var: v, Coef: coef})
	return e
}

// AddExpr appends all terms of o (scaled by scale) and returns the result.
func (e Expr) AddExpr(o Expr, scale float64) Expr {
	for _, t := range o.Terms {
		e.Terms = append(e.Terms, Term{Var: t.Var, Coef: t.Coef * scale})
	}
	return e
}

// Eval computes the value of the expression under assignment x.
func (e Expr) Eval(x []float64) float64 {
	s := 0.0
	for _, t := range e.Terms {
		s += t.Coef * x[t.Var]
	}
	return s
}

type varInfo struct {
	name string
	lo   float64
	hi   float64
	obj  float64
}

type conInfo struct {
	name string
	expr Expr
	rel  Rel
	rhs  float64
}

// Problem is a linear program under construction. Not safe for concurrent
// mutation; Solve does not mutate the problem and may be called from multiple
// goroutines on the same Problem.
type Problem struct {
	Name  string
	sense Sense
	vars  []varInfo
	cons  []conInfo
	// answerCap, when larger, is the capacity a solve gives Solution.X and
	// Dual: presolve's reduced problem reserves the original problem's
	// lengths, so postsolve spreads the reduced answer out in place.
	answerCap [2]int
}

// NewProblem returns an empty problem with the given name and sense.
func NewProblem(name string, sense Sense) *Problem {
	return &Problem{Name: name, sense: sense}
}

// Reset empties the problem and gives it a new name and sense. It keeps
// the capacity of its variables and constraints, so a caller that
// assembles one LP after another on a recycled Problem does not regrow it.
func (p *Problem) Reset(name string, sense Sense) {
	*p = Problem{Name: name, sense: sense, vars: p.vars[:0], cons: p.cons[:0]}
}

// Sense reports the optimization direction.
func (p *Problem) Sense() Sense { return p.sense }

// NumVars reports the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.vars) }

// NumConstraints reports the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// AddVar adds a variable with bounds [lo, hi] and zero objective coefficient.
// Use -Inf/+Inf for unbounded sides. It panics if lo > hi.
func (p *Problem) AddVar(name string, lo, hi float64) VarID {
	if lo > hi {
		panic(fmt.Sprintf("lp: variable %q has lo %g > hi %g", name, lo, hi))
	}
	p.vars = append(p.vars, varInfo{name: name, lo: lo, hi: hi})
	return VarID(len(p.vars) - 1)
}

// SetObj sets the objective coefficient of v, replacing any previous value.
func (p *Problem) SetObj(v VarID, coef float64) { p.vars[v].obj = coef }

// Obj returns the objective coefficient of v.
func (p *Problem) Obj(v VarID) float64 { return p.vars[v].obj }

// VarName returns the name of v.
func (p *Problem) VarName(v VarID) string { return p.vars[v].name }

// Bounds returns the bounds of v.
func (p *Problem) Bounds(v VarID) (lo, hi float64) { return p.vars[v].lo, p.vars[v].hi }

// SetBounds replaces the bounds of v. It panics if lo > hi.
func (p *Problem) SetBounds(v VarID, lo, hi float64) {
	if lo > hi {
		panic(fmt.Sprintf("lp: variable %q set lo %g > hi %g", p.vars[v].name, lo, hi))
	}
	p.vars[v].lo, p.vars[v].hi = lo, hi
}

// Grow reserves room for vars more variables and cons more constraints,
// so a problem whose size is known up front is built without regrowing.
func (p *Problem) Grow(vars, cons int) {
	p.vars = grow(p.vars, vars)
	p.cons = grow(p.cons, cons)
}

// grow returns s with room for n more elements. Unlike slices.Grow it
// allocates once also in a race-instrumented build, which keeps the
// allocation counts the tests seal the same under -race.
func grow[T any](s []T, n int) []T {
	if n > cap(s)-len(s) {
		t := make([]T, len(s), len(s)+n)
		copy(t, s)
		s = t
	}
	return s
}

// AddConstraint adds the constraint expr rel rhs and returns its id.
// Terms referencing the same variable are summed during solving.
func (p *Problem) AddConstraint(name string, expr Expr, rel Rel, rhs float64) ConID {
	p.cons = append(p.cons, conInfo{name: name, expr: expr, rel: rel, rhs: rhs})
	return ConID(len(p.cons) - 1)
}

// SetRHS replaces the right-hand side of c.
func (p *Problem) SetRHS(c ConID, rhs float64) { p.cons[c].rhs = rhs }

// ConName returns the name of c.
func (p *Problem) ConName(c ConID) string { return p.cons[c].name }

// Constraint returns the expression, relation and right-hand side of c.
func (p *Problem) Constraint(c ConID) (Expr, Rel, float64) {
	ci := p.cons[c]
	return ci.expr, ci.rel, ci.rhs
}

// Clone returns a deep copy of the problem. Constraint expressions are
// copied so the clone can be mutated independently.
func (p *Problem) Clone() *Problem {
	q := &Problem{Name: p.Name, sense: p.sense}
	q.vars = append([]varInfo(nil), p.vars...)
	q.cons = make([]conInfo, len(p.cons))
	for i, c := range p.cons {
		cc := c
		cc.expr.Terms = append([]Term(nil), c.expr.Terms...)
		q.cons[i] = cc
	}
	return q
}

// Status reports the outcome of a solve.
type Status int

const (
	// StatusOptimal means an optimal solution was found.
	StatusOptimal Status = iota
	// StatusInfeasible means no feasible point exists.
	StatusInfeasible
	// StatusUnbounded means the objective is unbounded in the problem's sense.
	StatusUnbounded
	// StatusIterLimit means the iteration cap was hit before convergence.
	StatusIterLimit
	// StatusDeadline means SolveOptions.Deadline passed before convergence.
	// It is deliberately distinct from StatusIterLimit so callers can tell a
	// timed-out solve (the whole search is out of wall clock) from a node
	// that merely exhausted its pivot budget.
	StatusDeadline
	// StatusInterrupted means SolveOptions.Ctx was cancelled before
	// convergence (operator signal or a parent search shutting down). Like
	// StatusDeadline it carries effort counters only — no point, no duals.
	StatusInterrupted
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusDeadline:
		return "deadline"
	case StatusInterrupted:
		return "interrupted"
	default:
		return "iteration-limit"
	}
}

// Solution is the result of solving a Problem.
//
// Contract: X, Dual and Objective are populated only when Status is
// StatusOptimal. On every other status — StatusInfeasible, StatusUnbounded,
// StatusIterLimit, StatusDeadline, StatusInterrupted — X and Dual are nil
// and Objective is zero; only the Status and the effort counters are
// meaningful. Callers must nil-check X/Dual before indexing into them on
// non-optimal solves.
type Solution struct {
	Status    Status
	Objective float64   // in the problem's own sense; valid only when optimal
	X         []float64 // one value per variable, in AddVar order; nil unless optimal
	// Dual holds one multiplier per user constraint such that, at optimality,
	// Objective == sum(Dual[i]*rhs[i]) + contributions of finite variable
	// bounds. Signs follow the convention: for Maximize, duals of LE rows are
	// >= 0 and duals of GE rows are <= 0; for Minimize the signs flip.
	// Nil unless Status is StatusOptimal.
	Dual       []float64
	Iterations int
	// Phase1Iterations is how many of Iterations were spent restoring
	// feasibility (phase 1); zero when the crash basis was already feasible.
	Phase1Iterations int
	// DegeneratePivots counts pivots that did not improve the phase
	// objective — the solver's stalling indicator.
	DegeneratePivots int
	// Basis is an opaque snapshot of the terminal simplex basis, populated
	// only when SolveOptions.CaptureBasis is set and the solve ended
	// StatusOptimal. Hand it to a later solve of the same Problem (with
	// different BoundOverride) through SolveOptions.WarmStart. A Basis is
	// immutable and safe to share across goroutines.
	Basis *Basis
	// Warm reports that the solve was completed by the warm-start path
	// (basis reinstall plus dual-simplex repair) rather than the cold
	// two-phase method.
	Warm bool
	// WarmFallback reports that a warm start was requested but the solve
	// fell back to the cold path (incompatible standard-form structure,
	// singular basis, lost dual feasibility, or a repair that failed to
	// converge). The result is then exactly the cold solve's.
	WarmFallback bool
	// Dived reports that a warm solve started from SolveOptions.Dive's
	// tableau instead of rebuilding the form and installing the basis.
	Dived bool
	// PresolveRows and PresolveCols count the constraint rows and variable
	// columns eliminated by the presolve pass (zero when SolveOptions.
	// Presolve was off or nothing reduced). X and Dual are always reported
	// in the original problem's spaces regardless.
	PresolveRows int
	PresolveCols int
}

// String renders the solution compactly for debugging.
func (s *Solution) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "status=%s obj=%.6g iters=%d", s.Status, s.Objective, s.Iterations)
	return b.String()
}

// WarmMode names how a warm start ended, for LP solve end events: "warm",
// "warm-infeasible" (at the repair's certificate), "warm-fallback" or "".
func (s *Solution) WarmMode() string {
	switch {
	case s.Warm && s.Status == StatusInfeasible:
		return "warm-infeasible"
	case s.Warm:
		return "warm"
	case s.WarmFallback:
		return "warm-fallback"
	}
	return ""
}

// SolveOptions tunes the simplex solver. The zero value selects defaults.
type SolveOptions struct {
	// MaxIters caps the total simplex pivots across both phases.
	// 0 selects a size-dependent default.
	MaxIters int
	// BoundOverride, if non-nil, replaces the bounds of select variables for
	// this solve only, leaving the Problem unmodified. Used by branch and
	// bound to fix variables without cloning the constraint matrix.
	BoundOverride map[VarID][2]float64
	// Deadline, when non-zero, aborts the solve (StatusDeadline) once the
	// wall clock passes it; checked every few hundred pivots.
	Deadline time.Time
	// Ctx, when non-nil, is polled on the same cadence as Deadline; once it
	// is cancelled the solve aborts with StatusInterrupted. Cancellation is
	// cooperative: the solver finishes its current pivot first, so the
	// tableau is never torn.
	Ctx context.Context
	// CaptureBasis asks the solver to snapshot the terminal basis into
	// Solution.Basis on optimal solves, for use as a later WarmStart. Off by
	// default: the snapshot allocates one int32 per row.
	CaptureBasis bool
	// WarmStart, if non-nil, is a Basis captured from a previous solve of
	// the same Problem (typically the parent node of a branch-and-bound
	// tree, whose BoundOverride differs only in the fixed variables). The
	// solver reinstalls the basis against this solve's overrides and repairs
	// primal feasibility with a dual-simplex phase; whenever the basis is
	// structurally incompatible or the repair fails it falls back to the
	// cold two-phase solve, so the answer never depends on whether a warm
	// start was attempted — only the iteration counters do.
	WarmStart *Basis
	// Tracer, when non-nil, receives a KindLPSolveStart/KindLPSolveEnd pair
	// bracketing the solve, with pivot and degeneracy counts on the end
	// event. Branch and bound does not forward its tracer here: its apply
	// step emits each node's LP events itself, stamped with the node count,
	// so forwarding would report every node solve twice.
	Tracer *obs.Tracer
	// Dive, when non-nil, lets the solve start from the previous solve's
	// terminal tableau when WarmStart is the Basis captured with it.
	Dive *Dive
	// Presolve runs the Andersen-style reduction pass (empty/singleton row
	// elimination, fixed and empty column removal, redundant-row removal,
	// singleton-row bound tightening) before the simplex and maps the
	// answer back to the original spaces afterwards. Off by default. A
	// presolved solve returns the same status and objective as an
	// unpresolved one and duals that certify it (DualObjective), but on a
	// degenerate optimal face it may legitimately report a different
	// optimal vertex — so the warm-start transplant and the canonical
	// cold==warm vertex contract apply within a fixed Presolve setting,
	// not across them. When a WarmStart basis is supplied, Presolve is
	// skipped for that solve: the snapshot is pinned to the unreduced
	// standard form, and warm continuity is worth more than the reduction.
	Presolve bool
}

// Solve solves the problem with default options.
//
//gapvet:allow tracecover zero-options convenience wrapper; SolveWith accepts the tracer
func (p *Problem) Solve() (*Solution, error) { return p.SolveWith(SolveOptions{}) }
