// Package blackbox implements the local-search baselines of Section 3.4:
// hill climbing (Algorithm 1) and simulated annealing. Both treat the gap
// function OPT(I) - Heuristic(I) as a black box over demand vectors and are
// the comparison points the white-box method beats in Figure 3.
package blackbox

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/mcf"
	"repro/internal/obs"
)

// GapFunc evaluates the gap for a demand vector. Implementations return
// -Inf for inputs on which the heuristic is infeasible (DP pinning can
// oversubscribe a link), which local search treats as "never move there".
type GapFunc func(demands []float64) (float64, error)

// DPGap returns the gap function OPT - DemandPinning on the instance. The
// function prices through one mcf.Pricer, built on its first call, and is
// safe for concurrent use.
func DPGap(inst *mcf.Instance, threshold float64) GapFunc {
	pc := mcf.NewPricer(inst)
	return func(d []float64) (float64, error) {
		opt, dp, err := pc.DPGap(d, threshold)
		if errors.Is(err, mcf.ErrInfeasible) {
			return math.Inf(-1), nil
		}
		return opt - dp, err // 0 on an error: both totals are 0
	}
}

// ConcurrentDPGap returns the gap function for the max-concurrent-flow
// objective: lambda_OPT - lambda_DP. The white-box rewrite does not apply
// to this objective (its inner rows couple lambda with the outer demand
// volumes), so black-box search is the supported way to attack it. Like
// DPGap it prices through one mcf.Pricer.
func ConcurrentDPGap(inst *mcf.Instance, threshold float64) GapFunc {
	pc := mcf.NewPricer(inst)
	return func(d []float64) (float64, error) {
		_, lamDP, err := pc.DemandPinningConcurrent(d, threshold)
		if errors.Is(err, mcf.ErrInfeasible) {
			return math.Inf(-1), nil
		}
		if err != nil {
			return 0, err
		}
		_, lamOpt, err := pc.DemandPinningConcurrent(d, math.Inf(-1))
		if err != nil {
			return 0, err
		}
		return lamOpt - lamDP, nil
	}
}

// POPGap returns the gap function OPT - mean POP total over the given fixed
// partition assignments — the same descriptor the white-box search
// optimizes, so the two methods compete on equal footing. Like DPGap it
// prices through one mcf.Pricer.
func POPGap(inst *mcf.Instance, assignments [][]int, partitions int) GapFunc {
	pc := mcf.NewPricer(inst)
	return func(d []float64) (float64, error) {
		opt, pop, err := pc.POPGap(d, assignments, partitions, nil)
		return opt - pop, err
	}
}

// TracePoint records the best gap known at a moment of the search — the
// data behind Figure 3's gap-versus-time curves.
type TracePoint struct {
	Elapsed time.Duration
	Gap     float64
	Evals   int
}

// Result is the outcome of a local search.
type Result struct {
	Demands []float64
	Gap     float64
	Evals   int
	Elapsed time.Duration
	Trace   []TracePoint
	// Interrupted is set when Options.Ctx was cancelled before the search
	// ran out of restarts or budget. Gap/Demands/Trace are still the valid
	// best-so-far; a budget expiry is a normal finish, not an interruption.
	Interrupted bool
}

// Options tunes both local searches. The paper's settings: Sigma is 10% of
// link capacity, K = 100 neighbor draws before declaring a local maximum,
// and the restart count is set by the latency budget.
type Options struct {
	// MinDemand/MaxDemand bound every demand (the search box).
	MinDemand, MaxDemand float64
	// Sigma is the neighbor-step standard deviation.
	Sigma float64
	// K is the patience: neighbors evaluated without improvement before the
	// current point is declared a local maximum (Algorithm 1's K).
	K int
	// Restarts caps random restarts (M_hc / M_sa); 0 means restart until
	// Budget expires.
	Restarts int
	// Budget is the wall-clock latency budget; 0 means no limit (Restarts
	// must then be positive).
	Budget time.Duration
	// Rng is required, keeping every search reproducible. With Workers > 1
	// it is used only to derive one child seed per restart (drawn in restart
	// order before any restart runs), so it must not be shared with a
	// concurrently running consumer.
	Rng *rand.Rand
	// Workers runs restarts concurrently on this many goroutines; 0 or 1 is
	// the classic sequential search. Each restart gets its own rand.Rand
	// seeded from Rng in restart order, so with a fixed Restarts count the
	// returned Gap, Demands and Evals are identical for every Workers value
	// (the restarts are independent; only wall clock changes). Under a pure
	// Budget the restart count itself depends on timing, parallel or not.
	Workers int
	// Tracer, if non-nil, receives structured events: a restart event per
	// random restart, move_accepted/move_rejected per neighbor evaluation,
	// and incumbent events (Source = "hill" or "anneal") whenever the best
	// known gap improves.
	Tracer *obs.Tracer
	// Ctx, if non-nil, cancels the search cooperatively: the best-so-far
	// result is returned with Result.Interrupted set.
	Ctx context.Context
	// Checkpoint, if non-empty, persists the restart ledger to this path
	// after completed restarts, atomically, so ResumeHillClimb /
	// ResumeSimulatedAnneal can finish a killed run with the identical Gap,
	// Demands and Evals. Checkpointing requires a positive Restarts cap and
	// selects the per-restart-seeded engine even at Workers <= 1 (that
	// engine's restart streams are what the ledger replays), so enabling it
	// changes which deterministic stream a given seed produces — but the
	// result is still a pure function of (seed, Restarts).
	Checkpoint string
	// CheckpointEvery writes the ledger every k completed restarts
	// (default: every one).
	CheckpointEvery int
	// CheckpointFS overrides the filesystem used for checkpoint writes; nil
	// selects the OS. The fault injector wraps this seam.
	CheckpointFS checkpoint.FS
}

func (o *Options) validate() error {
	if o.MaxDemand <= 0 || o.MinDemand < 0 || o.MinDemand > o.MaxDemand {
		return fmt.Errorf("blackbox: bad demand box [%g, %g]", o.MinDemand, o.MaxDemand)
	}
	if o.Sigma <= 0 {
		return fmt.Errorf("blackbox: Sigma must be > 0")
	}
	if o.K <= 0 {
		return fmt.Errorf("blackbox: K must be > 0")
	}
	if o.Restarts <= 0 && o.Budget <= 0 {
		return fmt.Errorf("blackbox: need Restarts or Budget")
	}
	if o.Rng == nil {
		return fmt.Errorf("blackbox: need a seeded Rng")
	}
	if o.Checkpoint != "" && o.Restarts <= 0 {
		return fmt.Errorf("blackbox: Checkpoint requires a positive Restarts cap (the ledger replays a fixed seed sequence)")
	}
	return nil
}

func (o *Options) clamp(x float64) float64 {
	if x < o.MinDemand {
		return o.MinDemand
	}
	if x > o.MaxDemand {
		return o.MaxDemand
	}
	return x
}

// randomStart and neighbor draw from an explicit rng so each restart can own
// an independent stream: sequential searches pass o.Rng (preserving the
// historical draw sequence per seed), parallel restarts pass their per-restart
// child rng.
func (o *Options) randomStart(rng *rand.Rand, n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = o.MinDemand + rng.Float64()*(o.MaxDemand-o.MinDemand)
	}
	return d
}

func (o *Options) neighbor(rng *rand.Rand, d []float64) []float64 {
	out := make([]float64, len(d))
	for i := range d {
		out[i] = o.clamp(d[i] + rng.NormFloat64()*o.Sigma)
	}
	return out
}

// search runs restarts of a single-start strategy, tracking the best point.
type search struct {
	opts    *Options
	method  string // "hill" or "anneal"; tags incumbent/restart events
	tr      *obs.Tracer
	start   time.Time
	best    []float64
	bestGap float64
	evals   int
	trace   []TracePoint
}

func newSearch(o *Options, method string) *search {
	return &search{opts: o, method: method, tr: o.Tracer,
		//gapvet:allow walltime the search clock anchors the Budget contract and trace timestamps
		start: time.Now(), bestGap: math.Inf(-1)}
}

func (s *search) expired() bool {
	//gapvet:allow walltime Budget is an explicit wall-clock latency contract (paper Section 3.4)
	return s.opts.Budget > 0 && time.Since(s.start) >= s.opts.Budget
}

// cancelled reports cooperative cancellation; unlike a budget expiry it
// marks the result Interrupted.
func (s *search) cancelled() bool {
	return s.opts.Ctx != nil && s.opts.Ctx.Err() != nil
}

// stopped is the restart loops' combined stop test: out of budget or
// cancelled.
func (s *search) stopped() bool { return s.expired() || s.cancelled() }

func (s *search) restarted() {
	s.tr.Emit(obs.Event{Kind: obs.KindRestart, Source: s.method,
		Objective: s.bestGap, Iters: s.evals})
}

// moved reports one neighbor evaluation's accept/reject outcome.
func (s *search) moved(accepted bool, gap float64) {
	k := obs.KindMoveReject
	if accepted {
		k = obs.KindMoveAccept
	}
	s.tr.Emit(obs.Event{Kind: k, Source: s.method, Objective: gap, Iters: s.evals})
}

func (s *search) observe(d []float64, gap float64) {
	s.evals++
	if gap > s.bestGap {
		s.bestGap = gap
		s.best = append([]float64(nil), d...)
		//gapvet:allow walltime trace timestamps are reporting-only
		s.trace = append(s.trace, TracePoint{Elapsed: time.Since(s.start), Gap: gap, Evals: s.evals})
		s.tr.Emit(obs.Event{Kind: obs.KindIncumbent, Source: s.method,
			Objective: gap, Iters: s.evals})
	}
}

func (s *search) result() *Result {
	return &Result{
		Demands: s.best,
		Gap:     s.bestGap,
		Evals:   s.evals,
		Elapsed: time.Since(s.start), //gapvet:allow walltime elapsed-time reporting only
		Trace:   s.trace,
	}
}

// hillRestart runs one random restart of Algorithm 1 on s, drawing from rng.
func hillRestart(s *search, gap GapFunc, n int, rng *rand.Rand) error {
	opts := s.opts
	s.restarted()
	d := opts.randomStart(rng, n)
	g, err := gap(d)
	if err != nil {
		return err
	}
	s.observe(d, g)
	for k := 0; k < opts.K && !s.stopped(); k++ {
		aux := opts.neighbor(rng, d)
		ag, err := gap(aux)
		if err != nil {
			return err
		}
		s.observe(aux, ag)
		if ag > g {
			d, g = aux, ag
			k = -1 // Algorithm 1: reset patience on improvement
			s.moved(true, ag)
		} else {
			s.moved(false, ag)
		}
	}
	return nil
}

// HillClimb implements Algorithm 1 with random restarts. Options.Workers > 1
// runs the restarts concurrently (see Options.Workers for the determinism
// contract).
func HillClimb(gap GapFunc, n int, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	restart := func(s *search, rng *rand.Rand) error { return hillRestart(s, gap, n, rng) }
	if opts.Workers > 1 || opts.Checkpoint != "" {
		return parallelRestarts(&opts, "hill", searchFingerprint("hill", n, &opts, 0, 0, 0), nil, restart)
	}
	return serialRestarts(&opts, "hill", restart)
}

// serialRestarts is the classic loop: every restart draws from the caller's
// Rng in sequence, so per-seed behavior matches the original single-threaded
// implementation exactly.
func serialRestarts(o *Options, method string, body func(*search, *rand.Rand) error) (*Result, error) {
	s := newSearch(o, method)
	for restart := 0; o.Restarts <= 0 || restart < o.Restarts; restart++ {
		if s.stopped() {
			break
		}
		if err := body(s, o.Rng); err != nil {
			return nil, err
		}
	}
	r := s.result()
	r.Interrupted = s.cancelled()
	return r, nil
}

// parallelRestarts fans the restarts out over o.Workers goroutines. Each
// restart index i gets a child rand.Rand seeded by the i-th draw from o.Rng
// and a private child search (own best/evals/trace, shared clock and tracer);
// completed children are merged in restart order, so for a fixed Restarts
// count the merged result is a pure function of the seed — the worker count
// and the goroutine schedule never reach the answer.
//
// The same per-restart independence is what makes checkpoint/resume exact:
// the ledger stores the pre-drawn seed sequence plus every completed
// restart's outcome, so a resumed run (resume != nil) re-runs only the
// missing indices from their original seeds and merges to the identical
// Gap, Demands and Evals.
func parallelRestarts(o *Options, method string, fp uint64, resume *checkpoint.BlackboxState, body func(*search, *rand.Rand) error) (*Result, error) {
	root := newSearch(o, method)
	var ckpt *checkpoint.Writer
	ckptEvery := 1
	if o.Checkpoint != "" {
		ckpt = &checkpoint.Writer{Path: o.Checkpoint, FS: o.CheckpointFS}
		if o.CheckpointEvery > 1 {
			ckptEvery = o.CheckpointEvery
		}
	}

	// Child seeds are the ONLY draws from the shared Rng, made in restart
	// order. With a restart cap they are all drawn up front; in pure budget
	// mode they are drawn lazily (still in index order) under the mutex. A
	// resumed run replays the snapshot's sequence verbatim and never
	// consults o.Rng.
	var seedMu sync.Mutex
	var seeds []int64
	prior := map[int]*search{}
	var ledger []checkpoint.RestartState
	if resume != nil {
		seeds = append([]int64(nil), resume.Seeds...)
		// Backdate the shared clock by the wall time the killed run already
		// consumed, so Budget and trace timestamps continue instead of
		// restarting from zero.
		root.start = root.start.Add(-time.Duration(resume.ElapsedNanos))
		for _, rs := range resume.Completed {
			prior[int(rs.Index)] = restartIn(o, method, root.start, rs)
			ledger = append(ledger, rs)
		}
		root.tr.Emit(obs.Event{Kind: obs.KindResume, Source: method,
			Iters: len(prior), Detail: o.Checkpoint})
	} else if o.Restarts > 0 {
		seeds = make([]int64, o.Restarts)
		for i := range seeds {
			seeds[i] = o.Rng.Int63()
		}
	}
	seedFor := func(i int) int64 {
		seedMu.Lock()
		defer seedMu.Unlock()
		for len(seeds) <= i {
			seeds = append(seeds, o.Rng.Int63())
		}
		return seeds[i]
	}

	workers := o.Workers
	if workers < 1 {
		workers = 1
	}
	if o.Restarts > 0 && workers > o.Restarts {
		workers = o.Restarts
	}
	type child struct {
		idx int
		s   *search
	}
	var (
		next      atomic.Int64
		mu        sync.Mutex
		done      []child
		completed int
		firstErr  error
		wg        sync.WaitGroup
	)
	// writeCheckpoint persists the ledger (called with mu held). A failed
	// write is reported and otherwise ignored: the previous good snapshot
	// survives, and losing a checkpoint must never lose the search.
	writeCheckpoint := func() {
		if ckpt == nil || completed%ckptEvery != 0 {
			return
		}
		st := &checkpoint.BlackboxState{
			Fingerprint: fp,
			Method:      method,
			Seeds:       append([]int64(nil), seeds...),
			//gapvet:allow walltime checkpointed elapsed time is reporting/budget state, not search logic
			ElapsedNanos: time.Since(root.start).Nanoseconds(),
			Completed:    append([]checkpoint.RestartState(nil), ledger...),
		}
		sort.Slice(st.Completed, func(i, j int) bool { return st.Completed[i].Index < st.Completed[j].Index })
		if err := ckpt.Save(&checkpoint.Snapshot{Blackbox: st}); err != nil {
			root.tr.Emit(obs.Event{Kind: obs.KindCheckpointWrite, Source: method,
				Status: "error", Detail: err.Error()})
			return
		}
		root.tr.Emit(obs.Event{Kind: obs.KindCheckpointWrite, Source: method,
			Status: "ok", Detail: o.Checkpoint})
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !root.stopped() {
				i := int(next.Add(1)) - 1
				if o.Restarts > 0 && i >= o.Restarts {
					return
				}
				if _, ok := prior[i]; ok {
					continue // already completed by the checkpointed run
				}
				cs := &search{opts: o, method: method, tr: o.Tracer,
					start: root.start, bestGap: math.Inf(-1)}
				err := body(cs, rand.New(rand.NewSource(seedFor(i))))
				mu.Lock()
				done = append(done, child{idx: i, s: cs})
				if err == nil && !root.stopped() {
					// Only restarts that ran to natural completion enter the
					// ledger: one cut short by the budget or a cancellation
					// still counts toward THIS run's best-so-far, but a
					// resumed run must re-run it in full to stay exact.
					ledger = append(ledger, restartOut(i, cs))
					completed++
					writeCheckpoint()
				}
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	for i, cs := range prior {
		done = append(done, child{idx: i, s: cs})
	}

	// Merge in restart order: the best gap wins with ties broken by the
	// lowest restart index (the serial loop's "first found" rule), evals sum.
	sort.Slice(done, func(i, j int) bool { return done[i].idx < done[j].idx })
	for _, c := range done {
		root.evals += c.s.evals
		if c.s.best != nil && c.s.bestGap > root.bestGap {
			root.bestGap = c.s.bestGap
			root.best = c.s.best
		}
	}
	// Stitch the per-restart traces into one monotone best-so-far series on
	// the shared clock. TracePoint.Evals stays the recording child's local
	// count (a global count would impose an ordering on concurrent evals
	// that never existed).
	var merged []TracePoint
	for _, c := range done {
		merged = append(merged, c.s.trace...)
	}
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].Elapsed < merged[j].Elapsed })
	bestSoFar := math.Inf(-1)
	for _, tp := range merged {
		if tp.Gap > bestSoFar {
			bestSoFar = tp.Gap
			root.trace = append(root.trace, tp)
		}
	}
	r := root.result()
	r.Interrupted = root.cancelled()
	return r, nil
}

// SAOptions extends Options with the annealing schedule: temperature starts
// at T0 and is multiplied by Gamma every KP iterations (paper: T0 = 500,
// Gamma = 0.1, KP = 100).
type SAOptions struct {
	Options
	T0    float64
	Gamma float64
	KP    int
}

func (o *SAOptions) validate() error {
	if err := o.Options.validate(); err != nil {
		return err
	}
	if o.T0 <= 0 || o.Gamma <= 0 || o.Gamma >= 1 || o.KP <= 0 {
		return fmt.Errorf("blackbox: bad annealing schedule T0=%g Gamma=%g KP=%d", o.T0, o.Gamma, o.KP)
	}
	return nil
}

// saRestart runs one annealed restart on s, drawing from rng.
func saRestart(s *search, gap GapFunc, n int, opts *SAOptions, rng *rand.Rand) error {
	s.restarted()
	d := opts.randomStart(rng, n)
	g, err := gap(d)
	if err != nil {
		return err
	}
	s.observe(d, g)
	temp := opts.T0
	sinceImprove := 0
	for iter := 0; sinceImprove < opts.K && !s.stopped(); iter++ {
		if iter > 0 && iter%opts.KP == 0 {
			temp *= opts.Gamma
		}
		aux := opts.neighbor(rng, d)
		ag, err := gap(aux)
		if err != nil {
			return err
		}
		s.observe(aux, ag)
		switch {
		case ag > g:
			d, g = aux, ag
			sinceImprove = 0
			s.moved(true, ag)
		default:
			sinceImprove++
			// Accept downhill moves with annealing probability. A -Inf
			// gap (infeasible heuristic input) gives probability zero.
			if p := math.Exp((ag - g) / temp); rng.Float64() < p {
				d, g = aux, ag
				s.moved(true, ag)
			} else {
				s.moved(false, ag)
			}
		}
	}
	return nil
}

// SimulatedAnneal implements the annealed variant of Section 3.4: a
// non-improving neighbor is still accepted with probability
// exp((gap_aux - gap)/t). Options.Workers > 1 runs the restarts concurrently
// (see Options.Workers for the determinism contract).
func SimulatedAnneal(gap GapFunc, n int, opts SAOptions) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	restart := func(s *search, rng *rand.Rand) error { return saRestart(s, gap, n, &opts, rng) }
	if opts.Workers > 1 || opts.Checkpoint != "" {
		fp := searchFingerprint("anneal", n, &opts.Options, opts.T0, opts.Gamma, opts.KP)
		return parallelRestarts(&opts.Options, "anneal", fp, nil, restart)
	}
	return serialRestarts(&opts.Options, "anneal", restart)
}
