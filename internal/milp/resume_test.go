package milp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"
	"repro/internal/lp"
)

// resumeModel builds a randomized multi-constraint knapsack big enough to
// take several waves (a single-constraint knapsack's relaxation has at most
// one fractional variable, so its tree is a short path): the search tree is
// what the kill-and-resume property is quantified over.
func resumeModel(n int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	p := lp.NewProblem("resume-ks", lp.Maximize)
	m := NewModel(p)
	vars := make([]lp.VarID, n)
	for i := 0; i < n; i++ {
		vars[i] = m.AddBinary(fmt.Sprintf("x%d", i))
		p.SetObj(vars[i], 1+9*rng.Float64())
	}
	for c := 0; c < 3; c++ {
		expr := lp.NewExpr()
		total := 0.0
		for i := 0; i < n; i++ {
			w := 1 + 4*rng.Float64()
			total += w
			expr = expr.Add(vars[i], w)
		}
		p.AddConstraint(fmt.Sprintf("w%d", c), expr, lp.LE, 0.4*total)
	}
	return m
}

// TestKillAndResumeMatchesUninterrupted is the tentpole property: for every
// node step k at which the search can die, resuming from the checkpoint
// written before that step finishes with the bit-identical incumbent, bound
// and effort counters of the run that was never killed — warm and cold.
func TestKillAndResumeMatchesUninterrupted(t *testing.T) {
	m := resumeModel(10, 7)
	for _, tc := range []struct {
		name string
		warm bool
	}{{"warm", true}, {"cold", false}} {
		t.Run(tc.name, func(t *testing.T) {
			base := Options{WarmStart: tc.warm}
			ref := solve(t, m, base)
			if ref.Status != StatusOptimal {
				t.Fatalf("reference run not optimal: %v", ref.Status)
			}
			killed := 0
			for k := 1; ; k++ {
				path := filepath.Join(t.TempDir(), "bnb.ckpt")
				plan, err := faultinject.Parse(fmt.Sprintf("deadline:%d", k), 0)
				if err != nil {
					t.Fatalf("plan: %v", err)
				}
				opts := base
				opts.Checkpoint = path
				opts.Faults = plan
				dead, err := Solve(m, opts)
				if err != nil {
					t.Fatalf("kill at wave %d: %v", k, err)
				}
				if dead.Status == StatusOptimal {
					// The search finished before wave k: the fault never
					// fired and there is nothing left to kill.
					if killed == 0 {
						t.Fatal("reference search finished before the first kill point; enlarge the model")
					}
					break
				}
				killed++
				snap, err := checkpoint.Load(path)
				if err != nil {
					t.Fatalf("load at wave %d: %v", k, err)
				}
				if snap.BnB == nil {
					t.Fatalf("wrong snapshot kind at wave %d", k)
				}
				res, err := Resume(m, snap.BnB, base)
				if err != nil {
					t.Fatalf("resume at wave %d: %v", k, err)
				}
				if res.Status != ref.Status ||
					res.Objective != ref.Objective ||
					res.Bound != ref.Bound ||
					res.Nodes != ref.Nodes ||
					res.LPSolves != ref.LPSolves {
					t.Fatalf("resume at wave %d diverged:\n got %v obj=%v bound=%v nodes=%d lp=%d\nwant %v obj=%v bound=%v nodes=%d lp=%d",
						k, res.Status, res.Objective, res.Bound, res.Nodes, res.LPSolves,
						ref.Status, ref.Objective, ref.Bound, ref.Nodes, ref.LPSolves)
				}
				for i, x := range ref.X {
					if res.X[i] != x {
						t.Fatalf("resume at wave %d: X[%d] = %v, want %v", k, i, res.X[i], x)
					}
				}
			}
			if killed < 2 {
				t.Fatalf("only %d kill points exercised; enlarge the model", killed)
			}
		})
	}
}

// TestResumeAcrossDefaultBatchesMismatches pins the fingerprint across the
// retirement of node-level workers: a serial search keeps its fingerprint,
// while a snapshot taken by a 4-worker search of the same model, whose wave
// size defaulted to 8 nodes, names a different search and must be refused
// rather than continued.
func TestResumeAcrossDefaultBatchesMismatches(t *testing.T) {
	const serialFP, pooledFP = 0x77bfcdd92a7a7727, 0xa0b26651b00e20ee
	m := resumeModel(10, 7)
	if got := SearchFingerprint(m, Options{}); got != serialFP {
		t.Fatalf("serial fingerprint %#x, want %#x", got, uint64(serialFP))
	}
	path := filepath.Join(t.TempDir(), "bnb.ckpt")
	plan, _ := faultinject.Parse("deadline:2", 0)
	if _, err := Solve(m, Options{Checkpoint: path, Faults: plan}); err != nil {
		t.Fatalf("kill: %v", err)
	}
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := Resume(m, snap.BnB, Options{}); err != nil {
		t.Fatalf("resume of a serial snapshot: %v", err)
	}
	snap.BnB.Fingerprint = pooledFP
	var mm *checkpoint.MismatchError
	if _, err := Resume(m, snap.BnB, Options{}); !errors.As(err, &mm) {
		t.Fatalf("resume of a default-batch 4-worker snapshot: %v, want a MismatchError", err)
	}
}

func TestResumeRejectsFingerprintMismatch(t *testing.T) {
	m := resumeModel(8, 3)
	path := filepath.Join(t.TempDir(), "bnb.ckpt")
	plan, _ := faultinject.Parse("deadline:2", 0)
	if _, err := Solve(m, Options{Checkpoint: path, Faults: plan}); err != nil {
		t.Fatalf("kill: %v", err)
	}
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	var mm *checkpoint.MismatchError
	if _, err := Resume(m, snap.BnB, Options{DepthFirst: true}); !errors.As(err, &mm) {
		t.Fatalf("node-order mismatch not rejected: %v", err)
	}
	other := resumeModel(9, 3)
	if _, err := Resume(other, snap.BnB, Options{}); !errors.As(err, &mm) {
		t.Fatalf("model mismatch not rejected: %v", err)
	}
	if _, err := Resume(m, nil, Options{}); err == nil {
		t.Fatal("nil state accepted")
	}
}

func TestContextCancelReturnsInterrupted(t *testing.T) {
	m := resumeModel(8, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Solve(m, Options{Ctx: ctx})
	if err != nil {
		t.Fatalf("cancelled solve errored: %v", err)
	}
	if res.Status != StatusInterrupted {
		t.Fatalf("status = %v, want interrupted", res.Status)
	}
	if res.Status.String() != "interrupted" {
		t.Fatalf("status string = %q", res.Status.String())
	}
}

func TestWorkerPanicBecomesTypedError(t *testing.T) {
	m := resumeModel(8, 3)
	plan, _ := faultinject.Parse("worker-panic:2", 0)
	res, err := Solve(m, Options{Faults: plan})
	if err == nil {
		t.Fatal("injected panic produced no error")
	}
	var wp *WorkerPanicError
	if !errors.As(err, &wp) {
		t.Fatalf("error is not a WorkerPanicError: %v", err)
	}
	if wp.Wave != 2 || len(wp.Stack) == 0 {
		t.Fatalf("panic metadata lost: wave=%d stack=%d bytes", wp.Wave, len(wp.Stack))
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("injected panic does not unwrap to ErrInjected: %v", err)
	}
	if res == nil || res.Status != StatusInterrupted {
		t.Fatalf("best-so-far result missing or mis-labelled: %+v", res)
	}
}

func TestLPSolveFaultKeepsBestSoFar(t *testing.T) {
	m := resumeModel(8, 3)
	plan, _ := faultinject.Parse("lp-solve:5", 0)
	res, err := Solve(m, Options{Faults: plan})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	if res == nil || res.Status != StatusInterrupted {
		t.Fatalf("best-so-far result missing or mis-labelled: %+v", res)
	}
}

// TestCheckpointWriteFaultDoesNotStopSearch: a failed snapshot write is an
// observability event, not a search failure — and the previous good file
// must survive.
func TestCheckpointWriteFaultDoesNotStopSearch(t *testing.T) {
	m := resumeModel(10, 7)
	ref := solve(t, m, Options{})
	path := filepath.Join(t.TempDir(), "bnb.ckpt")
	plan, _ := faultinject.Parse("ckpt-write:2", 0)
	res, err := Solve(m, Options{Checkpoint: path, Faults: plan})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if res.Status != ref.Status || res.Objective != ref.Objective || res.Nodes != ref.Nodes {
		t.Fatalf("write fault changed the search: %+v vs %+v", res, ref)
	}
	// Later writes succeeded, so the file holds a loadable snapshot.
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint survived: %v", err)
	}
	if _, err := checkpoint.Load(path); err != nil {
		t.Fatalf("surviving checkpoint unreadable: %v", err)
	}
}

func TestBasisRoundTripThroughFrontier(t *testing.T) {
	m := resumeModel(10, 7)
	path := filepath.Join(t.TempDir(), "bnb.ckpt")
	plan, _ := faultinject.Parse("deadline:3", 0)
	if _, err := Solve(m, Options{WarmStart: true, Checkpoint: path, Faults: plan}); err != nil {
		t.Fatalf("kill: %v", err)
	}
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	withBasis := 0
	for _, fn := range snap.BnB.Frontier {
		if fn.Basis != nil {
			if _, err := lp.NewBasis(fn.Basis.Shape, fn.Basis.Cols); err != nil {
				t.Fatalf("frontier basis does not rebuild: %v", err)
			}
			withBasis++
		}
	}
	if withBasis == 0 {
		t.Fatal("warm-started frontier carries no bases")
	}
}

// TestWarmResumeKeepsDiving resumes a warm search at several kill points.
// The resumed run makes a dive handle of its own and restores Dives from
// the snapshot, so besides the tree (nodes, LP solves, bound, incumbent)
// its pivot and dive counts equal the uninterrupted run's. At the kill
// points used here the first node after the kill does not dive in the
// uninterrupted run either; where it does, the resumed run installs that
// node's basis instead, as the tableau died with the killed run, and
// reports one dive fewer.
func TestWarmResumeKeepsDiving(t *testing.T) {
	m := resumeModel(10, 7)
	base := Options{WarmStart: true}
	ref := solve(t, m, base)
	if ref.Status != StatusOptimal || ref.Dives == 0 {
		t.Fatalf("reference run: %v with %d dives, want optimal with dives", ref.Status, ref.Dives)
	}
	for _, k := range []int{1, 3, 10, 20, 30, 40} {
		path := filepath.Join(t.TempDir(), "bnb.ckpt")
		plan, _ := faultinject.Parse(fmt.Sprintf("deadline:%d", k), 0)
		opts := base
		opts.Checkpoint = path
		opts.Faults = plan
		dead, err := Solve(m, opts)
		if err != nil {
			t.Fatalf("kill at node step %d: %v", k, err)
		}
		if dead.Status == StatusOptimal {
			t.Fatalf("the search finished before node step %d; the fault never fired", k)
		}
		snap, err := checkpoint.Load(path)
		if err != nil {
			t.Fatalf("load at node step %d: %v", k, err)
		}
		res, err := Resume(m, snap.BnB, base)
		if err != nil {
			t.Fatalf("resume at node step %d: %v", k, err)
		}
		if res.Status != ref.Status || res.Objective != ref.Objective || res.Bound != ref.Bound ||
			res.Nodes != ref.Nodes || res.LPSolves != ref.LPSolves || res.LPIters != ref.LPIters || res.Dives != ref.Dives {
			t.Fatalf("resume at node step %d diverged:\n got %v obj=%v bound=%v nodes=%d lp=%d iters=%d dives=%d\nwant %v obj=%v bound=%v nodes=%d lp=%d iters=%d dives=%d",
				k, res.Status, res.Objective, res.Bound, res.Nodes, res.LPSolves, res.LPIters, res.Dives,
				ref.Status, ref.Objective, ref.Bound, ref.Nodes, ref.LPSolves, ref.LPIters, ref.Dives)
		}
	}
}

// TestResumeRefusesBadFrontierBasis: a frontier basis lp.NewBasis refuses
// cannot come from a capture, so resuming it fails as a corrupt
// checkpoint instead of quietly solving that node cold.
func TestResumeRefusesBadFrontierBasis(t *testing.T) {
	m := resumeModel(10, 7)
	path := filepath.Join(t.TempDir(), "bnb.ckpt")
	plan, _ := faultinject.Parse("deadline:3", 0)
	if _, err := Solve(m, Options{WarmStart: true, Checkpoint: path, Faults: plan}); err != nil {
		t.Fatalf("kill: %v", err)
	}
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	bad := 0
	for _, fn := range snap.BnB.Frontier {
		if fn.Basis != nil && len(fn.Basis.Cols) > 1 {
			fn.Basis.Cols[1] = fn.Basis.Cols[0]
			bad++
		}
	}
	if bad == 0 {
		t.Fatal("warm-started frontier carries no bases")
	}
	if _, err := Resume(m, snap.BnB, Options{WarmStart: true}); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("resume over a repeated basis column: %v, want ErrCorrupt", err)
	}
}

// TestSearchFingerprintMatchesSolve pins the exported fingerprint preview to
// the one Solve actually stamps, across the option axes that must
// (DepthFirst) and must not (WarmStart) move it.
func TestSearchFingerprintMatchesSolve(t *testing.T) {
	m := resumeModel(8, 3)
	for _, opts := range []Options{{}, {DepthFirst: true}, {WarmStart: true}} {
		res := solve(t, m, opts)
		if got := SearchFingerprint(m, opts); got != res.Fingerprint {
			t.Fatalf("SearchFingerprint(%+v) = %#x, Solve stamped %#x", opts, got, res.Fingerprint)
		}
	}
	base := SearchFingerprint(m, Options{})
	if got := SearchFingerprint(m, Options{WarmStart: true}); got != base {
		t.Fatalf("warm start moved the fingerprint: %#x, want %#x", got, base)
	}
	if SearchFingerprint(m, Options{DepthFirst: true}) == base {
		t.Fatal("depth-first change did not move the fingerprint")
	}
}
