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
// wave k at which the search can die, resuming from the checkpoint written
// at the last complete wave boundary finishes with the bit-identical
// incumbent, bound and effort counters of the run that was never killed —
// at one worker and at four (the checkpoint is written under the same
// Batch, which is all the tree depends on).
func TestKillAndResumeMatchesUninterrupted(t *testing.T) {
	m := resumeModel(10, 7)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			base := Options{Workers: workers, Batch: 4, WarmStart: true}
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

// TestResumeAcrossWorkerCounts checks the documented contract that Workers
// is excluded from the fingerprint: a run checkpointed under 4 workers
// resumes under 1 (and vice versa) to the identical answer.
func TestResumeAcrossWorkerCounts(t *testing.T) {
	m := resumeModel(10, 7)
	ref := solve(t, m, Options{Batch: 4})
	path := filepath.Join(t.TempDir(), "bnb.ckpt")
	plan, _ := faultinject.Parse("deadline:3", 0)
	_, err := Solve(m, Options{Workers: 4, Batch: 4, Checkpoint: path, Faults: plan})
	if err != nil {
		t.Fatalf("kill: %v", err)
	}
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	res, err := Resume(m, snap.BnB, Options{Workers: 1, Batch: 4})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.Objective != ref.Objective || res.Nodes != ref.Nodes {
		t.Fatalf("cross-worker resume diverged: obj %v nodes %d, want %v / %d",
			res.Objective, res.Nodes, ref.Objective, ref.Nodes)
	}
}

func TestResumeRejectsFingerprintMismatch(t *testing.T) {
	m := resumeModel(8, 3)
	path := filepath.Join(t.TempDir(), "bnb.ckpt")
	plan, _ := faultinject.Parse("deadline:2", 0)
	if _, err := Solve(m, Options{Batch: 4, Checkpoint: path, Faults: plan}); err != nil {
		t.Fatalf("kill: %v", err)
	}
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	var mm *checkpoint.MismatchError
	if _, err := Resume(m, snap.BnB, Options{Batch: 8}); !errors.As(err, &mm) {
		t.Fatalf("batch mismatch not rejected: %v", err)
	}
	other := resumeModel(9, 3)
	if _, err := Resume(other, snap.BnB, Options{Batch: 4}); !errors.As(err, &mm) {
		t.Fatalf("model mismatch not rejected: %v", err)
	}
	if _, err := Resume(m, nil, Options{Batch: 4}); err == nil {
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
	res, err := Solve(m, Options{Workers: 4, Batch: 4, Faults: plan})
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
	res, err := Solve(m, Options{Batch: 2, Faults: plan})
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
	ref := solve(t, m, Options{Batch: 4})
	path := filepath.Join(t.TempDir(), "bnb.ckpt")
	plan, _ := faultinject.Parse("ckpt-write:2", 0)
	res, err := Solve(m, Options{Batch: 4, Checkpoint: path, Faults: plan})
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
	if _, err := Solve(m, Options{Batch: 4, WarmStart: true, Checkpoint: path, Faults: plan}); err != nil {
		t.Fatalf("kill: %v", err)
	}
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	withBasis := 0
	for _, fn := range snap.BnB.Frontier {
		if len(fn.Basis) > 0 {
			if _, err := lp.UnmarshalBasis(fn.Basis); err != nil {
				t.Fatalf("frontier basis does not unmarshal: %v", err)
			}
			withBasis++
		}
	}
	if withBasis == 0 {
		t.Fatal("warm-started frontier carries no bases")
	}
}

// TestResumeFromVersion2Bases resumes a checkpoint whose frontier bases are
// in the retired version-2 wire layout (magic, version 2, an engine byte,
// then the payload). lp rejects those blobs with *lp.BasisVersionError,
// frontierIn degrades each such node to a cold solve, and by the warm-start
// contract the tree is untouched: incumbent, bound, X and node and LP-solve
// counts equal the uninterrupted run's. Only pivot counts may differ.
func TestResumeFromVersion2Bases(t *testing.T) {
	m := resumeModel(10, 7)
	base := Options{Batch: 4, WarmStart: true}
	ref := solve(t, m, base)
	if ref.Status != StatusOptimal {
		t.Fatalf("reference run not optimal: %v", ref.Status)
	}
	for _, k := range []int{2, 3, 4} {
		path := filepath.Join(t.TempDir(), "bnb.ckpt")
		plan, _ := faultinject.Parse(fmt.Sprintf("deadline:%d", k), 0)
		opts := base
		opts.Checkpoint = path
		opts.Faults = plan
		if _, err := Solve(m, opts); err != nil {
			t.Fatalf("kill at wave %d: %v", k, err)
		}
		snap, err := checkpoint.Load(path)
		if err != nil {
			t.Fatalf("load at wave %d: %v", k, err)
		}
		rewritten := 0
		for i, fn := range snap.BnB.Frontier {
			if len(fn.Basis) == 0 {
				continue
			}
			v2 := append([]byte("LPBS\x02\x01"), fn.Basis[5:]...)
			var verr *lp.BasisVersionError
			if _, err := lp.UnmarshalBasis(v2); !errors.As(err, &verr) {
				t.Fatalf("version-2 blob decoded with err=%v, want *lp.BasisVersionError", err)
			}
			snap.BnB.Frontier[i].Basis = v2
			rewritten++
		}
		if rewritten == 0 {
			t.Fatalf("wave %d: warm-started frontier carries no bases", k)
		}
		res, err := Resume(m, snap.BnB, base)
		if err != nil {
			t.Fatalf("resume at wave %d: %v", k, err)
		}
		if res.Status != ref.Status || res.Objective != ref.Objective || res.Bound != ref.Bound ||
			res.Nodes != ref.Nodes || res.LPSolves != ref.LPSolves {
			t.Fatalf("resume at wave %d from version-2 bases diverged:\n got %v obj=%v bound=%v nodes=%d lp=%d\nwant %v obj=%v bound=%v nodes=%d lp=%d",
				k, res.Status, res.Objective, res.Bound, res.Nodes, res.LPSolves,
				ref.Status, ref.Objective, ref.Bound, ref.Nodes, ref.LPSolves)
		}
		for i, x := range ref.X {
			if res.X[i] != x {
				t.Fatalf("resume at wave %d: X[%d] = %v, want %v", k, i, res.X[i], x)
			}
		}
	}
}

// TestSearchFingerprintMatchesSolve pins the exported fingerprint preview to
// the one Solve actually stamps, across the option axes that must (Batch,
// DepthFirst) and must not (Workers, WarmStart) move it.
func TestSearchFingerprintMatchesSolve(t *testing.T) {
	m := resumeModel(8, 3)
	for _, opts := range []Options{
		{},
		{Batch: 4},
		{Workers: 4},
		{Batch: 4, DepthFirst: true},
	} {
		res := solve(t, m, opts)
		if got := SearchFingerprint(m, opts); got != res.Fingerprint {
			t.Fatalf("SearchFingerprint(%+v) = %#x, Solve stamped %#x", opts, got, res.Fingerprint)
		}
	}
	base := SearchFingerprint(m, Options{Batch: 4})
	for _, opts := range []Options{
		{Batch: 4, Workers: 8},
		{Batch: 4, WarmStart: true},
	} {
		if got := SearchFingerprint(m, opts); got != base {
			t.Fatalf("answer-neutral options moved the fingerprint: %+v -> %#x, want %#x", opts, got, base)
		}
	}
	if SearchFingerprint(m, Options{Batch: 8}) == base {
		t.Fatal("batch change did not move the fingerprint")
	}
	if SearchFingerprint(m, Options{Batch: 4, DepthFirst: true}) == base {
		t.Fatal("depth-first change did not move the fingerprint")
	}
	// The default-batch rule: Batch 0 resolves to 1 serially and 2*Workers
	// in parallel, and the fingerprint follows the resolved value.
	if SearchFingerprint(m, Options{}) != SearchFingerprint(m, Options{Batch: 1}) {
		t.Fatal("serial default batch does not resolve to 1")
	}
	if SearchFingerprint(m, Options{Workers: 4}) != SearchFingerprint(m, Options{Batch: 8}) {
		t.Fatal("parallel default batch does not resolve to 2*Workers")
	}
}
