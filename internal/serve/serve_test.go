package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// figure1Spec is the fast fixture: the paper's Figure-1 example solves to
// proven optimality (gap 10) in tens of milliseconds, so tests that only
// exercise the daemon's plumbing stay quick even under the race detector.
func figure1Spec() *Spec {
	return &Spec{Topology: "figure1", Heuristic: "dp", Pairs: -1, BudgetSec: 30}
}

func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		StateDir:      t.TempDir(),
		Workers:       2,
		QueueDepth:    8,
		DefaultBudget: 30 * time.Second,
		MaxBudget:     2 * time.Minute,
	}
}

func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// saveQueue writes a queue ledger holding recs into dir.
func saveQueue(t *testing.T, dir string, recs ...*jobRecord) {
	t.Helper()
	q, err := checkpoint.OpenTable[*jobRecord](filepath.Join(dir, "queue.ckpt"), queueMagic, nil)
	if err != nil {
		t.Fatalf("open queue ledger: %v", err)
	}
	if err := q.Put(recs...); err != nil {
		t.Fatalf("save queue ledger: %v", err)
	}
}

// loadQueue reads the queue ledger in dir.
func loadQueue(t *testing.T, dir string) []*jobRecord {
	t.Helper()
	q, err := checkpoint.OpenTable[*jobRecord](filepath.Join(dir, "queue.ckpt"), queueMagic, nil)
	if err != nil {
		t.Fatalf("load queue ledger: %v", err)
	}
	return q.Records()
}

// failResultWrites reopens s's results store on a filesystem that fails
// writes as the faultinject plan says.
func failResultWrites(t *testing.T, s *Server, plan string) {
	t.Helper()
	p, err := faultinject.Parse(plan, 0)
	if err != nil {
		t.Fatalf("parse plan: %v", err)
	}
	s.results, err = checkpoint.OpenTable[*StoredResult](filepath.Join(s.cfg.StateDir, "results.json"), resultsMagic, faultinject.WrapFS(nil, p))
	if err != nil {
		t.Fatalf("reopen results store: %v", err)
	}
}

// waitTerminal polls until the job leaves queued/running or the deadline
// passes.
func waitTerminal(t *testing.T, s *Server, id string, timeout time.Duration) *job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		j := s.jobByID(id)
		if j == nil {
			t.Fatalf("job %s disappeared", id)
		}
		switch j.getState() {
		case stateDone, stateFailed:
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, j.getState(), timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestSubmitAndSolveOverHTTP(t *testing.T) {
	s := newServer(t, testConfig(t))
	s.Start()
	ts := httptest.NewServer(s)
	defer ts.Close()

	body, _ := json.Marshal(figure1Spec())
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202 (%+v)", resp.StatusCode, view)
	}
	j := waitTerminal(t, s, view.ID, 60*time.Second)
	if j.getState() != stateDone {
		t.Fatalf("job state %s: %s", j.getState(), j.errMsg)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/" + view.ID)
	if err != nil {
		t.Fatalf("get job: %v", err)
	}
	var done JobView
	json.NewDecoder(resp.Body).Decode(&done)
	resp.Body.Close()
	if done.State != stateDone || done.Result == nil {
		t.Fatalf("job view not done: %+v", done)
	}
	if done.Result.Status != "optimal" || done.Result.Gap != "10" {
		t.Fatalf("figure1 answer wrong: status=%s gap=%s", done.Result.Status, done.Result.Gap)
	}

	// The result is addressable by its cache key too.
	resp, err = http.Get(ts.URL + "/v1/results/" + done.Key)
	if err != nil {
		t.Fatalf("get result: %v", err)
	}
	var sr StoredResult
	json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if sr.Gap != "10" || sr.Key != done.Key {
		t.Fatalf("result by key wrong: %+v", sr)
	}

	// The event stream ends with a solve_done record once the job is over.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatalf("get events: %v", err)
	}
	events, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(events), `"kind":"solve_done"`) {
		t.Fatalf("event stream lacks solve_done:\n%s", events)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("get metrics: %v", err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(prom), "serve_jobs_completed_total 1") {
		t.Fatalf("metrics missing completion count:\n%s", prom)
	}
}

// TestDuplicateJobHitsCache is the acceptance property: submitting the same
// job twice runs the solver exactly once — the second submission is answered
// from the results store, asserted through the obs counters.
func TestDuplicateJobHitsCache(t *testing.T) {
	s := newServer(t, testConfig(t))
	s.Start()

	j1, err := s.submit(figure1Spec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitTerminal(t, s, j1.id, 60*time.Second)
	if runs := s.met.solverRuns.Value(); runs != 1 {
		t.Fatalf("first job took %d solver runs, want 1", runs)
	}

	j2, err := s.submit(figure1Spec())
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if j2.getState() != stateDone {
		t.Fatalf("duplicate not answered at admission: state %s", j2.getState())
	}
	if j2.key != j1.key {
		t.Fatalf("duplicate got a different key: %016x vs %016x", j2.key, j1.key)
	}
	if runs := s.met.solverRuns.Value(); runs != 1 {
		t.Fatalf("duplicate triggered a solver run: %d total, want 1", runs)
	}
	if hits, misses := s.met.cacheHits.Value(), s.met.cacheMisses.Value(); hits != 1 || misses != 1 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/1", hits, misses)
	}
	if j2.result.Gap != j1.result.Gap || j2.result.Nodes != j1.result.Nodes {
		t.Fatalf("cached result differs: %+v vs %+v", j2.result, j1.result)
	}
	// A solve-determining option change must MISS: same model, different key.
	warm := figure1Spec()
	warm.WarmStart = true
	j3, err := s.submit(warm)
	if err != nil {
		t.Fatalf("warm submit: %v", err)
	}
	if j3.key == j1.key {
		t.Fatal("warm-start flag did not change the cache key")
	}
	waitTerminal(t, s, j3.id, 60*time.Second)
	if runs := s.met.solverRuns.Value(); runs != 2 {
		t.Fatalf("warm variant should have solved: %d runs, want 2", runs)
	}
}

// TestConcurrentDuplicateSubmissions hammers admission and the pool with
// duplicate keys from many goroutines: every job must land done, and each
// unique key must be solved exactly once (singleflight + store).
func TestConcurrentDuplicateSubmissions(t *testing.T) {
	s := newServer(t, testConfig(t))
	s.Start()

	const uniques, dups = 3, 3
	var wg sync.WaitGroup
	ids := make(chan string, uniques*dups)
	for u := 0; u < uniques; u++ {
		for d := 0; d < dups; d++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				spec := &Spec{Topology: "figure1", Heuristic: "dp", Pairs: 3, Seed: seed, BudgetSec: 30}
				j, err := s.submit(spec)
				if err != nil {
					t.Errorf("submit seed %d: %v", seed, err)
					return
				}
				ids <- j.id
			}(int64(u + 1))
		}
	}
	wg.Wait()
	close(ids)
	for id := range ids {
		j := waitTerminal(t, s, id, 60*time.Second)
		if j.getState() != stateDone {
			t.Fatalf("job %s: %s (%s)", id, j.getState(), j.errMsg)
		}
	}
	if runs := s.met.solverRuns.Value(); runs != uniques {
		t.Fatalf("%d solver runs for %d unique keys", runs, uniques)
	}
	if s.results.Len() != uniques {
		t.Fatalf("store holds %d results, want %d", s.results.Len(), uniques)
	}
	if hits := s.met.cacheHits.Value(); hits != uniques*(dups-1) {
		t.Fatalf("%d cache hits, want %d", hits, uniques*(dups-1))
	}
}

// TestAdmissionRejectsWhenQueueFull: with the pool not started, the bounded
// queue fills and the next submission is answered 429.
func TestAdmissionRejectsWhenQueueFull(t *testing.T) {
	cfg := testConfig(t)
	cfg.QueueDepth = 2
	s := newServer(t, cfg) // Start deliberately not called: nothing drains the queue
	ts := httptest.NewServer(s)
	defer ts.Close()

	for seed := int64(1); seed <= 2; seed++ {
		spec := &Spec{Topology: "figure1", Heuristic: "dp", Pairs: 3, Seed: seed}
		if _, err := s.submit(spec); err != nil {
			t.Fatalf("submit %d: %v", seed, err)
		}
	}
	body, _ := json.Marshal(&Spec{Topology: "figure1", Heuristic: "dp", Pairs: 3, Seed: 3})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if rej := s.met.jobsRejected.Value(); rej != 1 {
		t.Fatalf("rejected counter %d, want 1", rej)
	}
	// Bad specs are 400, not 429, and also count as rejections.
	body, _ = json.Marshal(&Spec{Topology: "b4", Heuristic: "nope"})
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec status %d, want 400", resp.StatusCode)
	}
}

// TestDeadlineExpiryMidSolve: a job whose budget cannot reach optimality
// completes as done with the solver's budget-limited status instead of
// hanging or failing.
func TestDeadlineExpiryMidSolve(t *testing.T) {
	s := newServer(t, testConfig(t))
	s.Start()
	spec := &Spec{Topology: "b4", Heuristic: "dp", Pairs: 12, Seed: 1, BudgetSec: 0.25}
	j, err := s.submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	j = waitTerminal(t, s, j.id, 60*time.Second)
	if j.getState() != stateDone {
		t.Fatalf("deadline-limited job %s: %s", j.getState(), j.errMsg)
	}
	if j.result.Status == "optimal" {
		t.Fatalf("b4/12-pair job proved optimality in %.2fs — budget did not bind", spec.BudgetSec)
	}
	if j.result.Status != "feasible" && j.result.Status != "interrupted" {
		t.Fatalf("unexpected budget-limited status %q", j.result.Status)
	}
}

// TestDrainPersistsQueuedJobs: jobs admitted but never started survive a
// drain as JobQueued ledger entries and complete after a restart.
func TestDrainPersistsQueuedJobs(t *testing.T) {
	cfg := testConfig(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var ids []string
	for seed := int64(1); seed <= 2; seed++ {
		j, err := s.submit(&Spec{Topology: "figure1", Heuristic: "dp", Pairs: 3, Seed: seed})
		if err != nil {
			t.Fatalf("submit %d: %v", seed, err)
		}
		ids = append(ids, j.id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	recs := loadQueue(t, cfg.StateDir)
	if len(recs) != 2 {
		t.Fatalf("ledger holds %d jobs, want 2", len(recs))
	}
	for _, rec := range recs {
		if rec.State != stateQueued {
			t.Fatalf("job %s persisted as %s, want queued", rec.ID, rec.State)
		}
	}

	// Submissions during a drain are refused.
	if _, err := s.submit(figure1Spec()); err == nil {
		t.Fatal("drain accepted a submission")
	}

	s2 := newServer(t, cfg) // same StateDir: the ledger re-admits both jobs
	s2.Start()
	for _, id := range ids {
		j := waitTerminal(t, s2, id, 60*time.Second)
		if j.getState() != stateDone {
			t.Fatalf("restored job %s: %s (%s)", id, j.getState(), j.errMsg)
		}
	}
	if s2.results.Len() != 2 {
		t.Fatalf("store holds %d results after restart, want 2", s2.results.Len())
	}
}

// TestDrainMidSolveResumesBitIdentical is the crash-safety acceptance
// property at the daemon level: drain a job mid-search, restart the daemon
// on the same state dir, and the resumed job must report the bit-identical
// gap, bound, and node count of an uninterrupted run of the same spec.
func TestDrainMidSolveResumesBitIdentical(t *testing.T) {
	// b4/3-pairs/seed-5 proves optimality in ~10s under the race detector
	// across ~50 waves (batch 4), so a checkpoint exists almost immediately
	// and the drain lands mid-search.
	spec := func() *Spec {
		return &Spec{Topology: "b4", Heuristic: "dp", Pairs: 3, Seed: 5, Workers: 2, BudgetSec: 120}
	}

	// Reference: the uninterrupted run, on its own state dir.
	refCfg := testConfig(t)
	ref := newServer(t, refCfg)
	ref.Start()
	rj, err := ref.submit(spec())
	if err != nil {
		t.Fatalf("reference submit: %v", err)
	}
	refJob := waitTerminal(t, ref, rj.id, 120*time.Second)
	if refJob.getState() != stateDone || refJob.result.Status != "optimal" {
		t.Fatalf("reference run did not reach optimality: %+v", refJob.result)
	}

	// Interrupted run: drain as soon as a checkpoint exists.
	cfg := testConfig(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	j, err := s.submit(spec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ckpt := s.ckptPath(j.key)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared within 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if st := s.jobByID(j.id).getState(); st != stateQueued {
		t.Fatalf("drained job is %s, want queued (job finished before the drain landed?)", st)
	}

	s2 := newServer(t, cfg)
	s2.Start()
	j2 := waitTerminal(t, s2, j.id, 120*time.Second)
	if j2.getState() != stateDone {
		t.Fatalf("resumed job: %s (%s)", j2.getState(), j2.errMsg)
	}
	got, want := j2.result, refJob.result
	if got.Status != want.Status || got.Gap != want.Gap || got.Bound != want.Bound ||
		got.Nodes != want.Nodes || got.LPSolves != want.LPSolves {
		t.Fatalf("resumed answer diverged:\n got status=%s gap=%s bound=%s nodes=%d lp=%d\nwant status=%s gap=%s bound=%s nodes=%d lp=%d",
			got.Status, got.Gap, got.Bound, got.Nodes, got.LPSolves,
			want.Status, want.Gap, want.Bound, want.Nodes, want.LPSolves)
	}
	if fmt.Sprintf("%v", got.Demands) != fmt.Sprintf("%v", want.Demands) {
		t.Fatalf("resumed demands diverged:\n got %v\nwant %v", got.Demands, want.Demands)
	}
	// The resumed daemon must actually have resumed, not restarted: its
	// checkpoint file is consumed on completion.
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("checkpoint not cleaned up after completion: %v", err)
	}
}

func TestSpecCanonicalization(t *testing.T) {
	s := &Spec{Topology: "b4", Heuristic: "dp"}
	if err := s.canonicalize(30*time.Second, time.Minute); err != nil {
		t.Fatalf("canonicalize: %v", err)
	}
	if s.Pairs != 12 || s.Paths != 2 || s.Seed != 1 || s.Threshold != 5 ||
		s.MaxDemand != 100 || s.Workers != 1 || s.BudgetSec != 30 {
		t.Fatalf("defaults not filled: %+v", s)
	}
	over := &Spec{Topology: "b4", Heuristic: "dp", BudgetSec: 3600}
	if err := over.canonicalize(30*time.Second, time.Minute); err != nil {
		t.Fatalf("canonicalize: %v", err)
	}
	if over.BudgetSec != 60 {
		t.Fatalf("budget not clamped: %g", over.BudgetSec)
	}
	for _, bad := range []*Spec{
		{Topology: "nope", Heuristic: "dp"},
		{Topology: "b4", Heuristic: "greedy"},
		{Topology: "b4", Heuristic: "dp", Workers: -1},
		{Topology: "b4", Heuristic: "dp", BudgetSec: -5},
	} {
		if err := bad.canonicalize(30*time.Second, time.Minute); err == nil {
			t.Fatalf("bad spec accepted: %+v", bad)
		}
	}
}

func TestCacheKeyComposition(t *testing.T) {
	mk := func(mut func(*Spec)) uint64 {
		spec := figure1Spec()
		mut(spec)
		if err := spec.canonicalize(30*time.Second, time.Minute); err != nil {
			t.Fatalf("canonicalize: %v", err)
		}
		pr, err := spec.problem()
		if err != nil {
			t.Fatalf("problem: %v", err)
		}
		fp, err := pr.Fingerprint(spec.options(nil))
		if err != nil {
			t.Fatalf("fingerprint: %v", err)
		}
		return cacheKey(spec, fp)
	}
	base := mk(func(*Spec) {})
	if mk(func(*Spec) {}) != base {
		t.Fatal("cache key not deterministic")
	}
	for name, mut := range map[string]func(*Spec){
		"warmstart": func(s *Spec) { s.WarmStart = true },
		"workers":   func(s *Spec) { s.Workers = 4 }, // resolved batch moves the fingerprint
		"topology":  func(s *Spec) { s.Topology = "b4"; s.Pairs = 4 },
		// Same model SHAPE, different instance: only the spec layer of the
		// key separates these — the milp fingerprint alone would alias.
		"seed": func(s *Spec) { s.Pairs = 3; s.Seed = 2 },
	} {
		if mk(mut) == base {
			t.Fatalf("%s change did not move the cache key", name)
		}
	}
	// Budget is a deadline, not a solve-determining option at fixed tree:
	// it deliberately shares the key. (Sound because only budget-independent
	// terminal results are stored — see cacheable and
	// TestTruncatedResultNotCached.)
	if mk(func(s *Spec) { s.BudgetSec = 60 }) != base {
		t.Fatal("budget changed the cache key")
	}
}

// TestTruncatedResultNotCached: a budget-limited (non-terminal) result is
// reported to its own client but never stored — the cache key excludes the
// budget, so storing it would serve the truncation to every bigger-budget
// resubmission forever. The resubmission must re-run the solver instead of
// hitting the cache.
func TestTruncatedResultNotCached(t *testing.T) {
	s := newServer(t, testConfig(t))
	s.Start()
	spec := func(budget float64) *Spec {
		return &Spec{Topology: "b4", Heuristic: "dp", Pairs: 12, Seed: 1, BudgetSec: budget}
	}
	j1, err := s.submit(spec(0.25))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	j1 = waitTerminal(t, s, j1.id, 60*time.Second)
	if j1.getState() != stateDone {
		t.Fatalf("budget-limited job %s: %s", j1.getState(), j1.errMsg)
	}
	if j1.result.Status == "optimal" {
		t.Fatal("b4/12-pair job proved optimality in 0.25s — budget did not bind")
	}
	if s.results.Len() != 0 {
		t.Fatalf("budget-truncated %s result was stored", j1.result.Status)
	}
	// A bigger-budget resubmission of the same key is not answered from the
	// cache: it runs (or resumes) the search.
	j2, err := s.submit(spec(0.5))
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if j2.key != j1.key {
		t.Fatalf("budget moved the cache key: %016x vs %016x", j2.key, j1.key)
	}
	if j2.getState() == stateDone {
		t.Fatal("truncated result served as a cache hit at admission")
	}
	waitTerminal(t, s, j2.id, 60*time.Second)
	if runs := s.met.solverRuns.Value(); runs != 2 {
		t.Fatalf("resubmission after truncation took %d solver runs, want 2", runs)
	}
	if hits := s.met.cacheHits.Value(); hits != 0 {
		t.Fatalf("truncated result produced %d cache hits, want 0", hits)
	}
}

// TestSingleflightLeaderFailure: when the singleflight leader fails, waiting
// followers must re-claim leadership and run the solve themselves — this
// fall-through used to modify s.inflight unlocked and then unlock an
// unlocked mutex, crashing the daemon.
func TestSingleflightLeaderFailure(t *testing.T) {
	cfg := testConfig(t)
	s := newServer(t, cfg)
	// Break result persistence: every results-store write fails, so every
	// leader solves and then fails, forcing followers through the
	// leader-failed path.
	failResultWrites(t, s, "ckpt-write:%1")
	s.Start()
	var jobs []*job
	for i := 0; i < 3; i++ {
		j, err := s.submit(figure1Spec())
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		got := waitTerminal(t, s, j.id, 60*time.Second)
		if got.getState() != stateFailed {
			t.Fatalf("job %s reached %s with a broken store, want failed", got.id, got.getState())
		}
		if !strings.Contains(got.errMsg, "persist result") {
			t.Fatalf("job %s failed for the wrong reason: %s", got.id, got.errMsg)
		}
	}
}

// TestRestoreQueueBeyondDepth: a ledger written by a daemon killed under
// full load holds more queued records than QueueDepth (running jobs persist
// as queued). The restarted daemon must re-admit all of them — refusing to
// start would strand the ledger — while new submissions stay capped.
func TestRestoreQueueBeyondDepth(t *testing.T) {
	cfg := testConfig(t)
	cfg.QueueDepth = 2
	var recs []*jobRecord
	for seed := int64(1); seed <= 3; seed++ {
		spec := &Spec{Topology: "figure1", Heuristic: "dp", Pairs: 3, Seed: seed, BudgetSec: 30}
		if err := spec.canonicalize(cfg.DefaultBudget, cfg.MaxBudget); err != nil {
			t.Fatalf("canonicalize: %v", err)
		}
		recs = append(recs, &jobRecord{
			ID: fmt.Sprintf("j%06d", seed), Seq: uint64(seed), State: stateQueued, Key: hexKey(uint64(seed)),
			Spec: spec.canonicalJSON(), Enqueued: time.Now().UnixNano(),
		})
	}
	saveQueue(t, cfg.StateDir, recs...)
	s := newServer(t, cfg)
	if got := len(s.queue); got != 3 {
		t.Fatalf("restored queue holds %d jobs, want 3", got)
	}
	// Admission still enforces QueueDepth against the restored backlog.
	if _, err := s.submit(figure1Spec()); err == nil {
		t.Fatal("submission above QueueDepth accepted")
	}
	s.Start()
	for _, id := range []string{"j000001", "j000002", "j000003"} {
		j := waitTerminal(t, s, id, 60*time.Second)
		if j.getState() != stateDone {
			t.Fatalf("restored job %s: %s (%s)", id, j.getState(), j.errMsg)
		}
	}
}

// TestEventStreamReportsDroppedEvents: when a job's event buffer overflows,
// the NDJSON stream ends with an events_dropped trailer so a truncated
// stream is distinguishable from a complete one.
func TestEventStreamReportsDroppedEvents(t *testing.T) {
	s := newServer(t, testConfig(t))
	s.Start()
	j, err := s.submit(figure1Spec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitTerminal(t, s, j.id, 60*time.Second)
	for i := 0; i < maxBufferedEvents+7; i++ {
		j.events.Emit(obs.Event{Kind: obs.KindIncumbent})
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.id + "/events")
	if err != nil {
		t.Fatalf("get events: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var trailer struct {
		Kind    string `json:"kind"`
		Dropped int    `json:"dropped"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil {
		t.Fatalf("last stream line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if trailer.Kind != "events_dropped" || trailer.Dropped < 7 {
		t.Fatalf("overflowed stream did not end with a dropped trailer: %+v", trailer)
	}
}

// TestRetryAfterOnRejection: 429 (queue full) and 503 (draining) responses
// carry a Retry-After header so a resilient client (gapsweep) can pace its
// retries off the daemon's own hint instead of guessing.
func TestRetryAfterOnRejection(t *testing.T) {
	cfg := testConfig(t)
	cfg.QueueDepth = 2
	s := newServer(t, cfg) // pool not started: nothing drains the queue
	ts := httptest.NewServer(s)
	defer ts.Close()

	post := func() *http.Response {
		t.Helper()
		body, _ := json.Marshal(&Spec{Topology: "figure1", Heuristic: "dp", Pairs: 3, Seed: int64(len(s.order) + 1)})
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	for i := 0; i < 2; i++ {
		if resp := post(); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill %d: status %d", i, resp.StatusCode)
		}
	}
	resp := post()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 30 {
		t.Fatalf("429 Retry-After %q, want an integer in [1, 30]", resp.Header.Get("Retry-After"))
	}
	// The hint scales with the backlog: 2 queued jobs over 2 workers → 2s.
	if want := 1 + cfg.QueueDepth/cfg.Workers; ra != want {
		t.Fatalf("429 Retry-After %d, want %d (1 + queued/workers)", ra, want)
	}

	// Draining: 503 with the restart-scale hint.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	resp = post()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drain status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("drain Retry-After %q, want \"1\"", resp.Header.Get("Retry-After"))
	}
}

// TestReadyzSplitsFromHealthz: /healthz stays an unconditional liveness "ok"
// while /readyz flips to 503 before restore completes and once a drain
// begins.
func TestReadyzSplitsFromHealthz(t *testing.T) {
	s := newServer(t, testConfig(t))
	ts := httptest.NewServer(s)
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("get %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, strings.TrimSpace(string(body))
	}

	if code, body := get("/readyz"); code != 200 || body != "ok" {
		t.Fatalf("fresh readyz = %d %q, want 200 ok", code, body)
	}
	// Before restoreQueue completes the server is alive but not ready; the
	// window is not reachable over HTTP in-process (New returns only after
	// restore), so flip the gate directly to pin the handler's contract.
	s.ready.Store(false)
	if code, body := get("/readyz"); code != 503 || body != "not ready" {
		t.Fatalf("unrestored readyz = %d %q, want 503 \"not ready\"", code, body)
	}
	if code, body := get("/healthz"); code != 200 || body != "ok" {
		t.Fatalf("healthz while not ready = %d %q, want 200 ok", code, body)
	}
	s.ready.Store(true)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	code, body := get("/readyz")
	if code != 503 || body != "draining" {
		t.Fatalf("draining readyz = %d %q, want 503 \"draining\"", code, body)
	}
	if code, body := get("/healthz"); code != 200 || body != "ok" {
		t.Fatalf("healthz while draining = %d %q, want 200 ok (liveness must not flap a drain)", code, body)
	}
}

// TestKillSkipsDrainPersistence: Kill is the SIGKILL stand-in — the ledger
// holds the admission-time persist (job queued), not a drain-time update, and
// a restart on the same StateDir re-admits and completes the job.
func TestKillSkipsDrainPersistence(t *testing.T) {
	cfg := testConfig(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	j, err := s.submit(&Spec{Topology: "figure1", Heuristic: "dp", Pairs: 3, Seed: 9})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	s.Kill() // pool never started; the job is still queued in the ledger
	recs := loadQueue(t, cfg.StateDir)
	if len(recs) != 1 {
		t.Fatalf("ledger after Kill holds %d jobs, want 1", len(recs))
	}
	if recs[0].State != stateQueued {
		t.Fatalf("job persisted as %s, want queued", recs[0].State)
	}
	s2 := newServer(t, cfg)
	s2.Start()
	got := waitTerminal(t, s2, j.id, 60*time.Second)
	if got.getState() != stateDone {
		t.Fatalf("re-admitted job %s: %s (%s)", j.id, got.getState(), got.errMsg)
	}
}

// TestSubmitRejectsRetiredEngineFields: the job body is decoded with
// unknown fields disallowed, so a client still sending the retired
// "engine" or "pricing" selectors gets a 400 instead of a silently
// different solve.
func TestSubmitRejectsRetiredEngineFields(t *testing.T) {
	s := newServer(t, testConfig(t))
	s.Start()
	ts := httptest.NewServer(s)
	defer ts.Close()
	for _, body := range []string{
		`{"topology":"figure1","heuristic":"dp","pairs":-1,"engine":"dense"}`,
		`{"topology":"figure1","heuristic":"dp","pairs":-1,"pricing":"auto"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestRestoreQueueWithRetiredEngineFields: a queue ledger written by an
// earlier daemon stores canonical specs that still name the LP engine and
// pricing rule. Restore decodes them with the fields ignored, and the job
// solves to the Figure-1 answer.
func TestRestoreQueueWithRetiredEngineFields(t *testing.T) {
	cfg := testConfig(t)
	// figure1Spec in the earlier daemon's canonical form, byte for byte.
	old := `{"topology":"figure1","heuristic":"dp","pairs":-1,"paths":2,"seed":1,"threshold":5,` +
		`"partitions":2,"instantiations":3,"max_demand":100,"budget_sec":30,` +
		`"engine":"dense","pricing":"auto","workers":1}`
	saveQueue(t, cfg.StateDir, &jobRecord{
		ID: "j000001", Seq: 1, State: stateQueued, Key: hexKey(1),
		Spec: json.RawMessage(old), Enqueued: time.Now().UnixNano(),
	})
	s := newServer(t, cfg)
	s.Start()
	j := waitTerminal(t, s, "j000001", 60*time.Second)
	if j.getState() != stateDone {
		t.Fatalf("restored job: %s (%s)", j.getState(), j.errMsg)
	}
	if j.result == nil || j.result.Status != "optimal" || j.result.Gap != "10" {
		t.Fatalf("restored job answer wrong: %+v", j.result)
	}
}
