// Package serve is the gap-search daemon behind cmd/gapserved: a
// stdlib-only HTTP front end over the white-box gap search. It layers, from
// the outside in:
//
//   - admission: POST /v1/jobs canonicalizes the spec, computes the cache
//     key, and either answers from the results store (cache hit), rejects
//     when the queue is full (429), or enqueues;
//   - a bounded worker pool that solves jobs with per-job deadlines,
//     checkpointing through internal/checkpoint on the configured cadence
//     so a killed daemon resumes mid-search;
//   - a durable results store keyed by the milp search fingerprint extended
//     with the solve-determining options (warm-start, presolve) —
//     see cacheKey;
//   - a durable job queue (queue.ckpt) persisted on every job state change,
//     so queued and in-flight jobs survive a crash or drain and re-run to
//     their bit-identical answers.
//
// The results store (results.json) and the job queue are keyed-record files
// in the one format of checkpoint.Table; in-flight searches checkpoint to
// sealed GAPCKP2 snapshots (ckpt-<key>.ckpt).
//
// Every decision is surfaced through an obs.Registry (cache hits/misses,
// queue depth, worker utilization, per-phase timings) and each job's solver
// events stream as NDJSON via /v1/jobs/{id}/events.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/milp"
	"repro/internal/obs"
)

// Config tunes a Server. Zero values select the documented defaults.
type Config struct {
	// StateDir holds the durable state: queue.ckpt, results.json, and one
	// ckpt-<key>.ckpt per in-flight job. Required.
	StateDir string
	// Workers is the pool size (default 1). Each worker runs one job at a
	// time; each job's search is serial.
	Workers int
	// QueueDepth caps the jobs waiting for a worker; submissions beyond it
	// are rejected with 429 (default 64).
	QueueDepth int
	// DefaultBudget is the solve budget for jobs that do not set one
	// (default 30s); MaxBudget clamps every job's budget (default 10m).
	DefaultBudget time.Duration
	MaxBudget     time.Duration
	// DeadlineGrace is added to a job's budget to form its hard context
	// deadline — the backstop for a solver that overruns its TimeLimit
	// (default 10s).
	DeadlineGrace time.Duration
	// CheckpointEvery is the milp checkpoint cadence in node steps (0 =
	// before every step).
	CheckpointEvery int
	// Registry receives the daemon's metrics (nil = a fresh registry,
	// exposed at /metrics either way).
	Registry *obs.Registry
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

func (c *Config) fill() error {
	if c.StateDir == "" {
		return fmt.Errorf("serve: Config.StateDir is required")
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultBudget <= 0 {
		c.DefaultBudget = 30 * time.Second
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = 10 * time.Minute
	}
	if c.DeadlineGrace <= 0 {
		c.DeadlineGrace = 10 * time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return nil
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Job states as reported over the wire.
const (
	stateQueued  = "queued"
	stateRunning = "running"
	stateDone    = "done"
	stateFailed  = "failed"
)

// job is one admitted gap search.
type job struct {
	id       string
	seq      uint64
	spec     *Spec           // nil for a job restored terminal: it never runs again
	specJSON json.RawMessage // spec's canonical JSON, as the ledger files it
	key      uint64          // cache key (fingerprint + solve options)
	fp       uint64          // milp search fingerprint

	events *eventBuffer

	// putMu orders this job's queue-ledger puts, so the later put carries
	// the later state. It is held across the write; mu is not, so readers
	// of the job's state never wait on a disk write.
	putMu sync.Mutex

	mu       sync.Mutex
	state    string
	errMsg   string
	result   *StoredResult
	enqueued time.Time
	done     chan struct{} // closed when the job reaches done/failed
}

func (j *job) getState() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

func (j *job) setRunning() {
	j.mu.Lock()
	j.state = stateRunning
	j.mu.Unlock()
}

// requeued flips a drained running job back to queued (the persisted ledger
// re-admits it on restart; its checkpoint file carries the search state).
func (j *job) requeued() {
	j.mu.Lock()
	j.state = stateQueued
	j.mu.Unlock()
}

func (j *job) finish(sr *StoredResult) {
	j.mu.Lock()
	j.state = stateDone
	j.result = sr
	close(j.done)
	j.mu.Unlock()
}

func (j *job) fail(msg string) {
	j.mu.Lock()
	j.state = stateFailed
	j.errMsg = msg
	close(j.done)
	j.mu.Unlock()
}

// queueMagic tags the job queue's record file (<state>/queue.ckpt).
const queueMagic = "GAPQUEUE1"

// jobRecord is one admitted job in the durable queue, filed under its ID.
// State is queued, done or failed: a running job persists as queued, so
// after a crash or drain it re-runs, resuming from its own checkpoint. Seq
// is the admission order a restart re-enqueues in; Enqueued (wall-clock
// admission time) is informational only.
type jobRecord struct {
	ID       string          `json:"id"`
	Seq      uint64          `json:"seq"`
	State    string          `json:"state"`
	Key      string          `json:"key"` // %016x cache key
	Spec     json.RawMessage `json:"spec"`
	Enqueued int64           `json:"enqueued_unix_nano"`
}

// RecordKey files the job in the queue under its ID.
func (r *jobRecord) RecordKey() string {
	if r == nil {
		return ""
	}
	return r.ID
}

// recordLocked projects the job onto its queue record. j.mu must be held.
func (j *job) recordLocked() *jobRecord {
	st := j.state
	if st == stateRunning {
		st = stateQueued
	}
	return &jobRecord{ID: j.id, Seq: j.seq, State: st, Key: hexKey(j.key), Spec: j.specJSON, Enqueued: j.enqueued.UnixNano()}
}

// eventBuffer is a Sink that retains each job's solver events as JSONL
// records for the /v1/jobs/{id}/events stream. The per-node LP chatter
// (lp_solve_start/end, node_explored/pruned/branched, polish attempts) is
// filtered out: the stream is incumbent progress, not a solver trace. The
// cap bounds a runaway job's memory; overflow drops newest-first and is
// reported by the handler.
type eventBuffer struct {
	mu      sync.Mutex
	recs    []obs.Record
	dropped int
}

const maxBufferedEvents = 4096

func (b *eventBuffer) Emit(e obs.Event) {
	switch e.Kind {
	case obs.KindIncumbent, obs.KindStall, obs.KindPhaseStart, obs.KindPhaseEnd,
		obs.KindSolveDone, obs.KindCheckpointWrite, obs.KindResume, obs.KindFaultInjected:
	default:
		return
	}
	b.mu.Lock()
	if len(b.recs) < maxBufferedEvents {
		b.recs = append(b.recs, obs.NewRecord(e))
	} else {
		b.dropped++
	}
	b.mu.Unlock()
}

// snapshot returns the records from index from on, plus the total retained.
func (b *eventBuffer) snapshot(from int) ([]obs.Record, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if from > len(b.recs) {
		from = len(b.recs)
	}
	return b.recs[from:], len(b.recs)
}

// droppedCount reports how many events overflowed the buffer.
func (b *eventBuffer) droppedCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// Server is the daemon: admission, queue, pool, store, and handlers behind
// one http.Handler. Create with New, start the pool with Start, and stop
// with Shutdown (which drains gracefully: in-flight jobs checkpoint and
// re-queue, the ledger persists).
type Server struct {
	cfg Config
	met *metrics

	results *checkpoint.Table[*StoredResult]
	ledger  *checkpoint.Table[*jobRecord] // the job queue

	mu       sync.Mutex
	jobs     map[string]*job
	order    []*job          // admission order
	queue    chan *job       // bounded buffer between admission and the pool
	inflight map[uint64]*job // cache-key singleflight: key -> solving job
	nextSeq  uint64
	draining bool

	busy       atomic.Int64
	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
	started    bool

	// ready gates /readyz: false until restoreQueue has re-admitted the
	// persisted backlog, false again the moment a drain (or Kill) begins.
	// /healthz stays an unconditional liveness "ok" — the split lets a load
	// balancer stop routing to a draining daemon it should not yet restart.
	ready atomic.Bool

	// OnJobDone, when non-nil, is called after a job reaches done (not on
	// cache hits at admission) — cmd/gapserved prints SUMMARY lines with it.
	OnJobDone func(id string, sr *StoredResult)

	mux *http.ServeMux
}

// New builds a Server over cfg.StateDir, reloading the results store and the
// persisted job queue (jobs in state queued — including jobs that were
// running at the crash — are re-admitted in their original order).
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, err
	}
	// Decoding and checksumming the two files is most of start-up, and
	// they are independent, so the results store opens alongside the
	// queue.
	type openedStore struct {
		t   *checkpoint.Table[*StoredResult]
		err error
	}
	storeCh := make(chan openedStore, 1)
	go func() {
		t, err := checkpoint.OpenTable[*StoredResult](filepath.Join(cfg.StateDir, "results.json"), resultsMagic, nil)
		storeCh <- openedStore{t, err}
	}()
	ledger, err := checkpoint.OpenTable[*jobRecord](filepath.Join(cfg.StateDir, "queue.ckpt"), queueMagic, nil)
	st := <-storeCh
	if st.err != nil {
		return nil, fmt.Errorf("serve: results store: %w", st.err)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: queue ledger: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		met:        newMetrics(cfg.Registry),
		results:    st.t,
		ledger:     ledger,
		jobs:       make(map[string]*job),
		queue:      make(chan *job, cfg.QueueDepth),
		inflight:   make(map[uint64]*job),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	s.initMux()
	if err := s.restoreQueue(); err != nil {
		cancel()
		return nil, err
	}
	s.ready.Store(true)
	return s, nil
}

// restoreQueue reloads the persisted ledger: terminal jobs reappear with
// their stored results, queued ones go back on the queue in Seq order.
func (s *Server) restoreQueue() error {
	recs := s.ledger.Records()
	// The ledger is keyed by ID, and IDs sort as admission order only up to
	// j999999.
	sort.Slice(recs, func(a, b int) bool { return recs[a].Seq < recs[b].Seq })
	// Running jobs persist as queued, so a daemon killed under full load
	// leaves up to QueueDepth+Workers queued records. Grow the channel to
	// re-admit all of them — refusing to start would strand the ledger —
	// while submit keeps capping NEW admissions at cfg.QueueDepth.
	queued := 0
	for _, rec := range recs {
		if rec.State == stateQueued {
			queued++
		}
	}
	if queued > cap(s.queue) {
		s.queue = make(chan *job, queued)
	}
	for _, rec := range recs {
		key, err := strconv.ParseUint(rec.Key, 16, 64)
		if err != nil {
			return fmt.Errorf("serve: queue ledger job %s: bad key %q", rec.ID, rec.Key)
		}
		s.nextSeq = max(s.nextSeq, rec.Seq)
		j := &job{
			id: rec.ID, seq: rec.Seq, specJSON: rec.Spec, key: key,
			events: &eventBuffer{}, done: make(chan struct{}),
			enqueued: time.Unix(0, rec.Enqueued),
		}
		switch rec.State {
		case stateDone:
			j.state = stateDone
			// Nil for a job that finished budget-truncated: such results
			// are deliberately never stored (see cacheable), so after a
			// restart the job reads done with no result attached.
			j.result = s.results.Get(rec.Key)
			close(j.done)
		case stateFailed:
			j.state = stateFailed
			j.errMsg = "failed before restart"
			close(j.done)
		case stateQueued:
			// Only a job that will run needs its spec decoded. Recompute
			// the milp fingerprint the worker will validate its checkpoint
			// against: the spec is canonical, so the rebuilt model is the
			// one the pre-restart daemon was solving.
			j.spec = new(Spec)
			if err := json.Unmarshal(rec.Spec, j.spec); err != nil {
				return fmt.Errorf("serve: queue ledger job %s: %w", rec.ID, err)
			}
			pr, err := j.spec.problem()
			if err != nil {
				return fmt.Errorf("serve: queue ledger job %s: %w", rec.ID, err)
			}
			if j.fp, err = pr.Fingerprint(j.spec.options(nil)); err != nil {
				return fmt.Errorf("serve: queue ledger job %s: %w", rec.ID, err)
			}
			j.state = stateQueued
			s.queue <- j // cannot block: the channel was sized to the queued count above
		default:
			return fmt.Errorf("serve: queue ledger job %s: unknown state %q", rec.ID, rec.State)
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j)
	}
	s.met.queueDepth.Set(float64(len(s.queue)))
	return nil
}

// result returns the stored result for a cache key, or nil.
func (s *Server) result(key uint64) *StoredResult { return s.results.Get(hexKey(key)) }

// Start launches the worker pool. Safe to call once.
func (s *Server) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.workerLoop()
		}()
	}
}

// Shutdown drains the daemon: new submissions are rejected, running jobs
// are cancelled at the next node step (their checkpoints hold the
// search state), and the job ledger is persisted so a restarted daemon
// re-admits everything unfinished. It returns when the pool has stopped or
// ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.ready.Store(false)
	s.baseCancel()
	stopped := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(stopped)
	}()
	var err error
	select {
	case <-stopped:
	case <-ctx.Done():
		err = ctx.Err()
	}
	// Every state change was already persisted; this rewrite repairs any
	// earlier persist that failed. A job still running after ctx expired
	// may race it, which at worst re-runs that job after a restart, where
	// a stored result answers it.
	s.mu.Lock()
	recs := make([]*jobRecord, len(s.order))
	for i, j := range s.order {
		j.mu.Lock()
		recs[i] = j.recordLocked()
		j.mu.Unlock()
	}
	s.mu.Unlock()
	if perr := s.ledger.Put(recs...); perr != nil && err == nil {
		err = perr
	}
	return err
}

// Kill stops the server abruptly, WITHOUT the drain-time queue persistence —
// the in-process approximation of SIGKILL for crash tests. The durable state
// is whatever the last state-change persist and step-cadence checkpoints
// already wrote, which is exactly the guarantee a real kill -9 leaves behind:
// a New on the same StateDir re-admits the queue and resumes the searches.
func (s *Server) Kill() {
	s.ready.Store(false)
	s.baseCancel()
	s.wg.Wait()
}

// persist files j's current state in the queue ledger.
func (s *Server) persist(j *job) {
	j.putMu.Lock()
	defer j.putMu.Unlock()
	j.mu.Lock()
	rec := j.recordLocked()
	j.mu.Unlock()
	if err := s.ledger.Put(rec); err != nil {
		s.cfg.logf("job %s: persist queue: %v", j.id, err)
	}
}

// submitError is an admission failure with its HTTP status. retryAfter,
// when positive, becomes a Retry-After header: 429/503 rejections are
// transient, and the hint spares well-behaved clients from guessing a
// backoff against a queue whose depth they cannot see.
type submitError struct {
	code       int
	msg        string
	retryAfter time.Duration
}

func (e *submitError) Error() string { return e.msg }

// retryAfterHint estimates when a rejected submission is worth retrying. For
// a full queue it is a coarse queue-drain guess — one second per queued job
// per worker, clamped to [1s, 30s]; the daemon cannot know job durations, so
// the hint is pacing advice, not a promise. A draining daemon answers 1s
// flat: the operator is restarting it, and "come back in a second" is the
// honest schedule for a supervised restart.
func (s *Server) retryAfterHint(queued int) time.Duration {
	d := time.Duration(1+queued/s.cfg.Workers) * time.Second
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// submit admits a job spec: canonicalize, compute the cache key, answer
// from the store when possible, reject when the queue is full, enqueue
// otherwise. Returns the job (terminal immediately on a cache hit).
func (s *Server) submit(spec *Spec) (*job, error) {
	s.met.jobsSubmitted.Inc()
	err := spec.canonicalize(s.cfg.DefaultBudget, s.cfg.MaxBudget)
	if err != nil {
		s.met.jobsRejected.Inc()
		return nil, &submitError{code: 400, msg: err.Error()}
	}
	// The fingerprint requires building the meta model once; admission pays
	// that cost (milliseconds at these model sizes) so cache hits never
	// touch a worker.
	pr, err := spec.problem()
	if err != nil {
		s.met.jobsRejected.Inc()
		return nil, &submitError{code: 400, msg: err.Error()}
	}
	fp, err := pr.Fingerprint(spec.options(nil))
	if err != nil {
		s.met.jobsRejected.Inc()
		return nil, &submitError{code: 400, msg: err.Error()}
	}
	key := cacheKey(spec, fp)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.met.jobsRejected.Inc()
		return nil, &submitError{code: 503, msg: "serve: draining", retryAfter: time.Second}
	}
	s.nextSeq++
	j := &job{
		id: fmt.Sprintf("j%06d", s.nextSeq), seq: s.nextSeq, spec: spec, specJSON: spec.canonicalJSON(),
		key: key, fp: fp, events: &eventBuffer{}, done: make(chan struct{}),
		enqueued: time.Now(), state: stateQueued,
	}
	if sr := s.result(key); sr != nil {
		// Cache hit at admission: the job is born terminal, no worker runs.
		j.state = stateDone
		j.result = sr
		close(j.done)
		s.jobs[j.id] = j
		s.order = append(s.order, j)
		s.mu.Unlock()
		s.met.cacheHits.Inc()
		s.cfg.logf("job %s: cache hit (key %016x)", j.id, key)
		s.persist(j)
		return j, nil
	}
	// The admission cap is cfg.QueueDepth even when restoreQueue grew the
	// channel past it to re-admit a crashed daemon's backlog. Checking len
	// under s.mu is race-free: submit is the only concurrent sender, so the
	// queue can only drain between the check and the send — which also
	// makes the send below non-blocking (len < QueueDepth <= cap).
	if queued := len(s.queue); queued >= s.cfg.QueueDepth {
		s.nextSeq-- // not admitted; reuse the seq
		s.mu.Unlock()
		s.met.jobsRejected.Inc()
		return nil, &submitError{
			code: 429, msg: fmt.Sprintf("serve: queue full (%d jobs waiting)", s.cfg.QueueDepth),
			retryAfter: s.retryAfterHint(queued),
		}
	}
	s.queue <- j
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.mu.Unlock()
	s.met.queueDepth.Set(float64(len(s.queue)))
	s.cfg.logf("job %s: queued (key %016x, budget %s)", j.id, key, spec.budget())
	s.persist(j)
	return j, nil
}

func (s *Server) workerLoop() {
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case j := <-s.queue:
			// select picks at random when both cases are ready, so a
			// cancelled daemon can still draw a job here. It stays queued
			// in the ledger, and the restarted daemon re-admits it.
			if s.baseCtx.Err() != nil {
				return
			}
			s.met.queueDepth.Set(float64(len(s.queue)))
			s.met.workersBusy.Set(float64(s.busy.Add(1)))
			s.runJob(j)
			s.met.workersBusy.Set(float64(s.busy.Add(-1)))
		}
	}
}

// ckptPath is the per-cache-key checkpoint file: two jobs with the same key
// are the same search, so a follower resumed after a crash picks up the
// nodes the leader already explored.
func (s *Server) ckptPath(key uint64) string {
	return filepath.Join(s.cfg.StateDir, fmt.Sprintf("ckpt-%016x.ckpt", key))
}

func (s *Server) runJob(j *job) {
	// Cache fast path: a duplicate submitted while this job sat in the
	// queue may already have a stored answer.
	if sr := s.result(j.key); sr != nil {
		s.met.cacheHits.Inc()
		s.complete(j, sr)
		return
	}
	// Singleflight: while the same key is solving on another worker, wait
	// for the leader and serve its result instead of duplicating the
	// search. A leader can finish without a stored answer (failure, or a
	// budget-truncated solve — see cacheable), so a woken follower that
	// finds the store empty loops to claim leadership itself, re-acquiring
	// s.mu each iteration; another follower may have claimed first, in
	// which case it waits on that one.
	s.mu.Lock()
	for {
		leader, dup := s.inflight[j.key]
		if !dup {
			break
		}
		s.mu.Unlock()
		select {
		case <-leader.done:
		case <-s.baseCtx.Done():
			j.requeued() // drained while waiting; the ledger re-admits it
			return
		}
		if sr := s.result(j.key); sr != nil {
			s.met.cacheHits.Inc()
			s.complete(j, sr)
			return
		}
		s.mu.Lock()
	}
	s.inflight[j.key] = j
	s.mu.Unlock()
	// clearInflight releases the key BEFORE the job signals done/failed, so
	// a waiting follower that finds no stored result can claim leadership
	// immediately instead of spinning on a map entry that is about to
	// vanish. The defer is the panic backstop; the delete is idempotent.
	clearInflight := func() {
		s.mu.Lock()
		delete(s.inflight, j.key)
		s.mu.Unlock()
	}
	defer clearInflight()

	s.met.cacheMisses.Inc()
	j.setRunning()
	start := time.Now()
	res, err := s.solve(j)
	if err != nil {
		if s.baseCtx.Err() != nil {
			j.requeued()
			s.cfg.logf("job %s: drained mid-solve (%v); will resume from checkpoint", j.id, err)
			return
		}
		s.met.jobsFailed.Inc()
		clearInflight()
		j.fail(err.Error())
		s.cfg.logf("job %s: failed: %v", j.id, err)
		s.persist(j)
		return
	}
	if res.Solver.Status == milp.StatusInterrupted && s.baseCtx.Err() != nil {
		// Drain: the checkpoint written before the last node step carries
		// the search; the restarted daemon re-admits the job and resumes.
		j.requeued()
		s.cfg.logf("job %s: drained at %d nodes; checkpoint retained", j.id, res.Solver.Nodes)
		return
	}
	sr := newStoredResult(j.key, j.fp, j.specJSON, res)
	if cacheable(j.spec, res) {
		if err := s.results.Put(sr); err != nil {
			s.met.jobsFailed.Inc()
			clearInflight()
			j.fail(fmt.Sprintf("serve: persist result: %v", err))
			s.persist(j)
			return
		}
		os.Remove(s.ckptPath(j.key)) // the stored result supersedes the snapshot
	} else {
		// A budget-truncated answer is reported to this job's client but
		// never stored: the cache key excludes the budget, so storing it
		// would serve the truncation to every later resubmission no matter
		// how large its budget. The checkpoint stays on disk instead, so
		// the next submission of this key resumes the search.
		s.cfg.logf("job %s: %s result not cached (budget-truncated); checkpoint retained", j.id, sr.Status)
	}
	s.met.jobsCompleted.Inc()
	s.met.jobSeconds.ObserveDuration(time.Since(start))
	s.met.buildSeconds.ObserveDuration(res.Timings.Build)
	s.met.solveSeconds.ObserveDuration(res.Timings.Solve)
	s.met.verifySeconds.ObserveDuration(res.Timings.Verify)
	clearInflight()
	s.cfg.logf("job %s: %s gap=%s nodes=%d in %s", j.id, sr.Status, sr.Gap, sr.Nodes, time.Since(start).Round(time.Millisecond))
	s.complete(j, sr)
}

// cacheable reports whether res is a budget-independent answer that may be
// stored and replayed to every later submission of the same cache key (the
// key deliberately excludes the budget — see cacheKey). Optimal,
// infeasible, and unbounded closures hold under any budget. A feasible stop
// is budget-independent only when it reached the spec's TargetGap: the
// deterministic node order stops such a search at the same node under every
// budget that gets that far. A feasible stop from the time or stall rule —
// like an interrupted or no-incumbent one — is a truncation of this
// particular budget, so caching it would freeze the search forever.
func cacheable(spec *Spec, res *core.Result) bool {
	switch res.Solver.Status {
	case milp.StatusOptimal, milp.StatusInfeasible, milp.StatusUnbounded:
		return true
	case milp.StatusFeasible:
		return spec.TargetGap > 0 && res.Gap >= spec.TargetGap
	default: // interrupted, no-incumbent
		return false
	}
}

// complete marks j done with sr, files it in the queue ledger and reports
// it to OnJobDone.
func (s *Server) complete(j *job, sr *StoredResult) {
	j.finish(sr)
	s.persist(j)
	if s.OnJobDone != nil {
		s.OnJobDone(j.id, sr)
	}
}

// solve runs (or resumes) the job's search under its deadline, counting the
// solver invocation. The checkpoint file is keyed by the cache key and
// validated by the milp fingerprint, so a stale or foreign snapshot falls
// back to a fresh solve instead of poisoning the search.
func (s *Server) solve(j *job) (*core.Result, error) {
	ctx, cancel := context.WithTimeout(s.baseCtx, j.spec.budget()+s.cfg.DeadlineGrace)
	defer cancel()
	opts := j.spec.options(obs.NewTracer(j.events))
	opts.Ctx = ctx
	opts.Checkpoint = s.ckptPath(j.key)
	opts.CheckpointEvery = s.cfg.CheckpointEvery

	pr, err := j.spec.problem()
	if err != nil {
		return nil, err
	}
	s.met.solverRuns.Inc()
	if snap, lerr := checkpoint.Load(opts.Checkpoint); lerr == nil && snap.BnB != nil && snap.BnB.Fingerprint == j.fp {
		s.cfg.logf("job %s: resuming from checkpoint (%d nodes done)", j.id, snap.BnB.Nodes)
		return pr.Resume(snap.BnB, opts)
	}
	return pr.Solve(opts)
}

// Stats is the /v1/stats payload.
type Stats struct {
	Jobs        map[string]int `json:"jobs"` // count per state
	QueueDepth  int            `json:"queue_depth"`
	WorkersBusy int64          `json:"workers_busy"`
	Results     int            `json:"results"`
	Draining    bool           `json:"draining"`
}

func (s *Server) stats() Stats {
	s.mu.Lock()
	st := Stats{
		Jobs:        map[string]int{},
		QueueDepth:  len(s.queue),
		WorkersBusy: s.busy.Load(),
		Draining:    s.draining,
	}
	for _, j := range s.order {
		st.Jobs[j.getState()]++
	}
	s.mu.Unlock()
	st.Results = s.results.Len()
	return st
}
