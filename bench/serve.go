package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/blackbox"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/mcf"
	"repro/internal/milp"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// serve_sweep's grid: DP on B4 with servePairs random pairs, warm
// start, a 120 s budget (so no budget or stall rule fires), threshold 5 ×
// serveSeeds demand seeds. One pair keeps the cells small and alike (3 to
// 11 nodes), so a run solves over a thousand of them and its latency
// median barely moves with the seeds drawn; with two pairs cells range
// from 5 to over 100 nodes. One threshold: thresholds 5 and 10 give nearly
// the same search trees, so a second one would repeat cells rather than
// draw new ones.
const (
	servePairs = 1
	serveSeeds = 24
)

var serveThresholds = []float64{5}

// cellSeed is the k-th demand seed of the serve grids, always >= 1 (the
// daemon reads a zero seed as the default, 1).
func cellSeed(seed int64, k int) int64 {
	return int64(uint64(seed-1+int64(k))%(1<<62)) + 1
}

// serveGrid is round r's grid. Rounds draw fresh demand seeds.
func serveGrid(s *session, round int) *sweep.Grid {
	base := serve.Spec{Topology: "b4", Heuristic: "dp", Pairs: servePairs, WarmStart: true, BudgetSec: 120}
	thresholds, n := serveThresholds, serveSeeds
	if s.toy {
		base.Topology, base.Pairs = "figure1", -1
		thresholds, n = []float64{50}, 2
	}
	seeds := make([]int64, n)
	for j := range seeds {
		seeds[j] = cellSeed(s.seed, round*serveSeeds+j)
	}
	return &sweep.Grid{Base: base, Thresholds: thresholds, Seeds: seeds}
}

func cellName(threshold float64, seed int64) string {
	return fmt.Sprintf("thr=%g/seed=%d", threshold, seed)
}

// daemon is an in-process gapserved behind a loopback HTTP server.
type daemon struct {
	srv *serve.Server
	hs  *httptest.Server
	reg *obs.Registry
	dir string

	mu      sync.Mutex
	done    map[string]time.Time // when each solved job's result was stored
	changed chan struct{}        // signalled after each addition to done
}

func startDaemon(dir string) (*daemon, error) {
	reg := obs.NewRegistry()
	srv, err := serve.New(serve.Config{StateDir: dir, Workers: 2, Registry: reg})
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, reg: reg, dir: dir, done: map[string]time.Time{}, changed: make(chan struct{}, 1)}
	srv.OnJobDone = func(id string, _ *serve.StoredResult) {
		t := time.Now()
		d.mu.Lock()
		d.done[id] = t
		d.mu.Unlock()
		select {
		case d.changed <- struct{}{}:
		default:
		}
	}
	d.hs = httptest.NewServer(srv)
	srv.Start()
	return d, nil
}

// doneAt returns when job id's result was stored. A client can see a job
// done before the daemon calls OnJobDone (it persists the queue ledger in
// between), so doneAt waits up to timeout for the call.
func (d *daemon) doneAt(id string, timeout time.Duration) (time.Time, bool) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		d.mu.Lock()
		t, ok := d.done[id]
		d.mu.Unlock()
		if ok {
			return t, true
		}
		select {
		case <-d.changed:
		case <-deadline.C:
			return time.Time{}, false
		}
	}
}

func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	d.hs.Close()
	return err
}

// servePass drives grid through d with a fresh sweep ledger and folds the
// pass into p. Each cell is an op: a miss lasts from its POST until the
// daemon has stored its result, a hit is its POST answered 200 from the
// store.
// Answers are checked after the pass, outside the measured time.
func servePass(s *session, p *phase, d *daemon, grid *sweep.Grid, round int, hit bool) error {
	tr := &transport{base: s.http}
	fs := &timingFS{base: checkpoint.OSFS()}
	sweepReg := obs.NewRegistry()
	ledgerPath := filepath.Join(d.dir, "miss.ledger")
	if hit {
		ledgerPath = filepath.Join(d.dir, "hit.ledger") // a fresh client ledger
	}
	ledger, err := sweep.OpenLedger(ledgerPath, fs)
	if err != nil {
		return err
	}
	policy := sweep.DefaultPolicy()
	policy.PollInterval = 10 * time.Millisecond
	client := sweep.NewClient([]string{d.hs.URL}, policy)
	client.HTTP = &http.Client{Transport: tr}
	runner := &sweep.Runner{Client: client, Ledger: ledger, Grid: grid, Seed: s.seed, Workers: 2, Registry: sweepReg}

	daemonBefore := regValues(d.reg)
	pass := s.rec.begin("serve.pass", fmt.Sprintf("round=%d", round), s.root)
	w := p.open()
	rep, err := runner.Run(context.Background())
	wall := w.close()
	s.rec.end(pass)
	if err != nil {
		return err
	}
	daemonDelta := map[string]float64{}
	addDelta(daemonDelta, daemonBefore, regValues(d.reg))

	cells := map[string]*sweep.CellRecord{}
	for _, rec := range rep.Cells {
		var spec serve.Spec
		if err := json.Unmarshal(rec.Spec, &spec); err != nil {
			return fmt.Errorf("cell %s spec: %w", rec.Name, err)
		}
		cells[cellName(spec.Threshold, spec.Seed)] = rec
	}
	byJob := map[string][]exchange{}
	var posts []exchange
	for _, ex := range tr.take() {
		if ex.method == http.MethodPost {
			posts = append(posts, ex)
		} else {
			byJob[ex.jobID] = append(byJob[ex.jobID], ex)
		}
	}
	var l *layers
	if p.layers != nil {
		l = p.layers
		addDelta(l.daemon, map[string]float64{}, daemonDelta)
		addDelta(l.sweep, map[string]float64{}, regValues(sweepReg))
		l.counts.attempts += rep.Attempts
		l.passSecs += wall.Seconds()
		l.ledgerSecs += fs.secs
		l.ledgerPuts += fs.puts
		l.ledgerBytes += fs.bytes
		if fi, err := os.Stat(filepath.Join(d.dir, "results.json")); err == nil {
			l.storeBytes = fi.Size()
		}
	}

	units := 0.0
	for _, post := range posts {
		o := op{ID: fmt.Sprintf("round=%d/%s", round, post.cell), Latency: post.end.Sub(post.start), Hit: hit}
		gets := byJob[post.jobID]
		seen, err := post.end, error(nil) // when the client saw the answer
		switch {
		case post.code/100 != 2:
			err = fmt.Errorf("POST answered %d", post.code)
		case hit && (post.code != http.StatusOK || post.state != "done"):
			err = fmt.Errorf("POST answered %d %s, want a cache hit", post.code, post.state)
		case !hit:
			// A job can finish before its POST is answered; the client
			// then sees it done without polling.
			if post.state != "done" {
				if n := len(gets); n == 0 || gets[n-1].state != "done" {
					err = fmt.Errorf("job %s never seen done", post.jobID)
					break
				}
				seen = gets[len(gets)-1].end
			}
			done, ok := d.doneAt(post.jobID, 10*time.Second)
			if !ok {
				err = fmt.Errorf("job %s done without a stored result", post.jobID)
			}
			// The result is stored at done; measuring to there rather than
			// to the poll that saw it keeps the poll interval's
			// quantization out of the latency.
			o.Latency = done.Sub(post.start)
		}
		rec := cells[post.cell]
		if err == nil {
			if rec == nil {
				err = fmt.Errorf("cell missing from the sweep report")
			} else {
				o.Answer, err = checkCell(rec, l)
			}
		}
		if err == nil && !hit {
			units += float64(rec.Result.Nodes)
		}
		p.record(s, o, err)
		if l == nil {
			continue
		}
		cell := s.rec.beginAt("sweep.cell", post.cell, pass, post.start)
		s.rec.add("http.post", post.cell, cell, post.start, post.end)
		for _, g := range gets {
			s.rec.add("http.get", post.cell, cell, g.start, g.end)
		}
		s.rec.endAt(cell, seen)
		if hit {
			l.hitSecs = append(l.hitSecs, o.Latency.Seconds())
			continue
		}
		l.counts.pollGets += len(gets)
		l.jobLatencySecs += o.Latency.Seconds()
		l.admitSecs += post.end.Sub(post.start).Seconds()
		if rec != nil && rec.Result != nil {
			l.counts.nodes += int(rec.Result.Nodes)
			l.counts.nodeSolves += int(rec.Result.LPSolves)
			if err := countJobEvents(s, d, post.jobID, &l.counts); err != nil {
				p.failed++
				fmt.Fprintf(s.log, "bench: events of job %s: %v\n", post.jobID, err)
			}
		}
	}
	if !hit {
		p.units += units
		p.rates = append(p.rates, units/wall.Seconds())
	}

	want := len(grid.Cells())
	if hit {
		want = 0
	}
	if runs := int(daemonDelta["serve_solver_runs_total"]); runs != want || len(posts) != len(grid.Cells()) {
		p.failed++
		fmt.Fprintf(s.log, "bench: pass %d: %d solver runs for %d posts, want %d runs for %d cells\n",
			round, runs, len(posts), want, len(grid.Cells()))
	}
	return nil
}

// checkCell verifies one cell's stored result: the daemon's fingerprint
// must equal the one the bench computes for the same spec, and the gap
// must be what the direct solvers give at the stored demands. The
// fingerprint call is also the core.fingerprint_share probe.
func checkCell(rec *sweep.CellRecord, l *layers) (answer, error) {
	res := rec.Result
	if rec.Status != sweep.StatusDone || res == nil {
		return answer{}, fmt.Errorf("cell %s status %s", rec.Name, rec.Status)
	}
	var spec serve.Spec
	if err := json.Unmarshal(rec.Spec, &spec); err != nil {
		return answer{}, err
	}
	g, err := topology.ByName(spec.Topology)
	if err != nil {
		return answer{}, err
	}
	set := demand.ReachablePairs(g)
	if spec.Pairs >= 0 {
		set = demand.RandomPairs(g, spec.Pairs, rand.New(rand.NewSource(spec.Seed)))
	}
	paths, maxDem := spec.Paths, spec.MaxDemand
	if paths == 0 {
		paths = 2
	}
	if maxDem == 0 {
		maxDem = maxDemand
	}
	inst, err := mcf.NewInstance(g, set, paths)
	if err != nil {
		return answer{}, err
	}
	pr := &core.DPGapProblem{Inst: inst, Threshold: spec.Threshold, Input: core.InputConstraints{MaxDemand: maxDem}}
	t0 := time.Now()
	fp, err := pr.Fingerprint(milp.Options{DepthFirst: true})
	if err != nil {
		return answer{}, err
	}
	if l != nil {
		l.fingerprintSecs = append(l.fingerprintSecs, time.Since(t0).Seconds())
	}
	if got := fmt.Sprintf("%016x", fp); got != res.Fingerprint {
		return answer{}, fmt.Errorf("daemon fingerprint %s, bench computes %s", res.Fingerprint, got)
	}
	storedGap, err := strconv.ParseFloat(res.Gap, 64)
	if err != nil {
		return answer{}, fmt.Errorf("stored gap %q: %w", res.Gap, err)
	}
	demands := make([]float64, len(res.Demands))
	for i, s := range res.Demands {
		if demands[i], err = strconv.ParseFloat(s, 64); err != nil {
			return answer{}, fmt.Errorf("stored demand %q: %w", s, err)
		}
	}
	gap, err := blackbox.DPGap(inst, spec.Threshold)(demands)
	if err != nil {
		return answer{}, err
	}
	if math.Abs(gap-storedGap) > 1e-6*(1+math.Abs(gap)) {
		return answer{}, fmt.Errorf("stored gap %v, direct solvers give %v", storedGap, gap)
	}
	return answer{Status: res.Status, Nodes: int(res.Nodes), GapMilli: gapMilli(gap)}, nil
}

// countJobEvents reads a finished job's NDJSON event stream and counts its
// checkpoint writes and incumbents.
func countJobEvents(s *session, d *daemon, id string, c *layerCounts) error {
	resp, err := (&http.Client{Transport: s.http}).Get(d.hs.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("answered %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec obs.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return err
		}
		switch rec.Kind {
		case obs.KindCheckpointWrite.String():
			c.ckptWrites++
			if rec.Status == "error" {
				c.ckptErrors++
			}
		case obs.KindIncumbent.String():
			c.incumbents++
		}
	}
	return sc.Err()
}

// setupDaemons times starting n daemons one after another, each on a
// state directory prepare has made ready; they are stopped afterwards,
// untimed.
func setupDaemons(s *session, n int, prepare func(dir string) error) (time.Duration, error) {
	root := filepath.Join(s.dir, "setup")
	defer os.RemoveAll(root)
	dirs := make([]string, n)
	for k := range dirs {
		dirs[k] = filepath.Join(root, strconv.Itoa(k))
		if err := prepare(dirs[k]); err != nil {
			return 0, err
		}
	}
	var started []*daemon
	var err error
	t0 := time.Now()
	for _, dir := range dirs {
		var d *daemon
		if d, err = startDaemon(dir); err != nil {
			break
		}
		started = append(started, d)
	}
	elapsed := time.Since(t0)
	for _, d := range started {
		if serr := d.stop(); err == nil {
			err = serr
		}
	}
	return elapsed, err
}

// goldenState is the state directory the warm-up round leaves behind: a
// results store and queue ledger holding one solved grid.
func goldenState(s *session) string { return filepath.Join(s.dir, "golden") }

// setupServeSweep times daemon start-up on copies of the golden state
// directory: opening the results store and restoring the queue ledger.
func setupServeSweep(s *session, n int) (time.Duration, error) {
	return setupDaemons(s, n, func(dir string) error { return copyState(goldenState(s), dir) })
}

// runServeSweep runs one round per op. Round i starts a daemon on an empty
// state directory and sweeps a fresh grid through it with 2 client
// workers, so every cell is solved (the miss pass). It then shuts the
// daemon down, restarts it on the same directory and sweeps the grid again
// with a fresh client ledger, so every cell is answered from the restored
// results store (the hit pass).
func runServeSweep(s *session) (*phase, error) {
	p := s.newPhase()
	err := s.loop(func(i int) error {
		dir := goldenState(s)
		if !s.warmup {
			dir = filepath.Join(s.dir, fmt.Sprintf("round-%d", i))
			defer os.RemoveAll(dir)
		}
		grid := serveGrid(s, i)
		if err := p.daemonPass(s, dir, grid, i, false); err != nil {
			return err
		}
		return p.daemonPass(s, dir, grid, i, true)
	})
	return p, err
}

// daemonPass starts a daemon on dir, runs one measured pass of grid
// through it and stops it.
func (p *phase) daemonPass(s *session, dir string, grid *sweep.Grid, round int, hit bool) error {
	d, err := startDaemon(dir)
	if err != nil {
		return err
	}
	err = servePass(s, p, d, grid, round, hit)
	if serr := d.stop(); err == nil {
		err = serr
	}
	s.http.CloseIdleConnections()
	return err
}

// copyState copies a daemon's results store and queue ledger.
func copyState(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	for _, name := range []string{"results.json", "queue.ckpt"} {
		data, err := os.ReadFile(filepath.Join(from, name))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
