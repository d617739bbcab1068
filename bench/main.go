// Command bench is the repository's benchmark. Each invocation runs one
// workload in its own process: an untimed warm-up, then a closed loop of
// the workload's ops for -seconds with tracing off, which gives the
// end-to-end metrics. With -trace 1 the budget is split: the untraced half
// is followed by a traced half that records spans and gives the per-layer
// metrics. Every op's answer is checked; the last line of standard output
// is one JSON object with the verdict and the metrics.
//
//	bash bench/run.sh --workload dp_warm_b4 --seed 1 --seconds 30 --trace 0
//
// See bench/README.md for the workloads, the metrics and the protocol for
// comparing two commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/obs"
)

// workload is one named benchmark workload: run measures its ops, setup
// sets up the first n of them and returns how long that took.
type workload struct {
	name  string
	run   func(*session) (*phase, error)
	setup func(s *session, n int) (time.Duration, error)
}

// workloads returns the benchmark's workloads, in BENCHMARK.json order.
func workloads() []workload {
	warm := dpConfig{pairs: 4, offset: 0, warm: true, maxNodes: 32}
	cold := dpConfig{pairs: 12, offset: 6, warm: false, maxNodes: 4}
	return []workload{
		{"dp_warm_b4", runDP(warm), setupDP(warm)},
		{"dp_cold_12", runDP(cold), setupDP(cold)},
		{"blackbox_hc", runHillClimb, setupHillClimb},
		{"serve_sweep", runServeSweep, setupServeSweep},
	}
}

// setup_s is the median, over setupSamples batches, of a batch's set-up
// time per op. A batch sets up setupBatch ops back to back, so that one
// sample lasts milliseconds rather than the fraction of one a single
// set-up takes. Batches of one run spread by about a sixth of their
// median on a shared 2-CPU host; 25 of them put the median within a few
// percent.
const setupSamples, setupBatch = 25, 16

// setupSampler collects the setup_s samples of the untraced phase. The
// loop takes one between ops every budget/setupSamples, so that the
// samples span the run instead of one moment of it, and takes any still
// missing after the last op.
type setupSampler struct {
	setup   func(s *session, n int) (time.Duration, error)
	every   time.Duration
	next    time.Time
	samples []float64
}

// sampleSetup takes one set-up sample when one is due, or when force is
// set and samples are missing.
func (s *session) sampleSetup(force bool) error {
	sp := s.setup
	if sp == nil || len(sp.samples) == setupSamples || (!force && time.Now().Before(sp.next)) {
		return nil
	}
	n := setupBatch
	if s.toy {
		n = 2
	}
	d, err := sp.setup(s, n)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	sp.samples = append(sp.samples, d.Seconds()/float64(n))
	sp.next = time.Now().Add(sp.every)
	return nil
}

// session is the state one workload run shares across its phases.
type session struct {
	seed int64
	toy  bool            // test sizes: Figure 1 instances, two-cell grids
	dir  string          // scratch directory for daemon state
	book *answerBook     // answer checks across every phase
	http *http.Transport // the sweep client's connections
	log  io.Writer       // diagnostics

	// Set per phase.
	budget time.Duration
	warmup bool
	rec    *recorder     // nil when tracing is off
	setup  *setupSampler // nil except in the untraced phase
	root   int           // the phase's workload span
}

// loop runs body(0), body(1), ... until the phase budget has elapsed, at
// least once. A closed loop: each op starts when the previous one ends.
func (s *session) loop(body func(i int) error) error {
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < s.budget; i++ {
		if err := s.sampleSetup(false); err != nil {
			return err
		}
		if err := body(i); err != nil {
			return err
		}
	}
	for s.setup != nil && len(s.setup.samples) < setupSamples {
		if err := s.sampleSetup(true); err != nil {
			return err
		}
	}
	return nil
}

func (s *session) newPhase() *phase {
	p := &phase{}
	if s.rec != nil {
		p.layers = &layers{reg: map[string]float64{}, daemon: map[string]float64{}, sweep: map[string]float64{}}
	}
	return p
}

// record adds an op to the phase and checks its answer.
func (p *phase) record(s *session, o op, err error) {
	if err == nil {
		err = s.book.check(o.ID, o.Answer)
	}
	if err != nil {
		o.Err = err.Error()
		fmt.Fprintf(s.log, "bench: %s: %v\n", o.ID, err)
	}
	p.ops = append(p.ops, o)
}

// failures counts the phase's failed ops and failed phase-level checks.
func (p *phase) failures() int {
	n := p.failed
	for _, o := range p.ops {
		if o.Err != "" {
			n++
		}
	}
	return n
}

// window measures one stretch of work: its wall time, the bytes it
// allocates and, when traced, the obs.Default deltas it causes.
type window struct {
	p     *phase
	t0    time.Time
	alloc uint64
	reg   map[string]float64
}

func (p *phase) open() *window {
	w := &window{p: p}
	if p.layers != nil {
		w.reg = regValues(obs.Default)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.alloc = ms.TotalAlloc
	w.t0 = time.Now()
	return w
}

func (w *window) close() time.Duration {
	d := time.Since(w.t0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.p.alloc += ms.TotalAlloc - w.alloc
	w.p.busy += d.Seconds()
	if w.reg != nil {
		addDelta(w.p.layers.reg, w.reg, regValues(obs.Default))
	}
	return d
}

// runPhase runs one phase of w with the given budget, recorder and set-up
// sampler.
func (s *session) runPhase(w workload, budget time.Duration, warmup bool, rec *recorder, sp *setupSampler) (*phase, error) {
	s.budget, s.warmup, s.rec, s.setup = budget, warmup, rec, sp
	s.root = rec.begin("workload", w.name, 0)
	p, err := w.run(s)
	rec.end(s.root)
	if err != nil {
		return nil, err
	}
	if l := p.layers; l != nil {
		l.spanTotal, l.spanSelf = spanTimes(rec.spans())
	}
	return p, nil
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // scratch and span files go under here
	jsonOut  string // full report ("" = none)
	toy      bool
}

// spanPath is where a traced run writes its spans.
func spanPath(out, workload string, seed int64) string {
	return filepath.Join(out, "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}

// host describes the machine a result was measured on.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Seed       int64  `json:"seed"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measure runs cfg's workload and writes the report to stdout. It returns
// the result, or an error when the run could not be carried out at all.
func measure(cfg config, stdout, stderr io.Writer) (*result, error) {
	var w workload
	for _, c := range workloads() {
		if c.name == cfg.workload {
			w = c
		}
	}
	if w.run == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 0 || math.IsNaN(cfg.seconds) {
		return nil, fmt.Errorf("bad -seconds %v", cfg.seconds)
	}
	book, err := newAnswerBook(w.name, cfg.seed == 1 && !cfg.toy)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.out, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tr := &http.Transport{MaxIdleConnsPerHost: 2}
	defer tr.CloseIdleConnections()
	s := &session{seed: cfg.seed, toy: cfg.toy, dir: dir, book: book, http: tr, log: stderr}

	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Seed: cfg.seed}
	fmt.Fprintf(stdout, "host num_cpu=%d gomaxprocs=%d go=%s goos=%s goarch=%s seed=%d workload=%s\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH, h.Seed, w.name)

	warm, err := s.runPhase(w, 0, true, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		budget /= 2
	}
	sp := &setupSampler{setup: w.setup, every: budget / setupSamples}
	plain, err := s.runPhase(w, budget, false, nil, sp)
	if err != nil {
		return nil, err
	}
	phases := []*phase{warm, plain}
	e2e := endToEndValues(plain, quantile(sp.samples, 0.5))
	var layerVals map[string]float64
	if cfg.trace {
		rec := newRecorder()
		traced, err := s.runPhase(w, budget, false, rec, nil)
		if err != nil {
			return nil, err
		}
		phases = append(phases, traced)
		spans := rec.spans()
		if err := checkNesting(spans); err != nil {
			traced.failed++
			fmt.Fprintf(stderr, "bench: spans: %v\n", err)
		}
		path := spanPath(cfg.out, w.name, cfg.seed)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		if err := writeSpans(path, spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans %d written to %s\n", len(spans), path)
		layerVals = perLayerValues(traced, plain)
	}

	res := &result{Metrics: map[string]metricValue{}}
	for _, p := range phases {
		res.Attempted += len(p.ops)
		res.Failed += p.failures()
	}
	res.Correct = res.Failed == 0
	report := func(defs []metricDef, vals map[string]float64, final bool) {
		for _, d := range defs {
			v := vals[d.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			fmt.Fprintf(stdout, "%s %v %s\n", d.name, v, d.unit)
			if final {
				res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
			}
		}
	}
	report(endToEnd, e2e, !cfg.trace)
	if cfg.trace {
		report(perLayer, layerVals, true)
	}

	if cfg.jsonOut != "" {
		full := struct {
			Host     host               `json:"host"`
			Workload string             `json:"workload"`
			Seconds  float64            `json:"seconds"`
			Result   *result            `json:"result"`
			EndToEnd map[string]float64 `json:"end_to_end"`
			PerLayer map[string]float64 `json:"per_layer,omitempty"`
			Answers  map[string]answer  `json:"answers"`
		}{h, w.name, cfg.seconds, res, e2e, layerVals, book.seen}
		data, err := json.MarshalIndent(full, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(cfg.jsonOut, append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res, nil
}

func main() {
	var cfg config
	var trace int
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.StringVar(&cfg.workload, "workload", "", "workload to run: dp_warm_b4, dp_cold_12, blackbox_hc, serve_sweep")
	fl.Int64Var(&cfg.seed, "seed", 1, "workload seed; every input is derived from it")
	fl.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds (split in half between the untraced and traced runs with -trace 1)")
	fl.IntVar(&trace, "trace", 0, "1 adds a traced run and reports the per-layer metrics instead of the end-to-end ones")
	fl.StringVar(&cfg.out, "out", ".bench_build", "directory for scratch state and span files")
	fl.StringVar(&cfg.jsonOut, "json", "", "also write the full report, host and answers included, to this file")
	if err := fl.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	res, err := measure(cfg, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
	if !res.Correct {
		os.Exit(1)
	}
}
