package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/obs"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's contract: BENCHMARK.json declares exactly these
// names and units, in this order, and bench_test.go holds them equal.
type metricDef struct{ name, unit string }

// endToEnd metrics are measured with tracing off. Every workload defines a
// request (its op) and a unit of work:
//
//	dp_warm_b4, dp_cold_12  op = one gap search        unit = B&B node
//	blackbox_hc             op = one hill-climb call   unit = gap evaluation
//	serve_sweep             op = one solved cell, POST to result stored
//	                        unit = B&B node
//
// serve_sweep's cache hits are checked but left out of its end-to-end
// metrics; the traced run reports their latency as serve.hit_ms_p50.
// Throughput is the median over ops (serve_sweep: over miss passes) of
// units per second, so a stall in one op moves it little.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms_p50", "ms"},
	{"throughput_per_s", "1/s"},
	{"alloc_kb_per_unit", "KB"},
}

// perLayer metrics come from the traced run. Times are shares, not
// seconds: every run lasts the same wall time, so a layer's share of it is
// what a change to that layer moves. A metric whose layer a workload does
// not reach reads 0 there.
var perLayer = []metricDef{
	{"lp.all_solves", "count"},
	{"lp.node_solves", "count"},
	{"lp.oneshot_solves", "count"},
	{"lp.pivots_per_solve", "pivots/solve"},
	{"lp.degenerate_frac", "frac"},
	{"lp.warm_solves", "count"},
	{"lp.warm_fallback_frac", "frac"},
	{"lp.node_solve_share", "frac"},
	{"lp.phase1_share", "frac"},
	{"lp.phase2_share", "frac"},
	{"lp.warm_repair_share", "frac"},
	{"lp.unattributed_share", "frac"},
	{"milp.nodes", "count"},
	{"milp.waves", "count"},
	{"milp.pruned_frac", "frac"},
	{"milp.incumbents", "count"},
	{"milp.polish_attempts", "count"},
	{"milp.polish_accept_frac", "frac"},
	{"milp.self_share", "frac"},
	{"milp.wave_share", "frac"},
	{"mcf.gap_eval_share", "frac"},
	{"core.build_share", "frac"},
	{"core.solve_share", "frac"},
	{"core.verify_share", "frac"},
	{"core.fingerprint_share", "frac"},
	{"blackbox.restarts", "count"},
	{"blackbox.evals", "count"},
	{"blackbox.accept_frac", "frac"},
	{"blackbox.self_share", "frac"},
	{"checkpoint.writes", "count"},
	{"checkpoint.writes_per_node", "1/node"},
	{"checkpoint.write_errors", "count"},
	{"serve.cache_hits", "count"},
	{"serve.cache_misses", "count"},
	{"serve.solver_runs", "count"},
	{"serve.rejected", "count"},
	{"serve.job_share", "frac"},
	{"serve.non_phase_share", "frac"},
	{"serve.wait_share", "frac"},
	{"serve.admit_share", "frac"},
	{"serve.hit_ms_p50", "ms"},
	{"serve.poll_gets_per_job", "1/job"},
	{"serve.store_kb", "KB"},
	{"sweep.attempts", "count"},
	{"sweep.retries", "count"},
	{"sweep.ledger_puts", "count"},
	{"sweep.ledger_write_share", "frac"},
	{"sweep.ledger_kb_per_put", "KB/put"},
	{"obs.trace_overhead_frac", "frac"},
}

// op is one request of a workload.
type op struct {
	ID      string
	Latency time.Duration
	Hit     bool // a cache hit: checked, but not in latency_ms_p50
	Answer  answer
	Err     string
}

// phase is one measured stretch of a workload: the untraced run, the
// traced run, or the untimed warm-up.
type phase struct {
	ops    []op
	busy   float64   // seconds spent in measured work
	units  float64   // units of work completed
	rates  []float64 // units per second of each op (serve_sweep: each miss pass)
	alloc  uint64    // bytes allocated by the measured work
	failed int       // failed checks that are not tied to one op
	layers *layers   // nil on an untraced phase
}

// layers are the raw per-layer tallies of a traced phase.
type layers struct {
	counts layerCounts
	reg    map[string]float64 // obs.Default deltas over the measured work
	daemon map[string]float64 // daemon registry deltas
	sweep  map[string]float64 // sweep runner registry deltas

	// Span time and self time per span name, in seconds.
	spanTotal, spanSelf map[string]float64

	jobLatencySecs, admitSecs float64 // solved cells
	ledgerSecs                float64
	ledgerPuts                int
	ledgerBytes, storeBytes   int64
	passSecs                  float64
	fingerprintSecs, hitSecs  []float64
}

// layerCounts are the event tallies a traced phase collects.
type layerCounts struct {
	nodeSolves, nodes, pruned, incumbents   int
	polishAccepts, polishRejects            int
	restarts, moveAccepts, moveRejects      int
	ckptWrites, ckptErrors, pollGets, evals int
	attempts                                int
}

// regValues flattens a registry export: counters by name, histograms as
// <name>_sum (seconds) and <name>_count.
func regValues(r *obs.Registry) map[string]float64 {
	ex := r.Export()
	out := make(map[string]float64, len(ex.Counters)+2*len(ex.Histograms))
	for _, c := range ex.Counters {
		out[c.Name] = float64(c.Value)
	}
	for _, h := range ex.Histograms {
		out[h.Name+"_sum"] = h.Sum
		out[h.Name+"_count"] = float64(h.Count)
	}
	return out
}

// addDelta accumulates after-before into acc.
func addDelta(acc, before, after map[string]float64) {
	for k, v := range after {
		acc[k] += v - before[k]
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func latencies(ops []op) []float64 {
	out := make([]float64, 0, len(ops))
	for _, o := range ops {
		if o.Err == "" && !o.Hit {
			out = append(out, o.Latency.Seconds())
		}
	}
	return out
}

// endToEndValues computes the end-to-end metrics of an untraced phase;
// setup is the run's set-up time per op, in seconds.
func endToEndValues(p *phase, setup float64) map[string]float64 {
	return map[string]float64{
		"setup_s":           setup,
		"latency_ms_p50":    1000 * quantile(latencies(p.ops), 0.5),
		"throughput_per_s":  quantile(p.rates, 0.5),
		"alloc_kb_per_unit": ratio(float64(p.alloc)/1024, p.units),
	}
}

// perLayerValues computes the per-layer metrics of a traced phase; plain
// is the untraced phase of the same run, for the tracing overhead.
func perLayerValues(traced, plain *phase) map[string]float64 {
	l := traced.layers
	c := l.counts
	busy := traced.busy
	reg := func(name string) float64 { return l.reg[name] }
	allSolves := reg("lp_solves_total")
	nodeSolves := float64(c.nodeSolves)
	phaseSecs := reg("lp_phase1_seconds_sum") + reg("lp_phase2_seconds_sum") + reg("lp_warm_repair_seconds_sum")
	warmTried := reg("lp_warm_solves_total") + reg("lp_warm_fallbacks_total")
	// Core phases come from a serial search's phase spans, as shares of
	// the busy time, or from the daemon's phase histograms, as shares of
	// the client-side job latency.
	total, self := l.spanTotal, l.spanSelf
	buildSecs, solveSecs, verSecs, coreDen := total["core.build"], total["core.solve"], total["core.verify"], busy
	daemonJob := l.daemon["serve_job_seconds_sum"]
	if daemonJob > 0 {
		buildSecs = l.daemon["serve_phase_build_seconds_sum"]
		solveSecs = l.daemon["serve_phase_solve_seconds_sum"]
		verSecs = l.daemon["serve_phase_verify_seconds_sum"]
		coreDen = l.jobLatencySecs
	}
	daemonPhases := buildSecs + solveSecs + verSecs
	share := func(secs float64) float64 { return ratio(secs, coreDen) }
	// The spans that hold the workload's LP solves: node relaxations of a
	// serial search (with their speculative polish) or gap evaluations.
	// Their time minus the solver's own phase timers is the LP time no
	// phase accounts for; a lower bound, as the phase timers also cover
	// the LPs solved outside these spans (seed pricing, verification).
	lpSpans := total["lp.node"] + total["mcf.gap_eval"]
	unattributed := 0.0
	if lpSpans > 0 {
		unattributed = ratio(lpSpans-phaseSecs, busy)
	}
	jobs := float64(c.attempts)
	return map[string]float64{
		"lp.all_solves":              allSolves,
		"lp.node_solves":             nodeSolves,
		"lp.oneshot_solves":          math.Max(allSolves-nodeSolves, 0),
		"lp.pivots_per_solve":        ratio(reg("lp_iterations_total"), allSolves),
		"lp.degenerate_frac":         ratio(reg("lp_degenerate_pivots_total"), reg("lp_iterations_total")),
		"lp.warm_solves":             reg("lp_warm_solves_total"),
		"lp.warm_fallback_frac":      ratio(reg("lp_warm_fallbacks_total"), warmTried),
		"lp.node_solve_share":        ratio(total["lp.node"], busy),
		"lp.phase1_share":            ratio(reg("lp_phase1_seconds_sum"), busy),
		"lp.phase2_share":            ratio(reg("lp_phase2_seconds_sum"), busy),
		"lp.warm_repair_share":       ratio(reg("lp_warm_repair_seconds_sum"), busy),
		"lp.unattributed_share":      unattributed,
		"milp.nodes":                 float64(c.nodes),
		"milp.waves":                 reg("bnb_waves_total"),
		"milp.pruned_frac":           ratio(float64(c.pruned), float64(c.nodes)),
		"milp.incumbents":            float64(c.incumbents),
		"milp.polish_attempts":       float64(c.polishAccepts + c.polishRejects),
		"milp.polish_accept_frac":    ratio(float64(c.polishAccepts), float64(c.polishAccepts+c.polishRejects)),
		"milp.self_share":            ratio(self["core.solve"], busy),
		"milp.wave_share":            ratio(reg("bnb_wave_seconds_sum"), busy),
		"mcf.gap_eval_share":         ratio(total["mcf.gap_eval"], busy),
		"core.build_share":           share(buildSecs),
		"core.solve_share":           share(solveSecs),
		"core.verify_share":          share(verSecs),
		"core.fingerprint_share":     ratio(quantile(l.fingerprintSecs, 0.5), quantile(l.hitSecs, 0.5)),
		"blackbox.restarts":          float64(c.restarts),
		"blackbox.evals":             float64(c.evals),
		"blackbox.accept_frac":       ratio(float64(c.moveAccepts), float64(c.moveAccepts+c.moveRejects)),
		"blackbox.self_share":        ratio(self["blackbox.call"], busy),
		"checkpoint.writes":          float64(c.ckptWrites),
		"checkpoint.writes_per_node": ratio(float64(c.ckptWrites), float64(c.nodes)),
		"checkpoint.write_errors":    float64(c.ckptErrors),
		"serve.cache_hits":           l.daemon["serve_cache_hits_total"],
		"serve.cache_misses":         l.daemon["serve_cache_misses_total"],
		"serve.solver_runs":          l.daemon["serve_solver_runs_total"],
		"serve.rejected":             l.daemon["serve_jobs_rejected_total"],
		"serve.job_share":            ratio(daemonJob, l.jobLatencySecs),
		"serve.non_phase_share":      ratio(daemonJob-daemonPhases, daemonJob),
		"serve.wait_share":           ratio(l.jobLatencySecs-daemonJob, l.jobLatencySecs),
		"serve.admit_share":          ratio(l.admitSecs, l.jobLatencySecs),
		"serve.hit_ms_p50":           1000 * quantile(l.hitSecs, 0.5),
		"serve.poll_gets_per_job":    ratio(float64(c.pollGets), jobs),
		"serve.store_kb":             float64(l.storeBytes) / 1024,
		"sweep.attempts":             float64(c.attempts),
		"sweep.retries":              l.sweep["sweep_retries_total"],
		"sweep.ledger_puts":          float64(l.ledgerPuts),
		"sweep.ledger_write_share":   ratio(l.ledgerSecs, l.passSecs),
		"sweep.ledger_kb_per_put":    ratio(float64(l.ledgerBytes)/1024, float64(l.ledgerPuts)),
		"obs.trace_overhead_frac":    ratio(quantile(plain.rates, 0.5), quantile(traced.rates, 0.5)) - 1,
	}
}
