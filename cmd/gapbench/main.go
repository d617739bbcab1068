// Command gapbench runs the canonical benchmark fixtures under a seeded
// deterministic harness and writes a BENCH_<date>.json ledger, or
// BENCH_<date>rN.json with the first N from 2 that no file takes yet, so a
// run never replaces a committed ledger (the
// internal/benchstore schema): per-fixture wall-clock and allocation
// metrics, deterministic effort counters, and the per-phase obs histogram
// deltas (lp_phase1/lp_phase2/lp_warm_repair/bnb_wave seconds) that say
// where the time went.
//
// With -against BENCH_<prev>.json it also emits a comparison report with
// per-metric verdicts: deterministic counters (nodes, pivots, fallbacks,
// histogram counts) gate exactly — any increase fails — while wall-clock
// metrics gate through a relative tolerance. Exit status: 0 clean, 1 gate
// failed, 2 harness error.
//
// Usage:
//
//	gapbench                                  # run everything, write the next free BENCH_<today>[rN].json
//	gapbench -against BENCH_2026-08-08.json   # ...and gate against a baseline
//	gapbench -fixtures smoke_b4_dp -reps 1 -hard-only -against BENCH_2026-08-08.json  # the CI gate
//	gapbench -list                            # show the fixture suite
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/benchstore"
	"repro/internal/obs"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		out       = flag.String("out", "", "output ledger path (default the first free BENCH_<today>.json, BENCH_<today>r2.json, ...)")
		against   = flag.String("against", "", "baseline BENCH_*.json to compare and gate against")
		filter    = flag.String("fixtures", "", "comma-separated fixture names (or substrings) to run; default all")
		reps      = flag.Int("reps", 3, "measurement repetitions per fixture (soft metrics use the best rep)")
		seed      = flag.Int64("seed", 1, "harness seed; fixture RNG seeds derive from it by fixed offsets")
		softTol   = flag.Float64("soft-tol", benchstore.DefaultSoftTolerance, "relative tolerance for wall-clock metrics in -against mode")
		softFloor = flag.Float64("soft-floor", benchstore.DefaultSoftFloor, "absolute wall-clock change below which soft metrics never gate (negative disables)")
		hardOnly  = flag.Bool("hard-only", false, "gate only on deterministic counters (CI mode: baseline timings come from a different machine)")
		note      = flag.String("note", "", "free-form note recorded in the ledger")
		list      = flag.Bool("list", false, "list fixtures and exit")
		quiet     = flag.Bool("q", false, "suppress per-fixture progress")
	)
	flag.Parse()

	suite := fixtures()
	if *list {
		for _, fx := range suite {
			fmt.Printf("%-22s %s\n", fx.name, fx.desc)
		}
		return 0
	}
	selected := selectFixtures(suite, *filter)
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "gapbench: no fixtures match %q\n", *filter)
		return 2
	}

	date := time.Now().UTC().Format("2006-01-02")
	outPath, err := ledgerPath(".", date, *out, *against)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gapbench: %v\n", err)
		return 2
	}
	file := &benchstore.File{
		Schema: benchstore.SchemaVersion,
		Date:   date,
		Seed:   *seed,
		Note:   *note,
		Host:   benchstore.CurrentHost(),
	}
	for _, b := range obs.HistogramBounds() {
		file.HistBounds = append(file.HistBounds, benchstore.Float(b))
	}

	for _, fx := range selected {
		rec, err := runFixture(fx, *seed, *reps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gapbench: fixture %s: %v\n", fx.name, err)
			return 2
		}
		file.Fixtures = append(file.Fixtures, *rec)
		if !*quiet {
			secs := softValue(rec, "seconds_per_op")
			fmt.Printf("%-22s %8.3fs/op  reps=%d  hard=%d metrics  hist=%d\n",
				fx.name, secs, rec.Reps, len(rec.Hard), len(rec.Histograms))
		}
	}

	enc, err := benchstore.Encode(file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gapbench: encode: %v\n", err)
		return 2
	}
	if err := os.WriteFile(outPath, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "gapbench: %v\n", err)
		return 2
	}
	if !*quiet {
		fmt.Printf("wrote %s (%d fixtures)\n", outPath, len(file.Fixtures))
	}

	if *against == "" {
		return 0
	}
	baseRaw, err := os.ReadFile(*against)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gapbench: %v\n", err)
		return 2
	}
	baseline, err := benchstore.Decode(baseRaw)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gapbench: baseline: %v\n", err)
		return 2
	}
	if baseline.Seed != *seed {
		fmt.Fprintf(os.Stderr, "gapbench: warning: baseline seed %d != harness seed %d; fingerprint checks will catch tree changes\n",
			baseline.Seed, *seed)
	}
	if !benchstore.SameHost(baseline, file) {
		fmt.Printf("note: hosts differ (baseline %s; this run %s): soft metrics compare different machines\n",
			baseline.Host, file.Host)
	}
	// A partial run (-fixtures) must not count unselected baseline fixtures
	// as missing: restrict the baseline to what actually ran.
	if *filter != "" {
		var kept []benchstore.Fixture
		for _, bf := range baseline.Fixtures {
			if file.FindFixture(bf.Name) != nil {
				kept = append(kept, bf)
			}
		}
		baseline.Fixtures = kept
	}
	rep, err := benchstore.Compare(baseline, file, benchstore.Options{SoftTolerance: *softTol, SoftFloor: *softFloor})
	if err != nil {
		fmt.Fprintf(os.Stderr, "gapbench: compare: %v\n", err)
		return 2
	}
	if err := rep.WriteText(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "gapbench: %v\n", err)
		return 2
	}
	if n := len(rep.HardFailures()); n > 0 {
		fmt.Printf("\nGATE FAILED: %d deterministic regression(s)/missing metric(s)\n", n)
		return 1
	}
	if !*hardOnly {
		if n := len(rep.SoftRegressions()); n > 0 {
			fmt.Printf("\nGATE FAILED: %d wall-clock metric(s) beyond ±%.0f%% (rerun or bless with -hard-only if expected)\n",
				n, 100**softTol)
			return 1
		}
	}
	fmt.Println("\ngate clean")
	return 0
}

// ledgerPath names the ledger a run writes: out when given, else the first
// of BENCH_<date>.json, BENCH_<date>r2.json, BENCH_<date>r3.json, ... that
// does not exist in dir. It refuses an out that is the against baseline,
// which the run would overwrite and then compare with itself.
func ledgerPath(dir, date, out, against string) (string, error) {
	for n := 1; out == ""; n++ {
		name := "BENCH_" + date + ".json"
		if n > 1 {
			name = fmt.Sprintf("BENCH_%sr%d.json", date, n)
		}
		if _, err := os.Stat(filepath.Join(dir, name)); errors.Is(err, fs.ErrNotExist) {
			out = filepath.Join(dir, name)
		}
	}
	if against != "" {
		a, errA := filepath.Abs(against)
		o, errO := filepath.Abs(out)
		if errA != nil || errO != nil {
			return "", errors.Join(errA, errO)
		}
		oi, errO := os.Stat(o)
		ai, errA := os.Stat(a)
		if a == o || errO == nil && errA == nil && os.SameFile(oi, ai) {
			return "", fmt.Errorf("-out %s is the -against baseline; the run would compare the ledger with itself", out)
		}
	}
	return out, nil
}

func selectFixtures(suite []fixture, filter string) []fixture {
	if filter == "" {
		return suite
	}
	var keep []fixture
	for _, pat := range strings.Split(filter, ",") {
		pat = strings.TrimSpace(pat)
		if pat == "" {
			continue
		}
		for _, fx := range suite {
			if fx.name == pat || strings.Contains(fx.name, pat) {
				if !containsFixture(keep, fx.name) {
					keep = append(keep, fx)
				}
			}
		}
	}
	return keep
}

func containsFixture(s []fixture, name string) bool {
	for _, fx := range s {
		if fx.name == name {
			return true
		}
	}
	return false
}

func softValue(fx *benchstore.Fixture, name string) float64 {
	for _, v := range fx.Soft {
		if v.Name == name {
			return float64(v.Value)
		}
	}
	return 0
}

// runFixture executes one fixture reps times. The first rep is bracketed by
// obs registry exports and memory stats (its metric deltas become the
// fixture's counters and histograms); later reps only contribute timing and
// must reproduce the first rep's deterministic counters exactly — any drift
// is a harness error, because it would poison every future comparison.
func runFixture(fx fixture, seed int64, reps int) (*benchstore.Fixture, error) {
	runtime.GC()
	var (
		first              = true
		outcome            *runOutcome
		before, after      obs.Export
		msBefore, msAfter  runtime.MemStats
		firstObjectiveHard []benchstore.Counter
	)
	timing, err := benchstore.Measure(reps, func() error {
		// Each rep gets a fresh tracer so elapsed stamps restart; the sink
		// writes into obs.Default, same as the CLI tools.
		tr := obs.NewTracer(obs.NewMetricsSink(nil))
		if first {
			runtime.ReadMemStats(&msBefore)
			before = obs.Default.Export()
		}
		o, err := fx.run(seed, tr)
		if err != nil {
			return err
		}
		if first {
			after = obs.Default.Export()
			runtime.ReadMemStats(&msAfter)
			outcome = o
			firstObjectiveHard = o.hard
			first = false
			return nil
		}
		return sameHard(fx.name, firstObjectiveHard, o.hard, outcome.fingerprint, o.fingerprint)
	})
	if err != nil {
		return nil, err
	}

	rec := &benchstore.Fixture{
		Name:        fx.name,
		Fingerprint: benchstore.Fingerprint(outcome.fingerprint),
		Reps:        timing.Reps,
		Hard:        append([]benchstore.Counter(nil), outcome.hard...),
	}
	counters, hists := diffExports(before, after)
	rec.Soft = []benchstore.Value{
		{Name: "seconds_per_op", Value: benchstore.Float(timing.BestSeconds())},
		{Name: "allocs_per_op", Value: benchstore.Float(float64(msAfter.Mallocs - msBefore.Mallocs))},
		{Name: "bytes_per_op", Value: benchstore.Float(float64(msAfter.TotalAlloc - msBefore.TotalAlloc))},
	}
	if fx.registrySoft {
		// Registry-level call counts are scheduling-dependent here (see the
		// fixture's registrySoft doc): record them as soft values so they
		// inform without gating exactly. The solver's own result counters in
		// rec.Hard still gate exactly — the tree is deterministic.
		for _, c := range counters {
			rec.Soft = append(rec.Soft, benchstore.Value{Name: c.Name, Value: benchstore.Float(float64(c.Value))})
		}
		for _, h := range hists {
			rec.Soft = append(rec.Soft,
				benchstore.Value{Name: h.Name + "_count", Value: benchstore.Float(float64(h.Count))},
				benchstore.Value{Name: h.Name + "_sum", Value: h.Sum})
		}
	} else {
		rec.Hard = append(rec.Hard, counters...)
		rec.Histograms = hists
	}
	return rec, nil
}

// sameHard enforces in-process determinism across reps: same fingerprint,
// same counters, same values.
func sameHard(name string, a, b []benchstore.Counter, fpA, fpB uint64) error {
	if fpA != fpB {
		return fmt.Errorf("determinism violation in %s: fingerprint %s vs %s across reps",
			name, benchstore.Fingerprint(fpA), benchstore.Fingerprint(fpB))
	}
	if len(a) != len(b) {
		return fmt.Errorf("determinism violation in %s: %d vs %d hard counters across reps", name, len(a), len(b))
	}
	bv := make(map[string]int64, len(b))
	for _, c := range b {
		bv[c.Name] = c.Value
	}
	for _, c := range a {
		got, ok := bv[c.Name]
		if !ok {
			return fmt.Errorf("determinism violation in %s: counter %s missing on a later rep", name, c.Name)
		}
		if got != c.Value {
			return fmt.Errorf("determinism violation in %s: counter %s = %d then %d", name, c.Name, c.Value, got)
		}
	}
	return nil
}

// diffExports turns two obs.Default exports into the fixture's share of the
// registry: counter deltas (all deterministic under the harness's
// budget-free options) and histogram deltas (counts deterministic, sums and
// bucket placements wall-clock). Metrics untouched by the fixture (zero
// delta) are dropped.
func diffExports(before, after obs.Export) ([]benchstore.Counter, []benchstore.Histogram) {
	prevC := make(map[string]int64, len(before.Counters))
	for _, c := range before.Counters {
		prevC[c.Name] = c.Value
	}
	var counters []benchstore.Counter
	for _, c := range after.Counters {
		if d := c.Value - prevC[c.Name]; d != 0 {
			counters = append(counters, benchstore.Counter{Name: c.Name, Value: d})
		}
	}
	prevH := make(map[string]obs.HistogramValue, len(before.Histograms))
	for _, h := range before.Histograms {
		prevH[h.Name] = h
	}
	var hists []benchstore.Histogram
	for _, h := range after.Histograms {
		p := prevH[h.Name]
		if h.Count == p.Count {
			continue
		}
		bh := benchstore.Histogram{
			Name:  h.Name,
			Count: h.Count - p.Count,
			Sum:   benchstore.Float(h.Sum - p.Sum),
		}
		for i, b := range h.Buckets {
			var pb uint64
			if len(p.Buckets) == len(h.Buckets) {
				pb = p.Buckets[i]
			}
			bh.Buckets = append(bh.Buckets, b-pb)
		}
		hists = append(hists, bh)
	}
	sort.Slice(counters, func(i, j int) bool { return counters[i].Name < counters[j].Name })
	sort.Slice(hists, func(i, j int) bool { return hists[i].Name < hists[j].Name })
	return counters, hists
}
