// figures regenerates the data series behind every figure of the paper's
// evaluation. Each -fig value prints the rows the corresponding plot draws;
// "all" runs the whole evaluation (budget permitting).
//
// Usage:
//
//	figures -fig 3 -budget 10s
//	figures -fig 4a -pairs 12
//	figures -fig all
//	figures -fromtrace out.jsonl          # gap-vs-time rows from a -trace file
//
// SIGINT/SIGTERM interrupt the searches cooperatively: rows computed so far
// are printed, a SUMMARY line marks the run interrupted, and the exit code
// is 3 (a second signal kills immediately).
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// exitInterrupted is the distinct exit code for runs stopped by a signal.
const exitInterrupted = 3

// csvDir, when set, receives one CSV file per figure alongside the printed
// tables, so the series can be plotted directly.
var csvDir string

// writeCSV writes header+rows to <csvDir>/<name>.csv when -csv is set.
func writeCSV(name string, header []string, rows [][]string) error {
	if csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(csvDir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		return err
	}
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	w.Flush()
	return w.Error()
}

func main() { os.Exit(run()) }

func run() int {
	fig := flag.String("fig", "all", "figure to regenerate: 1, 2, 3, 4a, 4b, 5a, 5b, 6, all")
	budget := flag.Duration("budget", 5*time.Second, "wall-clock budget per search")
	pairs := flag.Int("pairs", 10, "demand-support restriction for meta optimizations (-1 = all pairs)")
	paths := flag.Int("paths", 2, "paths per demand pair")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", runtime.NumCPU(), "parallel workers per search; 1 = sequential")
	warmStart := flag.Bool("warmstart", false, "warm-start node LP relaxations from the parent basis (identical results, fewer pivots)")
	csvOut := flag.String("csv", "", "directory to also write per-figure CSV files into")
	fromTrace := flag.String("fromtrace", "", "replot a Figure-3 style gap-vs-time curve from a JSONL trace written with -trace")
	tracePath := flag.String("trace", "", "write a JSONL event trace of the searches to this file")
	metricsDump := flag.Bool("metrics", false, "print a Prometheus-style metrics dump on exit")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof, expvar and /metrics on this address (e.g. localhost:6060)")
	flag.Parse()
	csvDir = *csvOut

	if *fromTrace != "" {
		if err := figFromTrace(*fromTrace); err != nil {
			log.Fatalf("fromtrace: %v", err)
		}
		return 0
	}

	tracer, finishObs, err := obs.SetupCLI(*tracePath, *metricsDump, *pprofAddr, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	defer finishObs()

	// First signal cancels the running searches cooperatively (each returns
	// its best-so-far incumbent); restoring the default disposition lets a
	// second signal kill the process hard.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	go func() {
		<-ctx.Done()
		stopSignals()
	}()

	// finish reports how a figure ended. An error after an interrupt is the
	// interrupt's doing (a cancelled search can miss incumbents a full run
	// finds), so partial output plus the SUMMARY line beats dying silently.
	finish := func(name string, err error) int {
		if ctx.Err() != nil {
			if err != nil {
				fmt.Printf("figure %s aborted: %v\n", name, err)
			}
			fmt.Printf("SUMMARY fig=%s status=interrupted (rows above are best-so-far)\n", name)
			return exitInterrupted
		}
		if err != nil {
			log.Fatalf("figure %s: %v", name, err)
		}
		return 0
	}

	cfg := experiments.Config{Budget: *budget, Pairs: *pairs, Paths: *paths, Seed: *seed,
		Tracer: tracer, Workers: *workers, WarmStart: *warmStart, Ctx: ctx}
	runners := map[string]func(experiments.Config) error{
		"1": fig1, "2": fig2, "3": fig3, "4a": fig4a, "4b": fig4b,
		"5a": fig5a, "5b": fig5b, "6": fig6,
	}
	if *fig == "all" {
		for _, name := range []string{"1", "2", "3", "4a", "4b", "5a", "5b", "6"} {
			fmt.Printf("==== figure %s ====\n", name)
			if code := finish(name, runners[name](cfg)); code != 0 {
				return code
			}
			fmt.Println()
		}
		return 0
	}
	runner, ok := runners[*fig]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		return 2
	}
	return finish(*fig, runner(cfg))
}

// figFromTrace replots the Figure-3 gap-versus-time curve from a JSONL
// event trace: one row per incumbent improvement, plus the terminal bound.
// Any trace written with a -trace flag (gapfinder, tesolve, figures) works.
func figFromTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := obs.ReadTrace(f)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d events\n", path, len(recs))
	fmt.Printf("%-10s %10s %12s %10s %8s\n", "seconds", "gap", "bound", "source", "nodes")
	var rows [][]string
	for _, r := range recs {
		switch r.Kind {
		case obs.KindIncumbent.String(), obs.KindSolveDone.String():
			src := r.Source
			if r.Kind == obs.KindSolveDone.String() {
				src = "done/" + r.Status
			}
			fmt.Printf("%-10.3f %10.4f %12.4f %10s %8d\n",
				r.T, r.Objective, r.Bound, src, r.Nodes)
			rows = append(rows, []string{
				fmt.Sprintf("%.4f", r.T),
				fmt.Sprintf("%.6f", r.Objective),
				fmt.Sprintf("%.6f", r.Bound),
				src, fmt.Sprint(r.Nodes)})
		}
	}
	if len(rows) == 0 {
		fmt.Println("(no incumbent events in trace)")
		return nil
	}
	return writeCSV("fromtrace", []string{"seconds", "gap", "bound", "source", "nodes"}, rows)
}

func fig1(experiments.Config) error {
	r, err := experiments.Figure1()
	if err != nil {
		return err
	}
	fmt.Printf("OPT=%.0f  DP=%.0f  gap=%.0f (%.1f%% of OPT)\n",
		r.Opt, r.DP, r.Gap, 100*r.Gap/r.Opt)
	return nil
}

func fig2(experiments.Config) error {
	// The rectangle example is analytic: the KKT system of
	// min w^2+l^2 s.t. 2(w+l) >= P solves to w = l = lambda = P/4.
	for _, P := range []float64{4.0, 10.0} {
		fmt.Printf("P=%-4g  w=l=lambda=%g  diameter^2=%g\n", P, P/4, 2*(P/4)*(P/4))
	}
	fmt.Println("(mechanized check: internal/kkt TestFigure2Rectangle and TestFigure2LinearAnalog)")
	return nil
}

func fig3(cfg experiments.Config) error {
	for _, heur := range []string{"dp", "pop"} {
		points, err := experiments.Figure3(heur, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("heuristic=%s on B4 (gap normalized by total capacity)\n", heur)
		fmt.Printf("%-10s %12s %10s\n", "method", "time", "norm-gap")
		var rows [][]string
		for _, p := range points {
			fmt.Printf("%-10s %12v %10.4f\n", p.Method, p.Elapsed.Round(time.Millisecond), p.NormGap)
			rows = append(rows, []string{p.Method,
				fmt.Sprintf("%.3f", p.Elapsed.Seconds()), fmt.Sprintf("%.6f", p.NormGap)})
		}
		if err := writeCSV("fig3_"+heur, []string{"method", "seconds", "norm_gap"}, rows); err != nil {
			return err
		}
	}
	return nil
}

func fig4a(cfg experiments.Config) error {
	rows, err := experiments.Figure4a(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %12s %10s\n", "topology", "threshold", "norm-gap")
	var recs [][]string
	for _, r := range rows {
		fmt.Printf("%-10s %11.1f%% %10.4f\n", r.Topology, 100*r.Threshold, r.NormGap)
		recs = append(recs, []string{r.Topology,
			fmt.Sprintf("%.3f", r.Threshold), fmt.Sprintf("%.6f", r.NormGap)})
	}
	return writeCSV("fig4a", []string{"topology", "threshold_frac", "norm_gap"}, recs)
}

func fig4b(cfg experiments.Config) error {
	rows, err := experiments.Figure4b(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %12s %10s\n", "circle", "avg-path-len", "norm-gap")
	var recs [][]string
	for _, r := range rows {
		fmt.Printf("n=%-3d m=%-6d %12.2f %10.4f\n", r.Nodes, r.Neighbors, r.AvgPathLen, r.NormGap)
		recs = append(recs, []string{fmt.Sprint(r.Nodes), fmt.Sprint(r.Neighbors),
			fmt.Sprintf("%.4f", r.AvgPathLen), fmt.Sprintf("%.6f", r.NormGap)})
	}
	return writeCSV("fig4b", []string{"nodes", "neighbors", "avg_path_len", "norm_gap"}, recs)
}

func fig5a(cfg experiments.Config) error {
	rows, err := experiments.Figure5a(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%-15s %10s %13s %9s\n", "instantiations", "train-gap", "transfer-gap", "retained")
	var recs [][]string
	for _, r := range rows {
		fmt.Printf("%-15d %10.2f %13.2f %8.0f%%\n",
			r.Instantiations, r.TrainGap, r.TransferGap, 100*r.TransferGap/r.TrainGap)
		recs = append(recs, []string{fmt.Sprint(r.Instantiations),
			fmt.Sprintf("%.4f", r.TrainGap), fmt.Sprintf("%.4f", r.TransferGap)})
	}
	return writeCSV("fig5a", []string{"instantiations", "train_gap", "transfer_gap"}, recs)
}

func fig5b(cfg experiments.Config) error {
	rows, err := experiments.Figure5b(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%-11s %6s %10s\n", "partitions", "paths", "norm-gap")
	var recs [][]string
	for _, r := range rows {
		fmt.Printf("%-11d %6d %10.4f\n", r.Partitions, r.Paths, r.NormGap)
		recs = append(recs, []string{fmt.Sprint(r.Partitions), fmt.Sprint(r.Paths),
			fmt.Sprintf("%.6f", r.NormGap)})
	}
	return writeCSV("fig5b", []string{"partitions", "paths", "norm_gap"}, recs)
}

func fig6(cfg experiments.Config) error {
	rows, err := experiments.Figure6(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %8s %8s %8s %12s\n", "problem", "vars", "linear", "SOS", "latency")
	var recs [][]string
	for _, r := range rows {
		fmt.Printf("%-14s %8d %8d %8d %12v\n",
			r.Problem, r.Vars, r.Linear, r.SOS, r.Latency.Round(time.Millisecond))
		recs = append(recs, []string{r.Problem, fmt.Sprint(r.Vars), fmt.Sprint(r.Linear),
			fmt.Sprint(r.SOS), fmt.Sprintf("%.4f", r.Latency.Seconds())})
	}
	return writeCSV("fig6", []string{"problem", "vars", "linear", "sos", "latency_s"}, recs)
}
