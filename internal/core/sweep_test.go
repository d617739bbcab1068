package core

import (
	"testing"
	"time"

	"repro/internal/milp"
)

func TestGapAtLeast(t *testing.T) {
	pr := &DPGapProblem{
		Inst:      figure1Instance(t),
		Threshold: 50,
		Input:     InputConstraints{MaxDemand: 100},
	}
	// The maximum gap on Figure 1 is 100: a target of 80 must produce a
	// witness, a target of 150 must be proved unreachable.
	found, proved, res, err := pr.GapAtLeast(80, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !found || !proved {
		t.Fatalf("found=%v proved=%v, want witness for target 80", found, proved)
	}
	if res.Gap < 80-eps {
		t.Fatalf("witness gap %v below target", res.Gap)
	}
	found, proved, _, err = pr.GapAtLeast(150, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("found a gap above the true maximum 100")
	}
	if !proved {
		t.Fatal("small instance should prove the 150 target unreachable")
	}
}

func TestBinarySweepBracketsOptimum(t *testing.T) {
	pr := &DPGapProblem{
		Inst:      figure1Instance(t),
		Threshold: 50,
		Input:     InputConstraints{MaxDemand: 100},
	}
	best, upper, witness, err := pr.BinarySweepGap(0, 200, 12, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if witness == nil {
		t.Fatal("no witness found")
	}
	// True maximum is 100.
	if best < 100-1 || best > 100+eps {
		t.Fatalf("sweep best %v, want ~100", best)
	}
	if upper < best-eps {
		t.Fatalf("bracket inverted: best %v > upper %v", best, upper)
	}
}

// TestBinarySweepTimeoutKeepsUpper: on a range above every gap the seeds
// reach, a 1ns query never gets past the solver's first deadline check, so
// every query times out. The bisection still moves down, but no query was
// proved, so the returned upper end must stay at hi.
func TestBinarySweepTimeoutKeepsUpper(t *testing.T) {
	pr := &DPGapProblem{
		Inst:      figure1Instance(t),
		Threshold: 50,
		Input:     InputConstraints{MaxDemand: 100},
	}
	if found, proved, _, err := pr.GapAtLeast(225, time.Nanosecond); err != nil || found || proved {
		t.Fatalf("GapAtLeast(225, 1ns) = found %v, proved %v, %v; want a timed-out query", found, proved, err)
	}
	best, upper, witness, err := pr.BinarySweepGap(150, 300, 4, time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if upper != 300 {
		t.Fatalf("upper %v after queries that all timed out, want hi = 300", upper)
	}
	if best != 150 || witness != nil {
		t.Fatalf("best %v, witness %v; want lo = 150 and none (Figure 1's maximum gap is 100)", best, witness)
	}
}

func TestBinarySweepValidation(t *testing.T) {
	pr := &DPGapProblem{
		Inst: figure1Instance(t), Threshold: 50,
		Input: InputConstraints{MaxDemand: 100},
	}
	if _, _, _, err := pr.BinarySweepGap(10, 5, 3, time.Second); err == nil {
		t.Fatal("expected error for inverted range")
	}
	if _, err := SafeThreshold(pr, 10, 5, 1, 3, time.Second); err == nil {
		t.Fatal("expected error for inverted threshold range")
	}
}

func TestSafeThresholdFigure1(t *testing.T) {
	// On Figure 1 the worst-case gap at threshold T (T <= 50) is 2T: the
	// adversary pins d(0->2) = T, wasting T on each middle link while OPT
	// carries T on the direct link. SafeThreshold with eps = 30 must land
	// near T = 15.
	pr := &DPGapProblem{
		Inst:  figure1Instance(t),
		Input: InputConstraints{MaxDemand: 100},
	}
	safe, err := SafeThreshold(pr, 0, 50, 30, 10, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if safe < 13 || safe > 15+eps {
		t.Fatalf("safe threshold %v, want ~15", safe)
	}
	// Sanity: the worst-case gap at the reported threshold is within eps.
	check := *pr
	check.Threshold = safe
	res, err := check.Solve(milp.Options{MaxNodes: 300000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gap > 30+eps {
		t.Fatalf("gap %v at 'safe' threshold %v exceeds eps", res.Gap, safe)
	}
}
