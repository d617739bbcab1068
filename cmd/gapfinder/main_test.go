package main

import (
	"fmt"
	"math/rand"
	"testing"

	metaopt "repro"
	"repro/internal/blackbox"
)

// TestDefaultWorkersSelectsRestartStreams: at the -workers default a
// black-box search draws each restart from its own seeded stream, so
// `-method hillclimb -pairs 12 -restarts 3 -seed 3` answers as it does at
// -workers 2 on any host, with the gap and evaluation count CI records.
func TestDefaultWorkersSelectsRestartStreams(t *testing.T) {
	if defaultWorkers < 2 {
		t.Fatalf("defaultWorkers = %d selects the serial restart stream", defaultWorkers)
	}
	g, err := metaopt.TopologyByName("b4")
	if err != nil {
		t.Fatal(err)
	}
	set := metaopt.RandomPairs(g, 12, rand.New(rand.NewSource(3)))
	inst, err := metaopt.NewInstance(g, set, 2)
	if err != nil {
		t.Fatal(err)
	}
	climb := func(workers int) *blackbox.Result {
		t.Helper()
		res, err := blackbox.HillClimb(blackbox.DPGap(inst, 5), set.Len(), blackbox.Options{
			MaxDemand: 100, Sigma: 10, K: 100, Restarts: 3,
			Rng: rand.New(rand.NewSource(3)), Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		return res
	}
	def, two := climb(defaultWorkers), climb(2)
	if def.Gap != two.Gap || def.Evals != two.Evals || fmt.Sprint(def.Demands) != fmt.Sprint(two.Demands) {
		t.Fatalf("default workers answered gap %v after %d evals, workers 2 gap %v after %d",
			def.Gap, def.Evals, two.Gap, two.Evals)
	}
	if got := fmt.Sprintf("%.4f/%d", def.Gap, def.Evals); got != "4.5974/424" {
		t.Fatalf("gap/evals = %s, want 4.5974/424", got)
	}
}
