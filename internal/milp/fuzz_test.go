package milp

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// FuzzParallelSolve feeds arbitrary bytes into the seeded instance generator
// and cross-checks the best-bound search against the depth-first one:
// identical optimal objective (within 1e-6) and model-feasible returned
// points; the warm search must replay the cold one's tree. (The name is
// kept so the seed corpus ids stay stable.) Run with
// `go test -fuzz=FuzzParallelSolve ./internal/milp`.
func FuzzParallelSolve(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(42), uint8(3))
	f.Add(int64(-7), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, knobs uint8) {
		// Mix the knob byte into the seed so the corpus explores generator
		// shapes beyond what int64 mutation alone reaches.
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(seed))
		b[0] ^= knobs
		mixed := int64(binary.LittleEndian.Uint64(b[:]))
		m := randomModel(rand.New(rand.NewSource(mixed)))

		best, err := Solve(m, Options{})
		if err != nil {
			t.Fatalf("best-bound: %v", err)
		}
		deep, err := Solve(m, Options{DepthFirst: true})
		if err != nil {
			t.Fatalf("depth-first: %v", err)
		}
		if best.Status != StatusOptimal || deep.Status != StatusOptimal {
			t.Fatalf("status %v vs %v, want optimal", best.Status, deep.Status)
		}
		if math.Abs(best.Objective-deep.Objective) > 1e-6 {
			t.Fatalf("objective diverged: %v vs %v", best.Objective, deep.Objective)
		}
		for _, r := range []*Result{best, deep} {
			if obj := checkModelFeasible(t, m, r.X); math.Abs(obj-r.Objective) > 1e-5 {
				t.Fatalf("objective %v does not match its point (%v)", r.Objective, obj)
			}
		}
		// Warm starting must leave the explored tree bit-identical: same
		// objective, bound, node and LP-solve counts as the cold run.
		cold := best
		if knobs&1 == 1 {
			cold = deep
		}
		warm, err := Solve(m, Options{DepthFirst: knobs&1 == 1, WarmStart: true})
		if err != nil {
			t.Fatalf("warm: %v", err)
		}
		if warm.Objective != cold.Objective || warm.Bound != cold.Bound ||
			warm.Nodes != cold.Nodes || warm.LPSolves != cold.LPSolves || warm.Status != cold.Status {
			t.Fatalf("warm run diverged from cold: obj %v vs %v, bound %v vs %v, nodes %d vs %d, lp %d vs %d",
				warm.Objective, cold.Objective, warm.Bound, cold.Bound,
				warm.Nodes, cold.Nodes, warm.LPSolves, cold.LPSolves)
		}
	})
}
