package milp

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// FuzzParallelSolve feeds arbitrary bytes into the seeded instance generator
// and cross-checks the sequential solver against a 4-worker run: identical
// optimal objective (within 1e-6) and a model-feasible returned point. Run
// with `go test -fuzz=FuzzParallelSolve ./internal/milp`.
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

		serial, err := Solve(m, Options{Workers: 1})
		if err != nil {
			t.Fatalf("serial: %v", err)
		}
		par, err := Solve(m, Options{Workers: 4, DepthFirst: knobs&1 == 1})
		if err != nil {
			t.Fatalf("parallel: %v", err)
		}
		if serial.Status != StatusOptimal || par.Status != StatusOptimal {
			t.Fatalf("status %v vs %v, want optimal", serial.Status, par.Status)
		}
		if math.Abs(serial.Objective-par.Objective) > 1e-6 {
			t.Fatalf("objective diverged: %v vs %v", serial.Objective, par.Objective)
		}
		if obj := checkModelFeasible(t, m, par.X); math.Abs(obj-par.Objective) > 1e-5 {
			t.Fatalf("parallel objective %v does not match its point (%v)", par.Objective, obj)
		}
		// Warm starting must leave the explored tree bit-identical: same
		// objective, bound, node and LP-solve counts as the cold parallel run.
		warm, err := Solve(m, Options{Workers: 4, DepthFirst: knobs&1 == 1, WarmStart: true})
		if err != nil {
			t.Fatalf("warm: %v", err)
		}
		if warm.Objective != par.Objective || warm.Bound != par.Bound ||
			warm.Nodes != par.Nodes || warm.LPSolves != par.LPSolves || warm.Status != par.Status {
			t.Fatalf("warm run diverged from cold: obj %v vs %v, bound %v vs %v, nodes %d vs %d, lp %d vs %d",
				warm.Objective, par.Objective, warm.Bound, par.Bound,
				warm.Nodes, par.Nodes, warm.LPSolves, par.LPSolves)
		}
	})
}
