package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"
	"repro/internal/milp"
)

// resultHash digests everything a gap search reports that must not move
// when the search code is restructured: the solver status and effort counters,
// the bits of the claimed and verified gaps and of every input entry, and
// every incumbent trace point's objective, bound and source. Wall-clock
// fields are left out.
func resultHash(r *Result) string {
	h := sha256.New()
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	s := r.Solver
	u(uint64(s.Status))
	u(uint64(s.Nodes))
	u(uint64(s.LPSolves))
	u(uint64(s.LPIters))
	f(r.ModelGap)
	f(r.Gap)
	u(uint64(len(r.Demands)))
	for _, d := range r.Demands {
		f(d)
	}
	u(uint64(len(s.Trace)))
	for _, p := range s.Trace {
		f(p.Objective)
		f(p.Bound)
		h.Write([]byte(p.Source))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGapResultsPinned is the referee for runGap: each
// problem kind runs a small fixed instance under a node cap, and the hash of
// its result must equal the recorded constant.
func TestGapResultsPinned(t *testing.T) {
	cases := []struct {
		name  string
		solve func(opts milp.Options) (*Result, error)
		want  string
	}{
		{"dp-phase2", func(opts milp.Options) (*Result, error) {
			pr := &DPGapProblem{Inst: figure1Instance(t), Threshold: 50, Input: InputConstraints{MaxDemand: 100}}
			return pr.Solve(opts)
		}, "09d46eb763fe427a23a416536e0d3572846bbe5f6d875ec49231c3be9d13250f"},
		{"dp-literal", func(opts milp.Options) (*Result, error) {
			pr := &DPGapProblem{Inst: figure1Instance(t), Threshold: 50, LiteralEncoding: true,
				Input: InputConstraints{MaxDemand: 100}}
			return pr.Solve(opts)
		}, "6a8ffa81157a78f688172e4690e7d8d0fd1c548b3d2c75aaf6f725fa50c08fcb"},
		{"pop", func(opts milp.Options) (*Result, error) {
			pr := &POPGapProblem{Inst: popLineInstance(t), Partitions: 2, Instantiations: 2,
				Rng: rand.New(rand.NewSource(3)), Input: InputConstraints{MaxDemand: 100}}
			return pr.Solve(opts)
		}, "aa0fd8a1ee513b280c0ff4b41815665c382fb767f9a9a00f499c6e56bbf4ec24"},
		{"pop-split", func(opts milp.Options) (*Result, error) {
			pr := &POPSplitGapProblem{Inst: popLineInstance(t), Partitions: 2, Instantiations: 1,
				Rng: rand.New(rand.NewSource(11)), SplitThreshold: 50, MaxSplits: 1,
				Input: InputConstraints{MaxDemand: 100}}
			return pr.Solve(opts)
		}, "acfe2727ebe918ddd5f111cdedb190f7b27084f5c6add44a787e91c2a3939248"},
		{"dp-resume", func(opts milp.Options) (*Result, error) {
			pr := &DPGapProblem{Inst: figure1Instance(t), Threshold: 50, Input: InputConstraints{MaxDemand: 100}}
			plan, err := faultinject.Parse("deadline:4", 0)
			if err != nil {
				return nil, err
			}
			killed := opts
			killed.Checkpoint = filepath.Join(t.TempDir(), "dp.ckpt")
			killed.Faults = plan
			dead, err := pr.Solve(killed)
			if err != nil {
				return nil, err
			}
			if dead.Solver.Status == milp.StatusOptimal {
				return nil, fmt.Errorf("the search finished before the injected deadline")
			}
			snap, err := checkpoint.Load(killed.Checkpoint)
			if err != nil {
				return nil, err
			}
			return pr.Resume(snap.BnB, opts)
			// A resumed run finishes exactly as the uninterrupted one did.
		}, "09d46eb763fe427a23a416536e0d3572846bbe5f6d875ec49231c3be9d13250f"},
		{"capacity", func(opts milp.Options) (*Result, error) {
			pr := &CapacityGapProblem{Inst: capFigure1Instance(t), Threshold: 50,
				CapLo: []float64{50, 50, 50}, CapHi: []float64{150, 150, 150}}
			return pr.Solve(opts)
		}, "4a05b0f87707e9b805622bc4dbabf5d7bb532e3821e561b43d711d5c6a0789ee"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.solve(milp.Options{MaxNodes: 25})
			if err != nil {
				t.Fatal(err)
			}
			if res.Demands == nil {
				t.Fatalf("no incumbent under the node cap (status %v)", res.Solver.Status)
			}
			if got := resultHash(res); got != tc.want {
				t.Errorf("result hash = %s, want %s (status=%v nodes=%d lp=%d gap=%v)",
					got, tc.want, res.Solver.Status, res.Solver.Nodes, res.Solver.LPSolves, res.Gap)
			}
		})
	}
}
