package lp_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/lp"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_bitwise.txt from the current solver")

const goldenPath = "testdata/golden_bitwise.txt"

// goldenRecorder folds every solve of one corpus case into a SHA-256: the
// status, the effort counters, the warm-path flags, and the exact bits of X,
// Objective and Dual. Dual entries are hashed as d + 0, which maps -0 to +0:
// the sign of a zero dual depends on whether the kernel touched an
// all-zero tableau entry, and is not part of the answer.
type goldenRecorder struct{ h hash.Hash }

func (r *goldenRecorder) solve(p *lp.Problem, opts lp.SolveOptions) *lp.Solution {
	sol, err := p.SolveWith(opts)
	if err != nil {
		fmt.Fprintf(r.h, "error %v\n", err)
		return nil
	}
	fmt.Fprintf(r.h, "%d %d %d %d %t %t x", sol.Status, sol.Iterations, sol.Phase1Iterations,
		sol.DegeneratePivots, sol.Warm, sol.WarmFallback)
	for _, x := range sol.X {
		fmt.Fprintf(r.h, " %016x", math.Float64bits(x))
	}
	fmt.Fprintf(r.h, " obj %016x dual", math.Float64bits(sol.Objective))
	for _, d := range sol.Dual {
		fmt.Fprintf(r.h, " %016x", math.Float64bits(d+0))
	}
	fmt.Fprintln(r.h)
	return sol
}

// smallLP runs the generator-LP protocol: cold, presolved, and captured
// solves, then two branch-and-bound style children (one variable fixed at
// its optimal value and at its floor), each solved cold and warm-started
// from the captured basis.
func (r *goldenRecorder) smallLP(p *lp.Problem, eng lp.Engine, pick int) {
	r.solve(p, lp.SolveOptions{Engine: eng})
	r.solve(p, lp.SolveOptions{Engine: eng, Presolve: true})
	capt := r.solve(p, lp.SolveOptions{Engine: eng, CaptureBasis: true})
	if capt == nil || capt.Status != lp.StatusOptimal {
		return
	}
	v := lp.VarID(pick % p.NumVars())
	for _, val := range []float64{capt.X[v], math.Floor(capt.X[v])} {
		ov := map[lp.VarID][2]float64{v: {val, val}}
		r.solve(p, lp.SolveOptions{Engine: eng, BoundOverride: ov})
		r.solve(p, lp.SolveOptions{Engine: eng, BoundOverride: ov, WarmStart: capt.Basis})
	}
}

// b4Chain dives down the B4 smoke model the way a depth-first warm-started
// search does: each node is solved cold and warm-started from its parent's
// captured basis, and the first child with an optimal relaxation becomes the
// next parent.
func (r *goldenRecorder) b4Chain(t *testing.T, eng lp.Engine) {
	m := b4NodeModel(t)
	parent := r.solve(m.P, lp.SolveOptions{Engine: eng, CaptureBasis: true})
	ov := map[lp.VarID][2]float64{}
	for depth := 0; depth < 10 && parent != nil && parent.Status == lp.StatusOptimal; depth++ {
		fixes, ok := b4Branch(m, parent.X)
		if !ok {
			return
		}
		var next *lp.Solution
		for _, fix := range fixes {
			child := withFix(ov, fix)
			r.solve(m.P, lp.SolveOptions{Engine: eng, BoundOverride: child})
			sol := r.solve(m.P, lp.SolveOptions{Engine: eng, BoundOverride: child,
				WarmStart: parent.Basis, CaptureBasis: true})
			if sol != nil && sol.Status == lp.StatusOptimal {
				next, ov = sol, child
				break
			}
		}
		parent = next
	}
}

// goldenCases computes one hash per corpus case: the differential fixture
// table, the property-test and fuzz generators, and the B4 node-LP chain,
// each on both engines.
func goldenCases(t *testing.T) map[string]string {
	out := map[string]string{}
	for _, eng := range []lp.Engine{lp.EngineDense, lp.EngineSparse} {
		run := func(name string, body func(r *goldenRecorder)) {
			r := &goldenRecorder{h: sha256.New()}
			body(r)
			out[fmt.Sprintf("%s/%v", name, eng)] = hex.EncodeToString(r.h.Sum(nil))
		}
		fixtures := lp.LPFixtures()
		for name, build := range fixtures {
			run("fixture/"+name, func(r *goldenRecorder) { r.smallLP(build(), eng, 0) })
		}
		run("random", func(r *goldenRecorder) {
			for seed := int64(0); seed < 120; seed++ {
				rng := rand.New(rand.NewSource(seed))
				p, _ := lp.RandomLP(rng, 1+rng.Intn(12), 1+rng.Intn(12))
				r.smallLP(p, eng, int(seed))
			}
		})
		run("fuzz", func(r *goldenRecorder) {
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 120; i++ {
				data := make([]byte, 4+rng.Intn(40))
				for k := range data {
					data[k] = byte(rng.Intn(256))
				}
				if p, _, ok := lp.FuzzLP(data); ok {
					r.smallLP(p, eng, int(data[0]))
				}
			}
		})
		run("b4-chain", func(r *goldenRecorder) { r.b4Chain(t, eng) })
	}
	return out
}

// TestGoldenBitwise is the bitwise referee for kernel changes: it pins the
// exact status, pivot counts, warm-path flags, X, Objective and (zero-sign
// normalised) Dual of a seeded corpus, cold, warm-started and presolved.
// Any change to pivot order, tolerances, extraction or arithmetic order
// shows up as a hash mismatch. Regenerate with -update-golden only when a
// change is meant to alter answers.
func TestGoldenBitwise(t *testing.T) {
	got := goldenCases(t)
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	if *updateGolden {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update-golden)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, h, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = h
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		switch h, ok := want[name]; {
		case !ok:
			t.Errorf("%s: not in %s", name, goldenPath)
		case h != got[name]:
			t.Errorf("%s: hash %s, golden %s", name, got[name], h)
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d cases, corpus has %d", goldenPath, len(want), len(got))
	}
}
