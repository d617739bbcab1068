package lp_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
)

// sameAnswer reports whether two solutions agree bit for bit on Status,
// Objective and X.
func sameAnswer(a, b *lp.Solution) bool {
	if a.Status != b.Status || math.Float64bits(a.Objective) != math.Float64bits(b.Objective) ||
		len(a.X) != len(b.X) {
		return false
	}
	for j := range a.X {
		if math.Float64bits(a.X[j]) != math.Float64bits(b.X[j]) {
			return false
		}
	}
	return true
}

// diveChecker solves children three ways — cold, warm-started by an
// install, and dived on the parent's terminal tableau — and requires the
// three answers to agree bitwise.
type diveChecker struct {
	t     *testing.T
	dives int
}

// child solves p under the child overrides from the parent whose terminal
// form the handle d holds, captured as parent, and returns the dived
// solution (the handle then holds the child's form when it was optimal).
func (c *diveChecker) child(what string, p *lp.Problem, d *lp.Dive, parent *lp.Solution,
	child map[lp.VarID][2]float64) *lp.Solution {
	c.t.Helper()
	cold, err := p.SolveWith(lp.SolveOptions{BoundOverride: child})
	if err != nil {
		c.t.Fatalf("%s cold: %v", what, err)
	}
	inst, err := p.SolveWith(lp.SolveOptions{BoundOverride: child, WarmStart: parent.Basis})
	if err != nil {
		c.t.Fatalf("%s installed: %v", what, err)
	}
	dived, err := p.SolveWith(lp.SolveOptions{BoundOverride: child, WarmStart: parent.Basis,
		Dive: d, CaptureBasis: true})
	if err != nil {
		c.t.Fatalf("%s dived: %v", what, err)
	}
	if !sameAnswer(cold, inst) || !sameAnswer(cold, dived) {
		c.t.Fatalf("%s: answers differ:\n cold      %v x=%v\n installed %v x=%v (warm=%v)\n dived     %v x=%v (dived=%v)",
			what, cold, cold.X, inst, inst.X, inst.Warm, dived, dived.X, dived.Dived)
	}
	if dived.Dived {
		c.dives++
	}
	return dived
}

// TestDiveMatchesInstall is the referee of live-tableau dives: a child
// solved on its parent's terminal tableau, moved onto the child's bounds in
// place, reports the same Status, Objective and X bit for bit as the child
// installed from the parent's basis and as the child solved cold. It runs
// down the B4 node chain of the smoke search, and down chains of random
// bound changes on random LPs, each child diving on the previous one.
func TestDiveMatchesInstall(t *testing.T) {
	c := &diveChecker{t: t}

	mod := b4NodeModel(t)
	d := new(lp.Dive)
	defer d.Release()
	ov := map[lp.VarID][2]float64{}
	parent, err := mod.P.SolveWith(lp.SolveOptions{CaptureBasis: true, Dive: d})
	if err != nil {
		t.Fatal(err)
	}
	b4 := 0
	for depth := 0; depth < 12 && parent.Status == lp.StatusOptimal; depth++ {
		fixes, ok := b4Branch(mod, parent.X)
		if !ok {
			break
		}
		var next *lp.Solution
		for k, fix := range fixes {
			child := withFix(ov, fix)
			if k > 0 {
				// The first child took the handle; solve the parent into it
				// again so the sibling dives too.
				if parent, err = mod.P.SolveWith(lp.SolveOptions{BoundOverride: ov,
					CaptureBasis: true, Dive: d}); err != nil {
					t.Fatal(err)
				}
			}
			sol := c.child(fmt.Sprintf("b4 depth %d child %d", depth, k), mod.P, d, parent, child)
			b4++
			if sol.Status == lp.StatusOptimal {
				next, ov = sol, child
				break
			}
		}
		if next == nil {
			break
		}
		parent = next
	}
	if b4 < 6 || c.dives < b4/2 {
		t.Fatalf("B4 chain: %d dives in %d children, want most of at least 6", c.dives, b4)
	}

	c.dives = 0
	children := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, _ := lp.RandomLP(rng, 4+rng.Intn(40), 3+rng.Intn(30))
		d := new(lp.Dive)
		parent, err := p.SolveWith(lp.SolveOptions{CaptureBasis: true, Dive: d})
		if err != nil {
			t.Fatal(err)
		}
		ov := map[lp.VarID][2]float64{}
		for depth := 0; depth < 8 && parent.Status == lp.StatusOptimal; depth++ {
			child := make(map[lp.VarID][2]float64, len(ov)+1)
			for v, b := range ov {
				child[v] = b
			}
			// One random bound change: fix a variable at its relaxation
			// value or at an endpoint, or tighten one side.
			v := lp.VarID(rng.Intn(p.NumVars()))
			lo, hi := p.Bounds(v)
			if b, ok := child[v]; ok {
				lo, hi = b[0], b[1]
			}
			switch x := min(max(parent.X[v], lo), hi); rng.Intn(4) {
			case 0:
				child[v] = [2]float64{x, x}
			case 1:
				child[v] = [2]float64{lo, lo}
			case 2:
				child[v] = [2]float64{lo, lo + (x-lo)*rng.Float64()}
			default:
				child[v] = [2]float64{x + (hi-x)*rng.Float64(), hi}
			}
			parent = c.child(fmt.Sprintf("random seed %d depth %d", seed, depth), p, d, parent, child)
			ov = child
			children++
		}
		d.Release()
	}
	if c.dives < children/2 {
		t.Fatalf("random chains: %d dives in %d children, want at least half", c.dives, children)
	}
	t.Logf("random chains: %d of %d children dived", c.dives, children)
}
