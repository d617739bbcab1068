package lp_test

import (
	"sync"
	"testing"

	"repro/internal/lp"
	"repro/internal/milp"
)

// srcB4Node is FuzzCanonicalExtraction's problem source past the ones
// lp.IndexProblem decodes: a node LP of the B4 smoke model.
const srcB4Node = lp.NumIndexSources

// b4Nodes caches the B4 smoke model and the bound overrides of the nodes on
// its depth-first dive (the root first), as b4Chain walks them.
var b4Nodes struct {
	once  sync.Once
	model *milp.Model
	ovs   []map[lp.VarID][2]float64
}

// b4Node returns the B4 smoke model's LP and the overrides of the node at
// depth%len(dive) on its dive.
func b4Node(t *testing.T, depth int64) (*lp.Problem, map[lp.VarID][2]float64) {
	b4Nodes.once.Do(func() {
		m := b4NodeModel(t)
		ov := map[lp.VarID][2]float64{}
		b4Nodes.model, b4Nodes.ovs = m, []map[lp.VarID][2]float64{ov}
		sol, err := m.P.SolveWith(lp.SolveOptions{})
		for d := 0; d < 6 && err == nil && sol.Status == lp.StatusOptimal; d++ {
			fixes, ok := b4Branch(m, sol.X)
			if !ok {
				return
			}
			for _, fix := range fixes {
				child := withFix(ov, fix)
				if sol, err = m.P.SolveWith(lp.SolveOptions{BoundOverride: child}); err == nil && sol.Status == lp.StatusOptimal {
					ov = child
					b4Nodes.ovs = append(b4Nodes.ovs, ov)
					break
				}
			}
		}
	})
	k := int(uint64(depth) % uint64(len(b4Nodes.ovs)))
	return b4Nodes.model.P, b4Nodes.ovs[k]
}

// FuzzCanonicalExtraction is the referee of finishSolution's eta-file
// extraction: for a problem (FuzzIndexedInstall's sources, or a node LP on
// the B4 smoke model's dive) it extracts a byte-picked support and the
// supports of the problem's optimal basis and of a branched child, and
// requires the same basis, right-hand side and objective, bit for bit, as a
// dense Gauss-Jordan install on a freshly built form — and the same refusal
// of singular, repeated or out-of-range supports.
func FuzzCanonicalExtraction(f *testing.F) {
	lp.IndexSeeds(func(src uint8, seed int64, data []byte) { f.Add(src, seed, data) })
	for d := range 7 {
		f.Add(uint8(srcB4Node), int64(d), []byte{byte(17 * d), 3, 1, 4, 1, 5, 9, 2, 6})
	}
	f.Fuzz(func(t *testing.T, src uint8, seed int64, data []byte) {
		if src%(srcB4Node+1) == srcB4Node {
			p, ov := b4Node(t, seed)
			lp.CheckCanonicalExtraction(t, p, ov, data)
			return
		}
		p, ok := lp.IndexProblem(src, seed, data)
		if !ok {
			return
		}
		lp.CheckCanonicalExtraction(t, p, nil, data)
	})
}
