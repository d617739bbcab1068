package milp

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/lp"
)

// WorkerPanicError is a panic recovered while a node step solved its
// relaxation or ran Polish, converted to a typed error so the search can
// report it (with the best-so-far result) instead of the process dying.
// Wave is the 1-based node step. Value is the recovered panic value; when
// it is an error, Unwrap exposes it (so an injected faultinject panic still
// satisfies errors.Is(err, faultinject.ErrInjected)).
type WorkerPanicError struct {
	Wave  uint64
	Node  uint64
	Value any
	Stack []byte
}

func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("milp: worker panic at wave %d (node %d): %v", e.Wave, e.Node, e.Value)
}

func (e *WorkerPanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// fingerprint hashes everything that determines the explored tree: the
// model's shape (variables, constraints, sense, binaries, pairs) and the
// node order. A checkpoint only resumes a search with the same fingerprint.
// The hash still mixes in a batch size of 1, the node count per step, so
// that serial fingerprints, pinned checkpoints and result-store keys stay
// valid, and a checkpoint from a search that relaxed several nodes per step
// is refused.
func fingerprint(m *Model, depthFirst bool) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	mix := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	mix(uint64(m.P.NumVars()))
	mix(uint64(m.P.NumConstraints()))
	mix(uint64(m.P.Sense()))
	mix(uint64(len(m.binaries)))
	for _, v := range m.binaries {
		mix(uint64(v))
	}
	mix(uint64(len(m.pairs)))
	for _, pr := range m.pairs {
		mix(uint64(pr.U))
		mix(uint64(pr.V))
	}
	const batch = 1
	mix(batch)
	if depthFirst {
		mix(1)
	} else {
		mix(0)
	}
	return h.Sum64()
}

// SearchFingerprint reports the fingerprint Solve(m, opts) would stamp on
// its Result — without solving anything. Callers that key caches or result
// stores by search identity (cmd/gapserved's results store) use this to
// look up a fingerprint before paying for the solve. The hash covers the
// model shape and DepthFirst; WarmStart is deliberately excluded because it
// never changes the explored tree or the answer.
func SearchFingerprint(m *Model, opts Options) uint64 {
	return fingerprint(m, opts.DepthFirst)
}

// frontierOut converts the open-node heap to its wire form, sorted by node
// id so the encoded bytes are canonical regardless of the heap's internal
// array layout. A basis goes out as its shape and columns, which the
// snapshot shares with the immutable lp.Basis.
func frontierOut(h *nodeHeap) []checkpoint.FrontierNode {
	out := make([]checkpoint.FrontierNode, 0, len(h.nodes))
	for _, nd := range h.nodes {
		fn := checkpoint.FrontierNode{ID: nd.id, Bound: nd.bound, Depth: int32(nd.depth)}
		if len(nd.overrides) > 0 {
			fn.Overrides = make([]checkpoint.Override, 0, len(nd.overrides))
			for v, b := range nd.overrides {
				fn.Overrides = append(fn.Overrides, checkpoint.Override{Var: int32(v), Lo: b[0], Hi: b[1]})
			}
			sort.Slice(fn.Overrides, func(i, j int) bool { return fn.Overrides[i].Var < fn.Overrides[j].Var })
		}
		if nd.basis != nil {
			fn.Basis = &checkpoint.Basis{Shape: nd.basis.Shape(), Cols: nd.basis.Cols()}
		}
		out = append(out, fn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// frontierIn reconstructs the open-node heap. The heap's Less is a strict
// total order over (depth, bound, id), so heap.Init over the restored node
// set reproduces the exact pop sequence of the original run — the anchor of
// resume determinism. A basis lp.NewBasis refuses makes the checkpoint
// corrupt: a capture cannot have produced it.
func frontierIn(fr []checkpoint.FrontierNode, depthFirst bool) (*nodeHeap, error) {
	h := &nodeHeap{depthFirst: depthFirst, nodes: make([]*node, 0, len(fr))}
	for _, fn := range fr {
		nd := &node{id: fn.ID, bound: fn.Bound, depth: int(fn.Depth)}
		if len(fn.Overrides) > 0 {
			nd.overrides = make(map[lp.VarID][2]float64, len(fn.Overrides))
			for _, ov := range fn.Overrides {
				nd.overrides[lp.VarID(ov.Var)] = [2]float64{ov.Lo, ov.Hi}
			}
		}
		if fn.Basis != nil {
			b, err := lp.NewBasis(fn.Basis.Shape, fn.Basis.Cols)
			if err != nil {
				return nil, fmt.Errorf("%w: frontier node %d: %w", checkpoint.ErrCorrupt, fn.ID, err)
			}
			nd.basis = b
		}
		h.nodes = append(h.nodes, nd)
	}
	heap.Init(h)
	return h, nil
}

func traceOut(tr []TracePoint) []checkpoint.TracePoint {
	if len(tr) == 0 {
		return nil
	}
	out := make([]checkpoint.TracePoint, len(tr))
	for i, p := range tr {
		out[i] = checkpoint.TracePoint{
			ElapsedNanos: p.Elapsed.Nanoseconds(),
			Objective:    p.Objective,
			Bound:        p.Bound,
			Nodes:        int64(p.Nodes),
			Source:       p.Source,
		}
	}
	return out
}

func traceIn(tr []checkpoint.TracePoint) []TracePoint {
	if len(tr) == 0 {
		return nil
	}
	out := make([]TracePoint, len(tr))
	for i, p := range tr {
		out[i] = TracePoint{
			Elapsed:   time.Duration(p.ElapsedNanos),
			Objective: p.Objective,
			Bound:     p.Bound,
			Nodes:     int(p.Nodes),
			Source:    p.Source,
		}
	}
	return out
}

// Resume continues a branch-and-bound search from a checkpoint written by a
// previous Solve (or Resume) of the same model under the same node order.
// The restored run explores exactly the nodes the uninterrupted run would
// have explored from that step on, so its final incumbent, bound and node
// count are bit-identical to the run that was never killed. opts must carry
// the same DepthFirst (and model) the snapshot was taken under — a
// *checkpoint.MismatchError is returned otherwise; WarmStart may differ
// freely. When opts.TimeLimit is set, the wall clock already consumed
// before the snapshot counts against it.
func Resume(m *Model, st *checkpoint.BnBState, opts Options) (*Result, error) {
	if st == nil {
		return nil, fmt.Errorf("milp: Resume called with a nil state")
	}
	return runSearch(m, opts, st)
}
