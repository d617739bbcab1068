// Package topology models directed capacitated networks and the path
// machinery the TE formulations need: weighted shortest paths (Dijkstra)
// and loopless k-shortest paths (Yen's algorithm).
//
// It also ships the topologies the paper evaluates on: B4, Abilene, a
// SWAN-like WAN, the Figure-1 example, and the synthetic circle family of
// Figure 4b, plus a few extra shapes (line, star, grid) used in tests.
package topology

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
)

// Node is a node index in [0, NumNodes).
type Node int

// Edge is a directed capacitated link. Weight is the routing metric used by
// shortest-path computations (latency-like); it defaults to 1 per hop.
type Edge struct {
	ID       int
	From, To Node
	Capacity float64
	Weight   float64
}

// Graph is a directed multigraph with capacities. The zero value is not
// usable; construct with New.
type Graph struct {
	name  string
	n     int
	edges []Edge
	out   [][]int // node -> outgoing edge ids
}

// New returns an empty graph with nodes 0..nodes-1.
func New(name string, nodes int) *Graph {
	return &Graph{name: name, n: nodes, out: make([][]int, nodes)}
}

// Name returns the graph's name.
func (g *Graph) Name() string { return g.name }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns edge metadata by id.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// Edges returns all edges. The returned slice must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// AddEdge adds a directed edge with weight 1 and returns its id.
func (g *Graph) AddEdge(from, to Node, capacity float64) int {
	return g.AddEdgeW(from, to, capacity, 1)
}

// AddEdgeW adds a directed edge with an explicit routing weight. NaN,
// infinite or negative capacities panic: they would build an instance no
// flow solver downstream can price.
func (g *Graph) AddEdgeW(from, to Node, capacity, weight float64) int {
	if from < 0 || int(from) >= g.n || to < 0 || int(to) >= g.n {
		panic(fmt.Sprintf("topology: edge %d->%d out of range [0,%d)", from, to, g.n))
	}
	if from == to {
		panic(fmt.Sprintf("topology: self-loop at node %d", from))
	}
	if math.IsNaN(capacity) || math.IsInf(capacity, 0) || capacity < 0 {
		panic(fmt.Sprintf("topology: invalid capacity %g on edge %d->%d (must be finite and >= 0)", capacity, from, to))
	}
	id := len(g.edges)
	g.edges = append(g.edges, Edge{ID: id, From: from, To: to, Capacity: capacity, Weight: weight})
	g.out[from] = append(g.out[from], id)
	return id
}

// AddBiEdge adds a pair of opposite directed edges with the same capacity
// and weight 1, returning both ids.
func (g *Graph) AddBiEdge(a, b Node, capacity float64) (int, int) {
	return g.AddEdge(a, b, capacity), g.AddEdge(b, a, capacity)
}

// WithCapacities returns a copy of the graph carrying the given per-edge
// capacities (same nodes, edge ids, and weights). Used by the gap finder's
// Section-5 extension that searches over topology changes.
func (g *Graph) WithCapacities(caps []float64) *Graph {
	if len(caps) != len(g.edges) {
		panic(fmt.Sprintf("topology: %d capacities for %d edges", len(caps), len(g.edges)))
	}
	ng := &Graph{name: g.name, n: g.n, out: g.out}
	ng.edges = append([]Edge(nil), g.edges...)
	for i := range ng.edges {
		if math.IsNaN(caps[i]) || math.IsInf(caps[i], 0) || caps[i] < 0 {
			panic(fmt.Sprintf("topology: invalid capacity %g on edge %d (must be finite and >= 0)", caps[i], i))
		}
		ng.edges[i].Capacity = caps[i]
	}
	return ng
}

// TotalCapacity returns the sum of all directed edge capacities — the
// normalizer used by the paper's Figure 3 ("difference in carried demand
// divided by the sum of edge capacities").
func (g *Graph) TotalCapacity() float64 {
	s := 0.0
	for _, e := range g.edges {
		s += e.Capacity
	}
	return s
}

// MinCapacity returns the smallest edge capacity (useful for thresholds
// quoted as "x% of link capacity").
func (g *Graph) MinCapacity() float64 {
	m := math.Inf(1)
	for _, e := range g.edges {
		if e.Capacity < m {
			m = e.Capacity
		}
	}
	return m
}

// Path is a sequence of edge ids forming a walk from a source to a target.
type Path struct {
	Edges []int
}

// Nodes expands the path into its node sequence.
func (p Path) Nodes(g *Graph) []Node {
	if len(p.Edges) == 0 {
		return nil
	}
	nodes := []Node{g.edges[p.Edges[0]].From}
	for _, id := range p.Edges {
		nodes = append(nodes, g.edges[id].To)
	}
	return nodes
}

// Weight sums the routing weights along the path.
func (p Path) Weight(g *Graph) float64 {
	w := 0.0
	for _, id := range p.Edges {
		w += g.edges[id].Weight
	}
	return w
}

// Hops returns the number of edges in the path.
func (p Path) Hops() int { return len(p.Edges) }

// Contains reports whether the path uses the given edge id.
func (p Path) Contains(edge int) bool {
	for _, id := range p.Edges {
		if id == edge {
			return true
		}
	}
	return false
}

// Equal reports whether two paths use the same edge sequence.
func (p Path) Equal(q Path) bool {
	if len(p.Edges) != len(q.Edges) {
		return false
	}
	for i := range p.Edges {
		if p.Edges[i] != q.Edges[i] {
			return false
		}
	}
	return true
}

// String renders the path as "a->b->c (edges ...)".
func (p Path) String() string { return fmt.Sprintf("path%v", p.Edges) }

type pqItem struct {
	node Node
	dist float64
}

type pq []pqItem

func (q pq) Len() int           { return len(q) }
func (q pq) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// ShortestPath returns a minimum-weight path from s to t, or ok=false when t
// is unreachable. Ties are broken toward fewer hops and then lower edge ids,
// making the result deterministic.
func (g *Graph) ShortestPath(s, t Node) (Path, bool) {
	return g.shortestPathAvoiding(s, t, nil, nil)
}

// shortestPathAvoiding runs Dijkstra while treating banned edges and nodes
// (other than s itself) as removed. Used by Yen's algorithm.
func (g *Graph) shortestPathAvoiding(s, t Node, bannedEdges map[int]bool, bannedNodes map[Node]bool) (Path, bool) {
	const inf = math.MaxFloat64
	dist := make([]float64, g.n)
	hops := make([]int, g.n)
	prevEdge := make([]int, g.n)
	done := make([]bool, g.n)
	for i := range dist {
		dist[i] = inf
		prevEdge[i] = -1
	}
	dist[s] = 0
	q := &pq{{node: s}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		if u == t {
			break
		}
		for _, id := range g.out[u] {
			if bannedEdges[id] {
				continue
			}
			e := g.edges[id]
			if bannedNodes[e.To] {
				continue
			}
			nd := dist[u] + e.Weight
			nh := hops[u] + 1
			v := e.To
			better := nd < dist[v]
			//gapvet:allow floateq exact tie detection picks between equal-weight paths deterministically (fewer hops, lower edge id)
			if !better && nd == dist[v] {
				if nh < hops[v] || (nh == hops[v] && prevEdge[v] > id) {
					better = true
				}
			}
			if better {
				dist[v] = nd
				hops[v] = nh
				prevEdge[v] = id
				heap.Push(q, pqItem{node: v, dist: nd})
			}
		}
	}
	if prevEdge[t] == -1 {
		return Path{}, false
	}
	var rev []int
	for v := t; v != s; {
		id := prevEdge[v]
		rev = append(rev, id)
		v = g.edges[id].From
	}
	edges := make([]int, len(rev))
	for i := range rev {
		edges[i] = rev[len(rev)-1-i]
	}
	return Path{Edges: edges}, true
}

// Reachable reports which nodes ShortestPath(s, ·) finds a path to, by one
// breadth-first search over the out-edges instead of a Dijkstra run per
// target. Like ShortestPath it ignores edges of NaN or +Inf weight, and
// reach[s] is false: a node is never its own target.
func (g *Graph) Reachable(s Node) []bool {
	reach := make([]bool, g.n)
	queue := []Node{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, id := range g.out[u] {
			e := g.edges[id]
			if v := e.To; !reach[v] && v != s && e.Weight < math.Inf(1) {
				reach[v] = true
				queue = append(queue, v)
			}
		}
	}
	return reach
}

// KShortestPaths returns up to k loopless minimum-weight paths from s to t in
// nondecreasing weight order (Yen's algorithm). The first entry, when
// present, is the shortest path that DemandPinning pins to.
func (g *Graph) KShortestPaths(s, t Node, k int) []Path {
	if k <= 0 || s == t {
		return nil
	}
	first, ok := g.ShortestPath(s, t)
	if !ok {
		return nil
	}
	paths := []Path{first}
	var candidates []Path
	for len(paths) < k {
		prev := paths[len(paths)-1]
		prevNodes := prev.Nodes(g)
		for i := 0; i < len(prev.Edges); i++ {
			spurNode := prevNodes[i]
			rootEdges := prev.Edges[:i]
			bannedEdges := map[int]bool{}
			for _, p := range paths {
				if len(p.Edges) > i && samePrefix(p.Edges[:i], rootEdges) {
					bannedEdges[p.Edges[i]] = true
				}
			}
			bannedNodes := map[Node]bool{}
			for _, nd := range prevNodes[:i] {
				bannedNodes[nd] = true
			}
			spur, ok := g.shortestPathAvoiding(spurNode, t, bannedEdges, bannedNodes)
			if !ok {
				continue
			}
			total := Path{Edges: append(append([]int{}, rootEdges...), spur.Edges...)}
			if !containsPath(paths, total) && !containsPath(candidates, total) {
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(a, b int) bool {
			wa, wb := candidates[a].Weight(g), candidates[b].Weight(g)
			//gapvet:allow floateq Yen comparator: exact weight ties fall through to the deterministic edge-sequence order
			if wa != wb {
				return wa < wb
			}
			if len(candidates[a].Edges) != len(candidates[b].Edges) {
				return len(candidates[a].Edges) < len(candidates[b].Edges)
			}
			return lessEdgeSeq(candidates[a].Edges, candidates[b].Edges)
		})
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths
}

func samePrefix(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsPath(list []Path, p Path) bool {
	for _, q := range list {
		if q.Equal(p) {
			return true
		}
	}
	return false
}

func lessEdgeSeq(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// AvgShortestPathLen returns the mean weight of shortest paths over all
// ordered reachable pairs — the x-axis of the paper's Figure 4b.
func (g *Graph) AvgShortestPathLen() float64 {
	total, count := 0.0, 0
	for s := 0; s < g.n; s++ {
		for t := 0; t < g.n; t++ {
			if s == t {
				continue
			}
			if p, ok := g.ShortestPath(Node(s), Node(t)); ok {
				total += p.Weight(g)
				count++
			}
		}
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}
