package demand

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func TestAllPairsCount(t *testing.T) {
	g := topology.Line(4)
	s := AllPairs(g)
	if s.Len() != 12 {
		t.Fatalf("len=%d, want 12", s.Len())
	}
	seen := map[Pair]bool{}
	for _, p := range s.Pairs() {
		if p.Src == p.Dst {
			t.Fatalf("degenerate pair %v", p)
		}
		if seen[p] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[p] = true
	}
}

func TestNewSetPanics(t *testing.T) {
	for _, pairs := range [][]Pair{
		{{0, 0}},
		{{0, 1}, {0, 1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			NewSet(pairs)
		}()
	}
}

func TestVolumesRoundTrip(t *testing.T) {
	s := NewSet([]Pair{{0, 1}, {1, 2}})
	s.SetVolumes([]float64{3, 4})
	if s.Volume(0) != 3 || s.Volume(1) != 4 || s.Total() != 7 {
		t.Fatalf("volumes broken: %v", s.Volumes())
	}
	s.SetVolume(0, 5)
	if s.Total() != 9 {
		t.Fatalf("SetVolume broken")
	}
	cp := s.CopyVolumes()
	cp[0] = 99
	if s.Volume(0) == 99 {
		t.Fatal("CopyVolumes aliases")
	}
	c := s.Clone()
	c.SetVolume(1, 0)
	if s.Volume(1) != 4 {
		t.Fatal("Clone aliases")
	}
	w := s.WithVolumes([]float64{1, 1})
	if w.Total() != 2 || s.Total() != 9 {
		t.Fatal("WithVolumes wrong")
	}
}

func TestSetVolumesValidates(t *testing.T) {
	s := NewSet([]Pair{{0, 1}})
	for _, fn := range []func(){
		func() { s.SetVolumes([]float64{1, 2}) },
		func() { s.SetVolumes([]float64{-1}) },
		func() { s.SetVolume(0, -2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestUniformWithinRange(t *testing.T) {
	g := topology.Circle(6, 1)
	s := AllPairs(g)
	rng := rand.New(rand.NewSource(1))
	s.Uniform(rng, 2, 9)
	for _, v := range s.Volumes() {
		if v < 2 || v > 9 {
			t.Fatalf("volume %v out of [2,9]", v)
		}
	}
	if s.MaxVolume() > 9 {
		t.Fatalf("max=%v", s.MaxVolume())
	}
}

func TestGravityScalesToPeak(t *testing.T) {
	g := topology.B4()
	s := AllPairs(g)
	rng := rand.New(rand.NewSource(2))
	s.Gravity(rng, g, 50)
	if max := s.MaxVolume(); max < 49.999 || max > 50.001 {
		t.Fatalf("peak=%v, want 50", max)
	}
	for _, v := range s.Volumes() {
		if v <= 0 {
			t.Fatalf("gravity volume %v not positive", v)
		}
	}
}

func TestRandomPairsDistinct(t *testing.T) {
	g := topology.B4()
	rng := rand.New(rand.NewSource(3))
	s := RandomPairs(g, 10, rng)
	if s.Len() != 10 {
		t.Fatalf("len=%d", s.Len())
	}
	// Asking for more than available clamps.
	s2 := RandomPairs(topology.Line(3), 100, rng)
	if s2.Len() != 6 {
		t.Fatalf("clamped len=%d, want 6", s2.Len())
	}
}

func TestQuickTotalMatchesSum(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := topology.Circle(5+rng.Intn(4), 1)
		s := AllPairs(g)
		s.Uniform(rng, 0, 10)
		sum := 0.0
		for k := 0; k < s.Len(); k++ {
			sum += s.Volume(k)
		}
		return sum == s.Total()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReachablePairsDirected(t *testing.T) {
	// Figure 1 is directed with edges 0->1, 1->2, 0->2: exactly three
	// reachable ordered pairs.
	g := topology.Figure1()
	s := ReachablePairs(g)
	if s.Len() != 3 {
		t.Fatalf("len=%d, want 3 (directed reachability)", s.Len())
	}
	rng := rand.New(rand.NewSource(4))
	rp := RandomPairs(g, 10, rng)
	if rp.Len() != 3 {
		t.Fatalf("RandomPairs sampled unreachable pairs: %v", rp.Pairs())
	}
}

// dijkstraPairs is ReachablePairs' definition: every ordered pair s != d
// for which ShortestPath(s, d) finds a path, in source-major order.
func dijkstraPairs(g *topology.Graph) []Pair {
	var pairs []Pair
	for s := 0; s < g.NumNodes(); s++ {
		for d := 0; d < g.NumNodes(); d++ {
			if _, ok := g.ShortestPath(topology.Node(s), topology.Node(d)); s != d && ok {
				pairs = append(pairs, Pair{topology.Node(s), topology.Node(d)})
			}
		}
	}
	return pairs
}

// TestReachablePairsMatchesDijkstra: the breadth-first ReachablePairs
// returns the Dijkstra definition's pairs in the same order — on B4, on
// Figure 1 and on sparse random directed graphs with unreachable nodes,
// isolated ones and edges of infinite or NaN weight — so RandomPairs draws
// the same picks from the same rng.
func TestReachablePairsMatchesDijkstra(t *testing.T) {
	graphs := []*topology.Graph{topology.B4(), topology.Figure1()}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		n := 2 + rng.Intn(9)
		g := topology.New("random", n)
		for e := rng.Intn(2 * n); e > 0; e-- {
			w := 0.5 + rng.Float64()
			if rng.Intn(8) == 0 { // an edge ShortestPath cannot use, or one it can
				w = []float64{math.Inf(1), math.NaN(), math.Inf(-1)}[rng.Intn(3)]
			}
			if a, b := rng.Intn(n), rng.Intn(n); a != b {
				g.AddEdgeW(topology.Node(a), topology.Node(b), 10, w)
			}
		}
		graphs = append(graphs, g)
	}
	unreachable := 0
	for i, g := range graphs {
		want := dijkstraPairs(g)
		got := ReachablePairs(g).Pairs()
		if len(got) != len(want) {
			t.Fatalf("graph %d: %d pairs, Dijkstra %d", i, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("graph %d: pair %d is %v, Dijkstra %v", i, k, got[k], want[k])
			}
		}
		unreachable += g.NumNodes()*(g.NumNodes()-1) - len(want)
		if len(want) == 0 {
			continue
		}
		k := 1 + rng.Intn(len(want))
		seed := rng.Int63()
		picked := RandomPairs(g, k, rand.New(rand.NewSource(seed))).Pairs()
		ref := rand.New(rand.NewSource(seed))
		ref.Shuffle(len(want), func(a, b int) { want[a], want[b] = want[b], want[a] })
		for n := range picked {
			if picked[n] != want[n] {
				t.Fatalf("graph %d: RandomPairs pick %d is %v, the Dijkstra list's shuffle gives %v", i, n, picked[n], want[n])
			}
		}
	}
	if unreachable == 0 {
		t.Fatal("no graph had an unreachable pair; the random graphs show nothing")
	}
}
