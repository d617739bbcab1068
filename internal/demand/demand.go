// Package demand models traffic demands between node pairs and provides
// the synthetic generators (uniform, gravity) that stand in for the
// historically observed demands the paper uses as goalposts.
package demand

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/topology"
)

// Pair is an ordered source/target node pair.
type Pair struct {
	Src, Dst topology.Node
}

func (p Pair) String() string { return fmt.Sprintf("%d->%d", p.Src, p.Dst) }

// Set is an ordered collection of demands: pairs plus volumes. The k-th
// element corresponds to demand k throughout the repository (flow variables,
// adversarial demand vectors, goalposts all index by this order).
type Set struct {
	pairs   []Pair
	volumes []float64
}

// NewSet builds a set over the given pairs with zero volumes. Duplicate or
// degenerate (src == dst) pairs panic: they would create ill-posed TE
// instances.
func NewSet(pairs []Pair) *Set {
	seen := make(map[Pair]bool, len(pairs))
	for _, p := range pairs {
		if p.Src == p.Dst {
			panic(fmt.Sprintf("demand: degenerate pair %v", p))
		}
		if seen[p] {
			panic(fmt.Sprintf("demand: duplicate pair %v", p))
		}
		seen[p] = true
	}
	return &Set{pairs: append([]Pair(nil), pairs...), volumes: make([]float64, len(pairs))}
}

// VolumeError reports a demand volume that cannot enter a TE instance:
// NaN, infinite, or negative. It is the typed rejection the constructors
// return (and the setters panic with) so callers can distinguish bad input
// from solver failures.
type VolumeError struct {
	Index int // demand index, -1 when not applicable
	Value float64
}

func (e *VolumeError) Error() string {
	if e.Index < 0 {
		return fmt.Sprintf("demand: invalid volume %g (must be finite and >= 0)", e.Value)
	}
	return fmt.Sprintf("demand: invalid volume %g at demand %d (must be finite and >= 0)", e.Value, e.Index)
}

// validVolume rejects NaN, ±Inf and negative volumes.
func validVolume(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0 }

// ValidateVolumes returns a *VolumeError for the first volume that is NaN,
// infinite or negative, or nil when all are usable.
func ValidateVolumes(v []float64) error {
	for i, x := range v {
		if !validVolume(x) {
			return &VolumeError{Index: i, Value: x}
		}
	}
	return nil
}

// NewSetWithVolumes builds a set over the given pairs carrying the given
// volumes — the error-returning constructor for externally supplied (file,
// flag, or search-generated) volumes, where a panic would be the wrong
// failure mode. Pair validation panics exactly as NewSet does; volume
// validation returns a typed *VolumeError.
func NewSetWithVolumes(pairs []Pair, volumes []float64) (*Set, error) {
	if len(volumes) != len(pairs) {
		return nil, fmt.Errorf("demand: %d volumes for %d pairs", len(volumes), len(pairs))
	}
	if err := ValidateVolumes(volumes); err != nil {
		return nil, err
	}
	s := NewSet(pairs)
	copy(s.volumes, volumes)
	return s, nil
}

// AllPairs returns the set of all ordered node pairs of g — the demand
// structure of the paper's TE instances (|D| quadratic in |V|).
func AllPairs(g *topology.Graph) *Set {
	var pairs []Pair
	n := g.NumNodes()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				pairs = append(pairs, Pair{topology.Node(s), topology.Node(d)})
			}
		}
	}
	return NewSet(pairs)
}

// ReachablePairs returns the ordered node pairs of g that have at least one
// path — on directed topologies a strict subset of AllPairs.
func ReachablePairs(g *topology.Graph) *Set { return NewSet(reachablePairs(g)) }

// reachablePairs lists ReachablePairs' pairs in source-major order.
func reachablePairs(g *topology.Graph) []Pair {
	var pairs []Pair
	n := g.NumNodes()
	for s := 0; s < n; s++ {
		reach := g.Reachable(topology.Node(s))
		for d := 0; d < n; d++ {
			if reach[d] {
				pairs = append(pairs, Pair{topology.Node(s), topology.Node(d)})
			}
		}
	}
	return pairs
}

// RandomPairs returns a set of k distinct ordered *reachable* pairs drawn
// uniformly without replacement — the demand-support restriction used to
// scale the meta optimization down to sizes our solver handles.
func RandomPairs(g *topology.Graph, k int, rng *rand.Rand) *Set {
	all := reachablePairs(g)
	if k > len(all) {
		k = len(all)
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	picked := append([]Pair(nil), all[:k]...)
	return NewSet(picked)
}

// Len returns the number of demands.
func (s *Set) Len() int { return len(s.pairs) }

// Pair returns the k-th pair.
func (s *Set) Pair(k int) Pair { return s.pairs[k] }

// Pairs returns all pairs. The returned slice must not be modified.
func (s *Set) Pairs() []Pair { return s.pairs }

// Volume returns the volume of demand k.
func (s *Set) Volume(k int) float64 { return s.volumes[k] }

// Volumes returns the volume vector. The returned slice aliases the set;
// use CopyVolumes for a private copy.
func (s *Set) Volumes() []float64 { return s.volumes }

// CopyVolumes returns a fresh copy of the volume vector.
func (s *Set) CopyVolumes() []float64 { return append([]float64(nil), s.volumes...) }

// SetVolumes replaces all volumes; the length must match Len. NaN, infinite
// or negative volumes panic with a *VolumeError (use NewSetWithVolumes or
// ValidateVolumes for an error-returning path).
func (s *Set) SetVolumes(v []float64) {
	s.CheckVolumes(v)
	copy(s.volumes, v)
}

// CheckVolumes panics exactly as SetVolumes and WithVolumes do when v
// cannot be this set's volume vector, without copying anything: for a
// wrong length, and with a *VolumeError for a NaN, infinite or negative
// volume.
func (s *Set) CheckVolumes(v []float64) {
	if len(v) != len(s.pairs) {
		panic(fmt.Sprintf("demand: %d volumes for %d pairs", len(v), len(s.pairs)))
	}
	if err := ValidateVolumes(v); err != nil {
		panic(err)
	}
}

// SetVolume sets a single demand's volume. NaN, infinite or negative
// volumes panic with a *VolumeError.
func (s *Set) SetVolume(k int, v float64) {
	if !validVolume(v) {
		panic(&VolumeError{Index: k, Value: v})
	}
	s.volumes[k] = v
}

// Total returns the sum of volumes.
func (s *Set) Total() float64 {
	t := 0.0
	for _, v := range s.volumes {
		t += v
	}
	return t
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	c := NewSet(s.pairs)
	copy(c.volumes, s.volumes)
	return c
}

// WithVolumes returns a clone carrying the given volumes.
func (s *Set) WithVolumes(v []float64) *Set {
	c := s.Clone()
	c.SetVolumes(v)
	return c
}

// Uniform fills volumes i.i.d. uniformly in [lo, hi].
func (s *Set) Uniform(rng *rand.Rand, lo, hi float64) {
	for i := range s.volumes {
		s.volumes[i] = lo + rng.Float64()*(hi-lo)
	}
}

// Gravity fills volumes with a gravity model: each node gets a random mass
// in [0.5, 1.5], d(s,t) is proportional to mass(s)*mass(t), and the whole
// vector is scaled so the largest demand equals peak. This is the standard
// public stand-in for proprietary WAN traffic matrices.
func (s *Set) Gravity(rng *rand.Rand, g *topology.Graph, peak float64) {
	mass := make([]float64, g.NumNodes())
	for i := range mass {
		mass[i] = 0.5 + rng.Float64()
	}
	maxV := 0.0
	for i, p := range s.pairs {
		v := mass[p.Src] * mass[p.Dst]
		s.volumes[i] = v
		if v > maxV {
			maxV = v
		}
	}
	if maxV == 0 {
		return
	}
	for i := range s.volumes {
		s.volumes[i] *= peak / maxV
	}
}

// MaxVolume returns the largest volume in the set.
func (s *Set) MaxVolume() float64 {
	m := 0.0
	for _, v := range s.volumes {
		if v > m {
			m = v
		}
	}
	return m
}
