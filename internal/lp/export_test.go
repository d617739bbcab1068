package lp

// Test-only exports for the external lp_test package. golden_test.go lives
// there because its B4 node LPs are built with mcf and kkt, which import lp
// and therefore cannot be imported from package lp's own tests.
var (
	RandomLP   = randomLP
	FuzzLP     = fuzzLP
	LPFixtures = lpFixtures

	// FuzzCanonicalExtraction lives in lp_test, next to the B4 node model
	// it is seeded from, and runs the package's extraction referee.
	IndexProblem             = indexProblem
	CheckCanonicalExtraction = checkCanonicalExtraction

	// CheckFreeSlabs requires the occupancy invariant of every released
	// slab, over the layout of the form that released it.
	CheckFreeSlabs = checkFreeSlabs
)

// NumIndexSources is the number of problem sources IndexProblem decodes.
const NumIndexSources = numSources

// IndexSeeds hands each input of FuzzIndexedInstall's seed corpus to add.
func IndexSeeds(add func(src uint8, seed int64, data []byte)) {
	for _, sd := range indexSeeds() {
		add(sd.src, sd.seed, sd.data)
	}
}

// StdShape reports the row and column counts of p's standard form under the
// given bound overrides.
func StdShape(p *Problem, override map[VarID][2]float64) (m, n int, err error) {
	s, err := buildStandard(p, override)
	if err != nil {
		return 0, 0, err
	}
	defer s.release()
	return s.m, s.n, nil
}
