package lp

// Test-only exports for the external lp_test package. golden_test.go lives
// there because its B4 node LPs are built with mcf and kkt, which import lp
// and therefore cannot be imported from package lp's own tests.
var (
	RandomLP   = randomLP
	FuzzLP     = fuzzLP
	LPFixtures = lpFixtures
)

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
