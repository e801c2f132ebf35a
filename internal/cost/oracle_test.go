package cost

// References the tests check the cost model against: the exhaustive
// probe-set search behind OptimalProbe's bound, and the full method
// ranking behind Best.

// ExhaustiveOptimalProbe searches all nonempty probe sets, the reference
// for OptimalProbe's Theorem 5.3 bound.
func (p *Params) ExhaustiveOptimalProbe(costFn func([]int) float64) ([]int, float64) {
	return p.bestSubset(costFn, p.K())
}

// Ranking returns the applicable methods ordered by increasing predicted
// cost.
func (p *Params) Ranking() []Method {
	var ms []Method
	for _, m := range AllMethods {
		if p.Applicable(m) {
			ms = append(ms, m)
		}
	}
	costs := map[Method]float64{}
	for _, m := range ms {
		costs[m] = p.Cost(m)
	}
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && costs[ms[j]] < costs[ms[j-1]]; j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
	return ms
}
