package cost

import "math"

// Probe-column optimization (§5). The number of candidate probe sets is
// 2^k − 1, but Theorem 5.3 shows that for 1-correlated cost models the
// optimal set has at most 2 columns, and for g-correlated models at most
// min(k, 2g): the argument is that given any optimal set J one can keep
// the g smallest-selectivity columns (which fix S_{g,J}, hence the
// substitution phase) and the g smallest-fanout columns (which fix
// F_{g,J}, hence the probe transmission), and dropping the rest only
// shrinks N_J and the probe's list work. OptimalProbe therefore searches
// subsets up to that bound, giving O(k^2) work for the paper's fully
// correlated model. The tests' oracle for the theorem,
// ExhaustiveOptimalProbe, searches every subset.

// ProbeBound returns the maximum probe-set size worth considering,
// min(k, 2g).
func (p *Params) ProbeBound() int {
	k := p.K()
	if b := 2 * p.G; b < k {
		return b
	}
	return k
}

// OptimalProbe returns the probe-column set minimizing costFn (typically
// (*Params).CostPTS or (*Params).CostPRTP) among nonempty subsets of size
// at most ProbeBound, together with its cost.
func (p *Params) OptimalProbe(costFn func([]int) float64) ([]int, float64) {
	return p.bestSubset(costFn, p.ProbeBound())
}

// bestSubset enumerates nonempty subsets of {0..k-1} of size ≤ maxSize.
// Ties favour smaller sets (probes are pure overhead at equal cost), then
// lexicographically smaller ones, so the choice is deterministic.
func (p *Params) bestSubset(costFn func([]int) float64, maxSize int) ([]int, float64) {
	k := p.K()
	var best []int
	bestCost := math.Inf(1)
	subset := make([]int, 0, maxSize)
	var rec func(start int)
	rec = func(start int) {
		if len(subset) > 0 {
			if c := costFn(subset); c < bestCost ||
				(c == bestCost && best != nil && len(subset) < len(best)) {
				bestCost = c
				best = append([]int(nil), subset...)
			}
		}
		if len(subset) == maxSize {
			return
		}
		for i := start; i < k; i++ {
			subset = append(subset, i)
			rec(i + 1)
			subset = subset[:len(subset)-1]
		}
	}
	rec(0)
	return best, bestCost
}
