package bench

import "textjoin/internal/workload"

// The §7.2 reproduction checks on the Figure 2 winner map that benchrun
// does not print.

// Figure2Q4 repeats the winner map on the Q4 parameters. §7.2 reports
// "similar results, with TS taking slightly more space than P+TS": Q4's
// second predicate is less selective than Q3's, so succeeding probes buy
// less and the TS region grows.
func Figure2Q4(c *workload.Corpus, gridS, gridR int) ([]Figure2Cell, error) {
	base, err := baseQ4Params(c, 60, 6)
	if err != nil {
		return nil, err
	}
	// Sweep the first (advisor) predicate's selectivity and distinct
	// count, like the Q3 map sweeps project.name.
	return figure2Grid(base, 2*float64(c.AuthorFanout), gridS, gridR), nil
}

// Figure2Agreement returns the fraction of grid cells whose winner
// matches the analytic boundary.
func Figure2Agreement(cells []Figure2Cell) float64 {
	agree := 0
	for _, c := range cells {
		if (c.Winner == "P+TS") == c.AnalyticProbe {
			agree++
		}
	}
	if len(cells) == 0 {
		return 0
	}
	return float64(agree) / float64(len(cells))
}
