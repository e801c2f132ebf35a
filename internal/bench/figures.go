package bench

import (
	"fmt"
	"io"
	"sort"

	"textjoin/internal/cost"
	"textjoin/internal/stats"
	"textjoin/internal/workload"
)

// CurvePoint is one x-value of a cost-vs-parameter figure, with the model
// cost of each method.
type CurvePoint struct {
	X     float64
	Costs map[string]float64
}

// curveMethods evaluates the method costs the figures plot. Probe-based
// methods are evaluated per probe column: "P1+TS" probes on the first
// join column, "P2+TS" on the second (the paper's notation).
func curveMethods(p *cost.Params) map[string]float64 {
	out := map[string]float64{
		"TS":     p.CostTS(),
		"SJ+RTP": p.CostSJRTP(),
		"P1+TS":  p.CostPTS([]int{0}),
		"P2+TS":  p.CostPTS([]int{1}),
		"P1+RTP": p.CostPRTP([]int{0}),
		"P2+RTP": p.CostPRTP([]int{1}),
	}
	if p.HasSel {
		out["RTP"] = p.CostRTP()
	}
	return out
}

// baseQ3Params builds the Q3 cost-model parameters at the paper's
// operating point by sampling the generated workload.
func baseQ3Params(c *workload.Corpus) (*cost.Params, error) {
	sc, err := c.Q3(workload.Q3Config{N: 100, N1: 25, S1: 0.16, N2: 100, S2: 0.3, Seed: 13})
	if err != nil {
		return nil, err
	}
	svc, err := sc.Service()
	if err != nil {
		return nil, err
	}
	est := stats.New(svc, stats.WithSampleSize(10000))
	return est.BuildParams(sc.Spec, 1)
}

// Figure1A reproduces Figure 1(A): the cost of the Q3 methods as s1 (the
// selectivity of project.name in title) varies from 0 to 1. Since the
// unconditional fanout is s·(conditional fanout), sweeping s scales f1
// proportionally; all other parameters stay at the Q3 operating point.
func Figure1A(c *workload.Corpus, points int) ([]CurvePoint, error) {
	base, err := baseQ3Params(c)
	if err != nil {
		return nil, err
	}
	condFanout1 := float64(c.TagFanout)
	var out []CurvePoint
	for i := 0; i <= points; i++ {
		s1 := float64(i) / float64(points)
		p := *base
		p.Preds = append([]cost.Pred(nil), base.Preds...)
		p.Preds[0].Sel = s1
		p.Preds[0].Fanout = s1 * condFanout1
		out = append(out, CurvePoint{X: s1, Costs: curveMethods(&p)})
	}
	return out, nil
}

// baseQ4Params builds the Q4 parameters at the paper's operating point.
func baseQ4Params(c *workload.Corpus, n, n1 int) (*cost.Params, error) {
	sc, err := c.Q4(workload.Q4Config{N: n, N1: n1, S1: 1.0, S2: 0.1, Seed: 14})
	if err != nil {
		return nil, err
	}
	svc, err := sc.Service()
	if err != nil {
		return nil, err
	}
	est := stats.New(svc, stats.WithSampleSize(10000))
	return est.BuildParams(sc.Spec, 1)
}

// Figure1B reproduces Figure 1(B): the cost of the Q4 methods as N1/N —
// the distinct advisors over the relation size — varies, with s1 fixed at
// 1 and the advisor fanout fixed.
func Figure1B(c *workload.Corpus, n int, points int) ([]CurvePoint, error) {
	base, err := baseQ4Params(c, n, 1)
	if err != nil {
		return nil, err
	}
	var out []CurvePoint
	for i := 1; i <= points; i++ {
		ratio := float64(i) / float64(points)
		n1 := int(ratio * float64(n))
		if n1 < 1 {
			n1 = 1
		}
		p := *base
		p.Preds = append([]cost.Pred(nil), base.Preds...)
		p.Preds[0].Distinct = n1
		out = append(out, CurvePoint{X: ratio, Costs: curveMethods(&p)})
	}
	return out, nil
}

// FormatCurves renders curve points as an aligned table (one column per
// method).
func FormatCurves(w io.Writer, xName string, points []CurvePoint) {
	if len(points) == 0 {
		return
	}
	var methods []string
	for m := range points[0].Costs {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	fmt.Fprintf(w, "%-8s", xName)
	for _, m := range methods {
		fmt.Fprintf(w, "%12s", m)
	}
	fmt.Fprintln(w)
	for _, pt := range points {
		fmt.Fprintf(w, "%-8.3f", pt.X)
		for _, m := range methods {
			fmt.Fprintf(w, "%12.1f", pt.Costs[m])
		}
		fmt.Fprintln(w)
	}
}

// Figure2Cell is one grid point of the winner map.
type Figure2Cell struct {
	S1     float64
	Ratio  float64 // N1/N
	Winner string  // "TS" or "P+TS"
	// AnalyticProbe is the paper's closed-form condition s1 < 1 − N1/N.
	AnalyticProbe bool
}

// Figure2 reproduces Figure 2: the winner between TS and P+TS (probing on
// column 1) over the (s1, N1/N) plane for Q3, using the cost formulas.
// The paper derives that the P+TS region is approximately s1 < 1 − N1/N.
func Figure2(c *workload.Corpus, gridS, gridR int) ([]Figure2Cell, error) {
	base, err := baseQ3Params(c)
	if err != nil {
		return nil, err
	}
	return figure2Grid(base, float64(c.TagFanout), gridS, gridR), nil
}

func figure2Grid(base *cost.Params, condFanout1 float64, gridS, gridR int) []Figure2Cell {
	n := float64(base.N)
	var out []Figure2Cell
	for i := 0; i <= gridS; i++ {
		s1 := float64(i) / float64(gridS)
		for j := 1; j <= gridR; j++ {
			ratio := float64(j) / float64(gridR)
			n1 := int(ratio * n)
			if n1 < 1 {
				n1 = 1
			}
			p := *base
			p.Preds = append([]cost.Pred(nil), base.Preds...)
			p.Preds[0].Sel = s1
			p.Preds[0].Fanout = s1 * condFanout1
			p.Preds[0].Distinct = n1
			winner := "TS"
			if p.CostPTS([]int{0}) < p.CostTS() {
				winner = "P+TS"
			}
			out = append(out, Figure2Cell{
				S1:            s1,
				Ratio:         ratio,
				Winner:        winner,
				AnalyticProbe: s1 < 1-ratio,
			})
		}
	}
	return out
}

// FormatFigure2 renders the winner map as a character grid ('P' = P+TS,
// 't' = TS) with s1 on the vertical axis and N1/N on the horizontal, plus
// the agreement rate against the analytic boundary.
func FormatFigure2(w io.Writer, cells []Figure2Cell) {
	rows := map[float64]map[float64]Figure2Cell{}
	var s1s, ratios []float64
	seenS, seenR := map[float64]bool{}, map[float64]bool{}
	agree, total := 0, 0
	for _, c := range cells {
		if rows[c.S1] == nil {
			rows[c.S1] = map[float64]Figure2Cell{}
		}
		rows[c.S1][c.Ratio] = c
		if !seenS[c.S1] {
			seenS[c.S1] = true
			s1s = append(s1s, c.S1)
		}
		if !seenR[c.Ratio] {
			seenR[c.Ratio] = true
			ratios = append(ratios, c.Ratio)
		}
		if (c.Winner == "P+TS") == c.AnalyticProbe {
			agree++
		}
		total++
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(s1s)))
	sort.Float64s(ratios)
	fmt.Fprintln(w, "s1 \\ N1/N  ('P' = P+TS wins, 't' = TS wins)")
	for _, s1 := range s1s {
		fmt.Fprintf(w, "%5.2f  ", s1)
		for _, r := range ratios {
			if rows[s1][r].Winner == "P+TS" {
				fmt.Fprint(w, "P")
			} else {
				fmt.Fprint(w, "t")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "agreement with analytic boundary s1 < 1 - N1/N: %d/%d (%.1f%%)\n",
		agree, total, 100*float64(agree)/float64(total))
}
