package bench

import (
	"context"
	"fmt"
	"io"

	"textjoin/internal/join"
	"textjoin/internal/stats"
	"textjoin/internal/workload"
)

// AblationRow is one design-variant measurement.
type AblationRow struct {
	Group    string // which design choice is ablated
	Variant  string
	Query    string
	Measured float64
	Searches int
	Shipped  int // short-form docs shipped
	Rows     int
}

// Ablations measures the design-choice variants DESIGN.md calls out:
//
//   - P+TS execution discipline: the eager probe-first execution the cost
//     formula C_{P+TS} describes vs §3.3's lazy query-first probe-cache
//     algorithm.
//   - §8 batched invocation: plain TS vs TS over BatchSearch.
//
// Every variant must run on its scenario: an inapplicable variant is an
// error (Execute checks applicability first), not a missing row.
func Ablations(c *workload.Corpus) ([]AblationRow, error) {
	var out []AblationRow
	runOne := func(group string, sc *workload.Scenario, m join.Method) error {
		svc, err := sc.Service()
		if err != nil {
			return err
		}
		res, err := m.Execute(context.Background(), sc.Spec, svc)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", sc.Name, m.Name(), err)
		}
		out = append(out, AblationRow{
			Group:    group,
			Variant:  m.Name(),
			Query:    sc.Name,
			Measured: res.Stats.Usage.Cost,
			Searches: res.Stats.Usage.Searches,
			Shipped:  res.Stats.Usage.ShortDocs,
			Rows:     res.Stats.ResultRows,
		})
		return nil
	}

	// P+TS disciplines on Q3 (selective probe column, shared bindings).
	q3, err := workload.ScenarioByName(c, "Q3")
	if err != nil {
		return nil, err
	}
	probeCols := optimalProbeColumns(q3)
	for _, m := range []join.Method{
		join.PTS{ProbeColumns: probeCols},
		join.PTS{ProbeColumns: probeCols, Lazy: true},
	} {
		if err := runOne("pts-discipline", q3, m); err != nil {
			return nil, err
		}
	}

	// Batched invocation on Q1 (many substituted queries).
	q1, err := workload.ScenarioByName(c, "Q1")
	if err != nil {
		return nil, err
	}
	for _, m := range []join.Method{join.TS{}, join.TS{Batched: true}} {
		if err := runOne("batched-invocation", q1, m); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// optimalProbeColumns picks the probe columns the optimizer would.
func optimalProbeColumns(sc *workload.Scenario) []string {
	svc, err := sc.Service()
	if err != nil {
		return []string{sc.Spec.Preds[0].Column}
	}
	est := stats.New(svc, stats.WithSampleSize(10000))
	params, err := est.BuildParams(sc.Spec, 1)
	if err != nil {
		return []string{sc.Spec.Preds[0].Column}
	}
	J, _ := params.OptimalProbe(params.CostPTS)
	return stats.ProbeColumnsFor(sc.Spec, J)
}

// EstimationCost compares the §4.2 sampling cost with and without the §8
// exported-statistics capability.
type EstimationCostRow struct {
	Variant  string
	Searches int
	Cost     float64
}

// EstimationCost measures what building the Q3 cost-model parameters
// costs the text service under probing vs exported statistics.
func EstimationCost(c *workload.Corpus) ([]EstimationCostRow, error) {
	sc, err := workload.ScenarioByName(c, "Q3")
	if err != nil {
		return nil, err
	}
	var out []EstimationCostRow
	for _, variant := range []string{"probing", "exported-stats"} {
		svc, err := sc.Service()
		if err != nil {
			return nil, err
		}
		opts := []stats.Option{stats.WithSampleSize(10000)}
		if variant == "exported-stats" {
			opts = append(opts, stats.WithStatsExport())
		}
		est := stats.New(svc, opts...)
		if _, err := est.BuildParams(sc.Spec, 1); err != nil {
			return nil, err
		}
		u := svc.Meter().Snapshot()
		out = append(out, EstimationCostRow{Variant: variant, Searches: u.Searches, Cost: u.Cost})
	}
	return out, nil
}

// FormatAblations renders the ablation measurements.
func FormatAblations(w io.Writer, rows []AblationRow, est []EstimationCostRow) {
	fmt.Fprintf(w, "%-20s%-18s%-6s%12s%10s%10s%8s\n",
		"Design choice", "Variant", "Query", "Cost(s)", "Searches", "Shipped", "Rows")
	prev := ""
	for _, r := range rows {
		group := r.Group
		if group == prev {
			group = ""
		} else {
			prev = r.Group
		}
		fmt.Fprintf(w, "%-20s%-18s%-6s%12.1f%10d%10d%8d\n",
			group, r.Variant, r.Query, r.Measured, r.Searches, r.Shipped, r.Rows)
	}
	if len(est) > 0 {
		fmt.Fprintln(w, "\nstatistics estimation cost (Q3 parameters):")
		for _, r := range est {
			fmt.Fprintf(w, "  %-16s %4d searches, %8.1fs\n", r.Variant, r.Searches, r.Cost)
		}
	}
}
