// Package bench regenerates the paper's experimental tables and figures
// (§7) on the synthetic workloads: Table 2 (execution cost of each join
// method on Q1–Q4), Figure 1(A) (Q3 method costs vs s1), Figure 1(B) (Q4
// method costs vs N1/N), Figure 2 (the TS vs P+TS winner map), the §7
// cost-model ranking validation, the multi-join PrL experiment of §6, the
// optimizer-overhead measurement, the design-choice ablations and §8's
// batched-probe round trips. RepeatedEngine builds the engine the
// warm-query benchmarks run.
//
// Each experiment returns structured rows; the Format functions render
// them in the shape the paper reports. Costs are the deterministic
// simulated seconds of the calibrated cost model, so results are
// machine-independent; only the optimizer-overhead measurement reads the
// clock. Wall-clock times are reported by the testing.B benchmarks in the
// repository root.
package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"textjoin/internal/cost"
	"textjoin/internal/join"
	"textjoin/internal/stats"
	"textjoin/internal/workload"
)

// MethodResult is one (query, method) measurement.
type MethodResult struct {
	Query     string
	Method    string
	Probes    []string // probe columns, for the probe-based methods
	Predicted float64  // cost-model prediction (seconds)
	Measured  float64  // simulated seconds actually charged during execution
	Searches  int
	Rows      int
}

// Table2 executes every applicable join method on the four paper queries
// at their Table-2 operating points and reports predicted and measured
// costs.
func Table2(c *workload.Corpus) ([]MethodResult, error) {
	scenarios, err := workload.PaperOperatingPoints(c)
	if err != nil {
		return nil, err
	}
	var out []MethodResult
	for _, sc := range scenarios {
		rows, err := RunScenario(sc)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", sc.Name, err)
		}
		out = append(out, rows...)
	}
	return out, nil
}

// RunScenario measures every applicable method on one scenario.
func RunScenario(sc *workload.Scenario) ([]MethodResult, error) {
	// Build the cost model once, with a dedicated service so estimation
	// traffic does not pollute the measurements.
	estSvc, err := sc.Service()
	if err != nil {
		return nil, err
	}
	est := stats.New(estSvc, stats.WithSampleSize(10000))
	params, err := est.BuildParams(sc.Spec, 1)
	if err != nil {
		return nil, err
	}

	var out []MethodResult
	for _, m := range cost.AllMethods {
		if !params.Applicable(m) {
			continue
		}
		method, err := stats.InstantiateMethod(sc.Spec, params, m)
		if err != nil {
			return nil, err
		}
		svc, err := sc.Service()
		if err != nil {
			return nil, err
		}
		if err := method.Applicable(sc.Spec, svc); err != nil {
			continue // e.g. short-form fields missing for RTP methods
		}
		res, err := method.Execute(context.Background(), sc.Spec, svc)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", sc.Name, method.Name(), err)
		}
		mr := MethodResult{
			Query:     sc.Name,
			Method:    m.String(),
			Predicted: params.Cost(m),
			Measured:  res.Stats.Usage.Cost,
			Searches:  res.Stats.Usage.Searches,
			Rows:      res.Stats.ResultRows,
		}
		switch mm := method.(type) {
		case join.PTS:
			mr.Probes = mm.ProbeColumns
		case join.PRTP:
			mr.Probes = mm.ProbeColumns
		}
		out = append(out, mr)
	}
	return out, nil
}

// FormatTable2 renders the measurements like the paper's Table 2: one row
// per method, one column per query, measured simulated seconds.
func FormatTable2(w io.Writer, rows []MethodResult) {
	queries := orderedDistinct(rows, func(r MethodResult) string { return r.Query })
	methods := orderedDistinct(rows, func(r MethodResult) string { return r.Method })
	cell := map[string]map[string]float64{}
	for _, r := range rows {
		if cell[r.Method] == nil {
			cell[r.Method] = map[string]float64{}
		}
		cell[r.Method][r.Query] = r.Measured
	}
	fmt.Fprintf(w, "%-10s", "Method")
	for _, q := range queries {
		fmt.Fprintf(w, "%10s", q)
	}
	fmt.Fprintln(w)
	for _, m := range methods {
		fmt.Fprintf(w, "%-10s", m)
		for _, q := range queries {
			if v, ok := cell[m][q]; ok {
				fmt.Fprintf(w, "%10.1f", v)
			} else {
				fmt.Fprintf(w, "%10s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

func orderedDistinct(rows []MethodResult, key func(MethodResult) string) []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range rows {
		k := key(r)
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// RankingRow reports, for one query, the method order predicted by the
// cost model and the order actually measured.
type RankingRow struct {
	Query     string
	Predicted []string
	Measured  []string
	Agrees    bool
}

// RankingValidation reproduces §7's check that the cost formulas predict
// the observed ranking of the methods for each query (under the fully
// correlated model).
func RankingValidation(c *workload.Corpus) ([]RankingRow, error) {
	results, err := Table2(c)
	if err != nil {
		return nil, err
	}
	byQuery := map[string][]MethodResult{}
	var queries []string
	for _, r := range results {
		if _, ok := byQuery[r.Query]; !ok {
			queries = append(queries, r.Query)
		}
		byQuery[r.Query] = append(byQuery[r.Query], r)
	}
	var out []RankingRow
	for _, q := range queries {
		rs := byQuery[q]
		pred := append([]MethodResult(nil), rs...)
		sort.SliceStable(pred, func(i, j int) bool { return pred[i].Predicted < pred[j].Predicted })
		meas := append([]MethodResult(nil), rs...)
		sort.SliceStable(meas, func(i, j int) bool { return meas[i].Measured < meas[j].Measured })
		row := RankingRow{Query: q, Agrees: true}
		for i := range rs {
			row.Predicted = append(row.Predicted, pred[i].Method)
			row.Measured = append(row.Measured, meas[i].Method)
			if pred[i].Method != meas[i].Method {
				row.Agrees = false
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// FormatRanking renders the ranking validation.
func FormatRanking(w io.Writer, rows []RankingRow) {
	for _, r := range rows {
		mark := "MATCH"
		if !r.Agrees {
			mark = "DIFFER"
		}
		fmt.Fprintf(w, "%s: predicted %-40s measured %-40s %s\n",
			r.Query,
			strings.Join(r.Predicted, " < "),
			strings.Join(r.Measured, " < "),
			mark)
	}
}
