package bench

import (
	"context"
	"fmt"
	"io"
	"strings"

	"textjoin/internal/join"
	"textjoin/internal/stats"
	"textjoin/internal/workload"
)

// Batched probe pushdown experiment: probe round trips and simulated
// cost, per tuple vs batched, on the paper scenarios at the Mercury term
// limit M=70, next to the closed-form prediction.

// BatchProbeRow is one (query, probe set) measurement.
type BatchProbeRow struct {
	Query     string
	Probes    []string // probe columns
	Bindings  int      // distinct probe bindings (= per-tuple round trips)
	PerTuple  int      // measured per-tuple probe round trips
	Batched   int      // measured batched probe round trips
	Predicted float64  // model's ProbeBatchRounds
	CostPer   float64  // simulated seconds, per-tuple probing
	CostBatch float64  // simulated seconds, batched probing
}

// Reduction is the round-trip reduction factor.
func (r BatchProbeRow) Reduction() float64 {
	if r.Batched == 0 {
		return 0
	}
	return float64(r.PerTuple) / float64(r.Batched)
}

// BatchProbeRounds measures the probing phase of the two-predicate paper
// scenarios (Q3, Q4) on every single-column probe set: the same reduce,
// probing per distinct binding and probing batched under MaxTerms.
func BatchProbeRounds(c *workload.Corpus) ([]BatchProbeRow, error) {
	var out []BatchProbeRow
	for _, name := range []string{"Q3", "Q4"} {
		sc, err := workload.ScenarioByName(c, name)
		if err != nil {
			return nil, err
		}
		estSvc, err := sc.Service()
		if err != nil {
			return nil, err
		}
		est := stats.New(estSvc, stats.WithSampleSize(10000))
		params, err := est.BuildParams(sc.Spec, 1)
		if err != nil {
			return nil, err
		}
		for i, pred := range sc.Spec.Preds {
			cols := []string{pred.Column}
			probe := func(batched bool) (join.Stats, error) {
				svc, err := sc.Service()
				if err != nil {
					return join.Stats{}, err
				}
				_, st, err := join.ProbeReduce(context.Background(), sc.Spec, cols, svc, batched)
				return st, err
			}
			plain, err := probe(false)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, pred.Column, err)
			}
			batched, err := probe(true)
			if err != nil {
				return nil, fmt.Errorf("%s/%s batched: %w", name, pred.Column, err)
			}
			out = append(out, BatchProbeRow{
				Query:     name,
				Probes:    cols,
				Bindings:  int(params.NDistinct([]int{i})),
				PerTuple:  plain.Probes,
				Batched:   batched.Probes,
				Predicted: params.ProbeBatchRounds([]int{i}),
				CostPer:   plain.Usage.Cost,
				CostBatch: batched.Usage.Cost,
			})
		}
	}
	return out, nil
}

// FormatBatchProbe renders the round-trip table.
func FormatBatchProbe(w io.Writer, rows []BatchProbeRow) {
	fmt.Fprintf(w, "%-6s %-10s %9s %10s %9s %10s %11s %11s %10s\n",
		"query", "probe", "bindings", "per-tuple", "batched", "predicted", "cost(per)", "cost(batch)", "reduction")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %-10s %9d %10d %9d %10.0f %10.2fs %10.2fs %9.1fx\n",
			r.Query, strings.Join(r.Probes, ","), r.Bindings, r.PerTuple, r.Batched,
			r.Predicted, r.CostPer, r.CostBatch, r.Reduction())
	}
}
