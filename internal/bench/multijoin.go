package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"textjoin/internal/exec"
	"textjoin/internal/optimizer"
	"textjoin/internal/plan"
	"textjoin/internal/sqlparse"
	"textjoin/internal/stats"
	"textjoin/internal/workload"
)

// Q5Row is one optimizer-mode measurement of the multi-join experiment.
type Q5Row struct {
	Mode       string
	EstCost    float64
	Measured   float64 // simulated seconds of actually executing the plan
	ProbeNodes int
	JoinTasks  int
	Rows       int
	Plan       string
}

// MultiJoinQ5 reproduces the §6 experiment (Examples 6.1/6.2): optimize
// and execute Q5 under the traditional left-deep space, the PrL space
// (Pareto search), and the paper's greedy PrL variant, and compare plan
// cost, actual cost, and optimization effort.
func MultiJoinQ5(cfg workload.Q5Config) ([]Q5Row, error) {
	w, err := workload.Q5(cfg)
	if err != nil {
		return nil, err
	}
	q, err := sqlparse.Parse(w.Query)
	if err != nil {
		return nil, err
	}
	a, err := sqlparse.Analyze(q, w.Catalog)
	if err != nil {
		return nil, err
	}
	var out []Q5Row
	for _, mode := range []optimizer.Mode{
		optimizer.ModeTraditional, optimizer.ModePrLGreedy, optimizer.ModePrL,
	} {
		// Separate services for estimation and execution.
		estSvc, err := w.Service()
		if err != nil {
			return nil, err
		}
		est := stats.New(estSvc, stats.WithSampleSize(10000))
		opts := optimizer.DefaultOptions()
		opts.Mode = mode
		o, err := optimizer.New(a, w.Catalog, estSvc, est, opts)
		if err != nil {
			return nil, err
		}
		res, err := o.Optimize()
		if err != nil {
			return nil, err
		}
		runSvc, err := w.Service()
		if err != nil {
			return nil, err
		}
		ex := &exec.Executor{Cat: w.Catalog, Svc: runSvc}
		table, st, err := ex.Run(context.Background(), res.Plan)
		if err != nil {
			return nil, fmt.Errorf("bench: executing %v plan: %w", mode, err)
		}
		out = append(out, Q5Row{
			Mode:       mode.String(),
			EstCost:    res.EstCost,
			Measured:   st.Usage.Cost,
			ProbeNodes: plan.CountProbes(res.Plan),
			JoinTasks:  res.JoinTasks,
			Rows:       table.Cardinality(),
			Plan:       plan.String(res.Plan),
		})
	}
	return out, nil
}

// FormatQ5 renders the multi-join comparison.
func FormatQ5(w io.Writer, rows []Q5Row) {
	fmt.Fprintf(w, "%-14s%12s%12s%8s%10s%8s\n",
		"Mode", "EstCost", "Measured", "Probes", "JoinTasks", "Rows")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s%12.1f%12.1f%8d%10d%8d\n",
			r.Mode, r.EstCost, r.Measured, r.ProbeNodes, r.JoinTasks, r.Rows)
	}
	for _, r := range rows {
		fmt.Fprintf(w, "\n%s plan:\n%s", r.Mode, r.Plan)
	}
}

// OverheadRow measures optimization effort for an n-relation chain query.
type OverheadRow struct {
	Relations int
	Mode      string
	JoinTasks int
	Wall      time.Duration
}

// OptimizerOverhead reproduces §6's complexity discussion: enumeration
// effort (2-way join tasks and wall time) as the number of relations
// grows, for the traditional and extended spaces.
func OptimizerOverhead(maxRelations int) ([]OverheadRow, error) {
	var out []OverheadRow
	for n := 2; n <= maxRelations; n++ {
		w, err := workload.Chain(workload.ChainConfig{
			Relations: n, RowsEach: 30, Docs: 40, Seed: int64(n),
		})
		if err != nil {
			return nil, err
		}
		q, err := sqlparse.Parse(w.Query)
		if err != nil {
			return nil, err
		}
		a, err := sqlparse.Analyze(q, w.Catalog)
		if err != nil {
			return nil, err
		}
		for _, mode := range []optimizer.Mode{
			optimizer.ModeTraditional, optimizer.ModePrLGreedy, optimizer.ModePrL,
		} {
			svc, err := w.Service()
			if err != nil {
				return nil, err
			}
			est := stats.New(svc, stats.WithSampleSize(10000))
			opts := optimizer.DefaultOptions()
			opts.Mode = mode
			o, err := optimizer.New(a, w.Catalog, svc, est, opts)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			res, err := o.Optimize()
			if err != nil {
				return nil, err
			}
			out = append(out, OverheadRow{
				Relations: n,
				Mode:      mode.String(),
				JoinTasks: res.JoinTasks,
				Wall:      time.Since(start),
			})
		}
	}
	return out, nil
}

// FormatOverhead renders the optimizer-overhead measurement.
func FormatOverhead(w io.Writer, rows []OverheadRow) {
	fmt.Fprintf(w, "%-6s%-14s%12s%14s\n", "n", "Mode", "JoinTasks", "Wall")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6d%-14s%12d%14s\n", r.Relations, r.Mode, r.JoinTasks, r.Wall)
	}
}
