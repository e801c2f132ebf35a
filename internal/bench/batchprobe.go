package bench

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"textjoin/internal/core"
	"textjoin/internal/gateway"
	"textjoin/internal/join"
	"textjoin/internal/loadgen"
	"textjoin/internal/stats"
	"textjoin/internal/texservice"
	"textjoin/internal/workload"
)

// Batched probe pushdown experiments: (1) probe round trips and simulated
// cost, per tuple vs batched, on the paper scenarios at the Mercury term
// limit M=70, next to the closed-form prediction; (2) the gateway
// saturation sweep re-run with batching and the cross-query probe cache
// enabled, to see what fewer round trips buy under concurrent load.

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

// BatchGatewayRow is one operating point of the before/after gateway
// sweep.
type BatchGatewayRow struct {
	Multiplier   int
	Batched      bool    // probe batching + probe cache enabled
	Throughput   float64 // completions per wall-clock second
	MeanLatency  float64 // mean post-admission latency, seconds
	ShedRate     float64
	Searches     int     // searches sent to the text source at this point
	ProbeHitRate float64 // cross-query probe-cache hit rate (batched runs)
}

// BatchProbeGateway re-runs the gateway saturation sweep twice — probe
// batching and the cross-query probe cache off, then on — and reports
// throughput, mean latency and backend searches side by side.
func BatchProbeGateway(docs int, seed int64, workers int, multipliers []int, perClient int) ([]BatchGatewayRow, error) {
	var rows []BatchGatewayRow
	queries := loadgen.GatewayQueries()
	for _, batched := range []bool{false, true} {
		for _, mult := range multipliers {
			gw, meter, cleanup, err := buildBatchLoadGateway(docs, seed, workers, batched)
			if err != nil {
				return nil, err
			}
			before := meter.Snapshot()
			tally, err := loadgen.RunLoad(context.Background(), gw, loadgen.LoadConfig{
				Clients:   mult * workers,
				PerClient: perClient,
				Queries:   queries,
			})
			if err != nil {
				cleanup()
				return nil, err
			}
			after := gw.Stats()
			mean := 0.0
			if after.Latency.Count > 0 {
				mean = after.Latency.Sum / float64(after.Latency.Count)
			}
			rows = append(rows, BatchGatewayRow{
				Multiplier:   mult,
				Batched:      batched,
				Throughput:   tally.Throughput(),
				MeanLatency:  mean,
				ShedRate:     tally.ShedRate(),
				Searches:     meter.Snapshot().Searches - before.Searches,
				ProbeHitRate: after.ProbeCache.HitRate,
			})
			cleanup()
		}
	}
	return rows, nil
}

// buildBatchLoadGateway is buildLoadGateway with the batched-probe
// pushdown toggled: same slowed backend, same pool and queue, plus the
// optimizer gate and a cross-query probe cache when batched is true. It
// also returns the backend meter so callers can count searches.
func buildBatchLoadGateway(docs int, seed int64, workers int, batched bool) (*gateway.Gateway, *texservice.Meter, func(), error) {
	demo := workload.NewDemo(docs, seed)
	local, err := texservice.NewLocal(demo.Corpus.Index,
		texservice.WithShortFields("title", "author", "year"))
	if err != nil {
		return nil, nil, nil, err
	}
	slow := texservice.NewFaulty(local, texservice.FaultConfig{Latency: 2 * time.Millisecond})

	opts := core.DefaultOptions()
	opts.Seed = seed
	// No shared search cache in either arm: it would absorb the repeated
	// probes in both and mask what batching and the probe cache change.
	if batched {
		opts.Optimizer.BatchProbe = true
		opts.ProbeCache = 256
	}
	eng := core.NewEngineWith(opts)
	for _, tbl := range demo.Catalog.Tables {
		if err := eng.RegisterTable(tbl); err != nil {
			return nil, nil, nil, err
		}
	}
	if err := eng.RegisterTextSource("mercury", slow, demo.Corpus.Fields()...); err != nil {
		return nil, nil, nil, err
	}
	gw := gateway.New(eng, gateway.Config{
		Workers:      workers,
		QueueDepth:   workers,
		QueueTimeout: 50 * time.Millisecond,
	})
	cleanup := func() { _ = gw.Drain(context.Background()) }
	return gw, local.Meter(), cleanup, nil
}

// FormatBatchGateway renders the before/after sweep.
func FormatBatchGateway(w io.Writer, rows []BatchGatewayRow) {
	fmt.Fprintf(w, "%-10s %-9s %12s %13s %10s %9s %11s\n",
		"offered", "batching", "throughput", "mean latency", "shed-rate", "searches", "probe-cache")
	for _, r := range rows {
		mode := "off"
		if r.Batched {
			mode = "on"
		}
		probeCol := "-"
		if r.Batched {
			probeCol = fmt.Sprintf("%.0f%%", 100*r.ProbeHitRate)
		}
		fmt.Fprintf(w, "%-10s %-9s %9.1f/s %11.1fms %9.0f%% %9d %11s\n",
			fmt.Sprintf("%dx pool", r.Multiplier), mode, r.Throughput,
			1000*r.MeanLatency, 100*r.ShedRate, r.Searches, probeCol)
	}
}
