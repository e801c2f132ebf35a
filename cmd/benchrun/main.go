// Command benchrun regenerates every table and figure of the paper's
// evaluation section on the synthetic workloads and prints them in the
// paper's shape. The data behind EXPERIMENTS.md comes from this tool.
//
// Usage:
//
//	benchrun                 # all experiments, default corpus
//	benchrun -exp table2     # one experiment
//	benchrun -docs 20000     # larger corpus
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"textjoin/internal/bench"
	"textjoin/internal/workload"
)

func main() {
	var (
		exp  = flag.String("exp", "all", "experiment: table2, ranking, fig1a, fig1b, fig2, q5, validate, ablation, correlation, overhead, gateway, batchprobe, ingest, replica, trace, all")
		docs = flag.Int("docs", 2000, "corpus size D")
		seed = flag.Int64("seed", 42, "generation seed")
	)
	flag.Parse()
	if err := run(*exp, *docs, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		os.Exit(1)
	}
}

func run(exp string, docs int, seed int64) error {
	c := workload.NewCorpus(workload.CorpusConfig{Docs: docs, Seed: seed})
	want := func(name string) bool { return exp == "all" || exp == name }
	ran := false

	if want("table2") {
		ran = true
		header("Table 2 — execution cost (simulated seconds) of each join method on Q1-Q4")
		rows, err := bench.Table2(c)
		if err != nil {
			return err
		}
		bench.FormatTable2(os.Stdout, rows)
	}
	if want("ranking") {
		ran = true
		header("§7 — cost-model ranking validation (fully correlated model)")
		rows, err := bench.RankingValidation(c)
		if err != nil {
			return err
		}
		bench.FormatRanking(os.Stdout, rows)
	}
	if want("fig1a") {
		ran = true
		header("Figure 1(A) — Q3 method costs vs s1")
		pts, err := bench.Figure1A(c, 20)
		if err != nil {
			return err
		}
		bench.FormatCurves(os.Stdout, "s1", pts)
	}
	if want("fig1b") {
		ran = true
		header("Figure 1(B) — Q4 method costs vs N1/N")
		pts, err := bench.Figure1B(c, 60, 20)
		if err != nil {
			return err
		}
		bench.FormatCurves(os.Stdout, "N1/N", pts)
	}
	if want("fig2") {
		ran = true
		header("Figure 2 — TS vs P+TS winner map over (s1, N1/N)")
		cells, err := bench.Figure2(c, 20, 40)
		if err != nil {
			return err
		}
		bench.FormatFigure2(os.Stdout, cells)
	}
	if want("q5") {
		ran = true
		header("§6 — multi-join Q5: traditional vs PrL execution spaces")
		rows, err := bench.MultiJoinQ5(workload.DefaultQ5())
		if err != nil {
			return err
		}
		bench.FormatQ5(os.Stdout, rows)
	}
	if want("validate") {
		ran = true
		header("§7 — Figure 1(A) validation: predicted vs measured at executed points (x = s1)")
		pts, err := bench.Figure1AValidation(c, []float64{0.08, 0.16, 0.4, 0.8, 1.0})
		if err != nil {
			return err
		}
		bench.FormatValidation(os.Stdout, pts)
		header("§7 — Figure 1(B) validation: predicted vs measured at executed points (x = N1/N)")
		pts, err = bench.Figure1BValidation(c, 60, []float64{0.1, 0.3, 0.5, 0.8, 1.0})
		if err != nil {
			return err
		}
		bench.FormatValidation(os.Stdout, pts)
	}
	if want("ablation") {
		ran = true
		header("Ablations — execution-method design choices and §8 service extensions")
		rows, err := bench.Ablations(c)
		if err != nil {
			return err
		}
		est, err := bench.EstimationCost(c)
		if err != nil {
			return err
		}
		bench.FormatAblations(os.Stdout, rows, est)
	}
	if want("correlation") {
		ran = true
		header("§4.2 ablation — fully correlated (g=1) vs independent joint statistics")
		rows, err := bench.CorrelationAblation(c)
		if err != nil {
			return err
		}
		bench.FormatCorrelation(os.Stdout, rows)
	}
	if want("overhead") {
		ran = true
		header("§6 — optimizer enumeration effort vs number of relations")
		rows, err := bench.OptimizerOverhead(7)
		if err != nil {
			return err
		}
		bench.FormatOverhead(os.Stdout, rows)
	}
	if want("gateway") {
		ran = true
		header("Gateway saturation — closed-loop load at 1x, 4x, 16x the worker pool")
		rows, err := bench.GatewayLoad(docs, seed, 4, []int{1, 4, 16}, 8)
		if err != nil {
			return err
		}
		bench.FormatGatewayLoad(os.Stdout, rows)
	}
	if want("batchprobe") {
		ran = true
		header("Batched probe pushdown — probe round trips per tuple vs batched (M = 70)")
		rows, err := bench.BatchProbeRounds(c)
		if err != nil {
			return err
		}
		bench.FormatBatchProbe(os.Stdout, rows)
		header("Batched probe pushdown — gateway saturation with batching + probe cache off vs on")
		grows, err := bench.BatchProbeGateway(docs, seed, 4, []int{1, 4, 16}, 8)
		if err != nil {
			return err
		}
		bench.FormatBatchGateway(os.Stdout, grows)
	}
	if want("ingest") {
		ran = true
		header("Live ingest — freshness: durable-ack and write→visible latency, WAL group commit")
		frows, err := bench.IngestFreshness(docs, seed, 256, []int{1, 8})
		if err != nil {
			return err
		}
		bench.FormatFreshness(os.Stdout, frows)
		header("Live ingest — interference: query latency under 0x/1x/4x concurrent ingest load")
		irows, err := bench.IngestInterference(docs, seed, 4, 64, []int{0, 1, 4})
		if err != nil {
			return err
		}
		bench.FormatInterference(os.Stdout, irows)
	}
	if want("trace") {
		ran = true
		header("Tracing overhead — span cost with tracing disabled vs recording")
		res := bench.MeasureTraceOverhead()
		bench.FormatTraceOverhead(os.Stdout, res)
		if err := bench.WriteTraceJSON("BENCH_trace.json", res); err != nil {
			return err
		}
		fmt.Println("wrote BENCH_trace.json")
	}
	if want("replica") {
		ran = true
		header("Replica fleet chaos — one browned-out replica per partition at 16x offered load")
		rrows, err := bench.ReplicaChaos(c, bench.ReplicaChaosConfig{})
		if err != nil {
			return err
		}
		bench.FormatReplicaChaos(os.Stdout, rrows)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

func header(title string) {
	fmt.Println()
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", len(title)))
}
