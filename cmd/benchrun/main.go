// Command benchrun regenerates every table and figure of the paper's
// evaluation section on the synthetic workloads and prints them in the
// paper's shape. The data behind EXPERIMENTS.md comes from this tool.
// Every experiment but overhead (which times the optimizer) reports
// deterministic simulated cost, so the output is identical across runs.
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
	"io"
	"os"
	"strings"

	"textjoin/internal/bench"
	"textjoin/internal/workload"
)

// experiment is one entry of benchrun's table: run prints the
// experiment's rows to w, under a header carrying title.
type experiment struct {
	name  string
	title string
	run   func(c *workload.Corpus, w io.Writer) error
}

// experiments is every experiment benchrun knows, in the order -exp all
// runs them.
var experiments = []experiment{
	{"table2", "Table 2 — execution cost (simulated seconds) of each join method on Q1-Q4",
		func(c *workload.Corpus, w io.Writer) error {
			rows, err := bench.Table2(c)
			if err != nil {
				return err
			}
			bench.FormatTable2(w, rows)
			return nil
		}},
	{"ranking", "§7 — cost-model ranking validation (fully correlated model)",
		func(c *workload.Corpus, w io.Writer) error {
			rows, err := bench.RankingValidation(c)
			if err != nil {
				return err
			}
			bench.FormatRanking(w, rows)
			return nil
		}},
	{"fig1a", "Figure 1(A) — Q3 method costs vs s1",
		func(c *workload.Corpus, w io.Writer) error {
			pts, err := bench.Figure1A(c, 20)
			if err != nil {
				return err
			}
			bench.FormatCurves(w, "s1", pts)
			return nil
		}},
	{"fig1b", "Figure 1(B) — Q4 method costs vs N1/N",
		func(c *workload.Corpus, w io.Writer) error {
			pts, err := bench.Figure1B(c, 60, 20)
			if err != nil {
				return err
			}
			bench.FormatCurves(w, "N1/N", pts)
			return nil
		}},
	{"fig2", "Figure 2 — TS vs P+TS winner map over (s1, N1/N)",
		func(c *workload.Corpus, w io.Writer) error {
			cells, err := bench.Figure2(c, 20, 40)
			if err != nil {
				return err
			}
			bench.FormatFigure2(w, cells)
			return nil
		}},
	{"q5", "§6 — multi-join Q5: traditional vs PrL execution spaces",
		func(_ *workload.Corpus, w io.Writer) error {
			rows, err := bench.MultiJoinQ5(workload.DefaultQ5())
			if err != nil {
				return err
			}
			bench.FormatQ5(w, rows)
			return nil
		}},
	{"validate", "§7 — Figure 1(A) validation: predicted vs measured at executed points (x = s1)",
		func(c *workload.Corpus, w io.Writer) error {
			pts, err := bench.Figure1AValidation(c, []float64{0.08, 0.16, 0.4, 0.8, 1.0})
			if err != nil {
				return err
			}
			bench.FormatValidation(w, pts)
			header(w, "§7 — Figure 1(B) validation: predicted vs measured at executed points (x = N1/N)")
			pts, err = bench.Figure1BValidation(c, 60, []float64{0.1, 0.3, 0.5, 0.8, 1.0})
			if err != nil {
				return err
			}
			bench.FormatValidation(w, pts)
			return nil
		}},
	{"ablation", "Ablations — execution-method design choices and §8 service extensions",
		func(c *workload.Corpus, w io.Writer) error {
			rows, err := bench.Ablations(c)
			if err != nil {
				return err
			}
			est, err := bench.EstimationCost(c)
			if err != nil {
				return err
			}
			bench.FormatAblations(w, rows, est)
			return nil
		}},
	{"correlation", "§4.2 ablation — fully correlated (g=1) vs independent joint statistics",
		func(c *workload.Corpus, w io.Writer) error {
			rows, err := bench.CorrelationAblation(c)
			if err != nil {
				return err
			}
			bench.FormatCorrelation(w, rows)
			return nil
		}},
	{"overhead", "§6 — optimizer enumeration effort vs number of relations",
		func(_ *workload.Corpus, w io.Writer) error {
			rows, err := bench.OptimizerOverhead(7)
			if err != nil {
				return err
			}
			bench.FormatOverhead(w, rows)
			return nil
		}},
	{"batchprobe", "Batched probe pushdown — probe round trips per tuple vs batched (M = 70)",
		func(c *workload.Corpus, w io.Writer) error {
			rows, err := bench.BatchProbeRounds(c)
			if err != nil {
				return err
			}
			bench.FormatBatchProbe(w, rows)
			return nil
		}},
}

// names lists the experiment names, "all" last.
func names() string {
	var out []string
	for _, e := range experiments {
		out = append(out, e.name)
	}
	return strings.Join(append(out, "all"), ", ")
}

func main() {
	var (
		exp  = flag.String("exp", "all", "experiment: "+names())
		docs = flag.Int("docs", 2000, "corpus size D")
		seed = flag.Int64("seed", 42, "generation seed")
	)
	flag.Parse()
	if err := run(os.Stdout, *exp, *docs, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		os.Exit(1)
	}
}

// run prints experiment exp ("all" for every one) over a corpus of docs
// documents generated from seed.
func run(w io.Writer, exp string, docs int, seed int64) error {
	c := workload.NewCorpus(workload.CorpusConfig{Docs: docs, Seed: seed})
	ran := false
	for _, e := range experiments {
		if exp != "all" && exp != e.name {
			continue
		}
		ran = true
		if err := e.print(c, w); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want one of %s)", exp, names())
	}
	return nil
}

// print writes the experiment's header and rows.
func (e experiment) print(c *workload.Corpus, w io.Writer) error {
	header(w, e.title)
	return e.run(c, w)
}

func header(w io.Writer, title string) {
	fmt.Fprintln(w)
	fmt.Fprintln(w, title)
	fmt.Fprintln(w, strings.Repeat("=", len(title)))
}
