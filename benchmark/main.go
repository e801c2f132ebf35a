// Command benchmark is the repository's benchmark: four gateway
// workloads measured end to end with tracing off, and a single-client
// traced pass that breaks a query's time down by layer from outside the
// program. BENCHMARK.json at the repository root names the workloads and
// metrics and fixes the regression bounds; README.md in this directory
// explains them.
//
//	go run ./benchmark                         # every workload, every metric
//	go run ./benchmark -out results.json       # ... and the same as JSON
//	go run ./benchmark -repeat 5               # run-to-run spread against the bounds
//	go run ./benchmark --workload cold_local --seed 7 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// unit of every metric the benchmark prints, end-to-end first.
var endToEndUnits = map[string]string{
	"setup_s":            "s",
	"query_p50_ms":       "ms",
	"query_p95_ms":       "ms",
	"throughput_qps":     "1/s",
	"ok_ratio":           "ratio",
	"sim_text_cost_s":    "s",
	"alloc_kb_per_query": "kB",
	"heap_live_mb":       "MB",
}

var perLayerUnits = map[string]string{
	"sqlparse.ms_per_query":                 "ms",
	"optimizer.ms_per_query":                "ms",
	"optimizer.text_ms_per_query":           "ms",
	"optimizer.searches_per_query":          "count",
	"exec.ms_per_query":                     "ms",
	"exec.self_ms_per_query":                "ms",
	"exec.batches_per_query":                "count",
	"exec.rows_per_query":                   "count",
	"exec.methods_distinct":                 "count",
	"exec.method.ts.queries":                "count",
	"exec.method.rtp.queries":               "count",
	"exec.method.sj_rtp.queries":            "count",
	"exec.method.p_ts.queries":              "count",
	"exec.method.p_rtp.queries":             "count",
	"exec.method.p_ts_batched.queries":      "count",
	"exec.method.p_rtp_batched.queries":     "count",
	"texservice.cache.hit_ratio":            "ratio",
	"texservice.cache.self_ms_per_query":    "ms",
	"texservice.cache.dedups":               "count",
	"texservice.cache.invalidations":        "count",
	"texservice.probecache.hit_ratio":       "ratio",
	"textidx.eval_ms_per_query":             "ms",
	"textidx.eval_us_per_search":            "us",
	"textidx.searches_per_query":            "count",
	"textidx.postings_per_query":            "count",
	"textidx.short_docs_per_query":          "count",
	"textidx.long_docs_per_query":           "count",
	"shard.self_us_per_search":              "us",
	"shard.searches_per_query":              "count",
	"replica.self_us_per_call":              "us",
	"replica.hedges":                        "count",
	"replica.hedge_wins":                    "count",
	"replica.failovers":                     "count",
	"texservice.wire.self_us_per_roundtrip": "us",
	"texservice.wire.self_us_per_hit":       "us",
	"texservice.wire.roundtrips_per_query":  "count",
	"ingest.ack_p50_ms":                     "ms",
	"ingest.ack_p95_ms":                     "ms",
	"ingest.apply_ms_per_batch":             "ms",
	"ingest.wal_syncs_per_batch":            "count",
	"ingest.compactions":                    "count",
	"ingest.delta_len_end":                  "count",
	"ingest.version_end":                    "count",
	"gateway.queue_ms_per_query":            "ms",
	"gateway.overhead_ms_per_query":         "ms",
	"loadgen.query_n":                       "count",
	"loadgen.ingest_n":                      "count",
	"loadgen.ingest_late_p95_ms":            "ms",
	"trace.overhead_ratio":                  "ratio",
	"trace.parallel_overlap_ms_per_query":   "ms",
	"trace.unattributed_ms_per_query":       "ms",
	"trace.query_ms":                        "ms",
}

// The WAL's shipped durability policy, stated beside the ingest numbers.
const fsyncPolicy = "ingest.Options defaults: every batch fsynced before its ack, group commit across concurrent writers"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func withUnits(values map[string]float64, units map[string]string) map[string]metric {
	out := make(map[string]metric, len(values))
	for name, v := range values {
		out[name] = metric{Value: v, Unit: units[name]}
	}
	return out
}

// driverLine is the one-line result the benchmark contract asks for.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment is recorded beside the numbers of a suite run.
type environment struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Clients     int     `json:"clients"`
	FsyncPolicy string  `json:"fsync_policy"`
}

type suiteWorkload struct {
	Name      string            `json:"name"`
	Why       string            `json:"why"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
}

type suiteReport struct {
	Environment environment     `json:"environment"`
	Workloads   []suiteWorkload `json:"workloads"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print one JSON line (the driver's mode); empty runs all four")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 20, "length of the measured phase")
		trace    = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		repeat   = flag.Int("repeat", 0, "run the suite this many times (seeds seed, seed+1, ...) and print each end-to-end metric's spread against its bound")
		out      = flag.String("out", "", "also write the suite's results to this file as JSON")
	)
	flag.Parse()

	cfg := config{sz: fullSizes, seed: *seed, seconds: *seconds, clients: defaultClients(runtime.NumCPU()), setups: 3}
	var err error
	if cfg.tmpRoot, err = os.MkdirTemp(".", ".bench_tmp-"); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}

	code := 0
	switch {
	case *workload != "":
		code = runDriver(*workload, cfg, *trace == 1)
	case *repeat > 0:
		code = runRepeat(cfg, *repeat)
	default:
		code = runSuite(cfg, *out)
	}
	_ = os.RemoveAll(cfg.tmpRoot)
	os.Exit(code)
}

// defaultClients is the closed-loop client count: one per core up to
// four, less one. The spare core absorbs what is not a client — the
// garbage collector, the fleet's servers, the paced writer, the box's
// other processes; with every core taken by a client the run-to-run
// spread of the latencies on a 2-core box was four times as wide.
func defaultClients(nproc int) int {
	clients := nproc - 1
	if clients > 4 {
		clients = 4
	}
	if clients < 1 {
		clients = 1
	}
	return clients
}

// runDriver runs one workload and prints the contract's JSON object as
// the last line of standard output.
func runDriver(name string, cfg config, traced bool) int {
	sp, ok := specByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	cfg.trace = traced
	if traced {
		cfg.setups = 1 // setup_s is not among the per-layer metrics
	}
	res, err := runWorkload(sp, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	for _, e := range res.errs {
		fmt.Fprintln(os.Stderr, "benchmark:", firstLine(e))
	}
	line := driverLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed}
	if traced {
		line.Metrics = withUnits(res.perLayer, perLayerUnits)
	} else {
		line.Metrics = withUnits(res.endToEnd, endToEndUnits)
	}
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Println(string(enc))
	if res.failed > 0 {
		return 1
	}
	return 0
}

// runSuite runs every workload with the traced pass and prints every
// metric by name with its unit.
func runSuite(cfg config, outPath string) int {
	cfg.trace = true
	report := suiteReport{Environment: environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Seed: cfg.seed, Seconds: cfg.seconds, Clients: cfg.clients, FsyncPolicy: fsyncPolicy,
	}}
	env := report.Environment
	fmt.Printf("nproc=%d GOMAXPROCS=%d %s seed=%d seconds=%g clients=%d (closed loop)\nfsync: %s\n",
		env.NProc, env.GOMAXPROCS, env.GoVersion, env.Seed, env.Seconds, env.Clients, env.FsyncPolicy)
	code := 0
	for _, sp := range specs {
		res, err := runWorkload(sp, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
			return 2
		}
		w := suiteWorkload{
			Name: sp.name, Why: sp.why, Correct: res.failed == 0,
			Attempted: res.attempted, Failed: res.failed, Failures: res.errs,
			EndToEnd: withUnits(res.endToEnd, endToEndUnits),
			PerLayer: withUnits(res.perLayer, perLayerUnits),
		}
		report.Workloads = append(report.Workloads, w)
		fmt.Printf("\n== %s: %s\n   attempted %d, failed %d\n", sp.name, sp.why, res.attempted, res.failed)
		printMetrics(w.EndToEnd)
		fmt.Println("   -- per layer (single-client traced pass; gateway/loadgen/ingest rows from the measured phase)")
		printMetrics(w.PerLayer)
		for _, e := range res.errs {
			fmt.Printf("   FAILURE: %s\n", firstLine(e))
		}
		if res.failed > 0 {
			code = 1
		}
	}
	if outPath != "" {
		enc, err := json.MarshalIndent(report, "", "  ")
		if err == nil {
			err = os.WriteFile(outPath, append(enc, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	return code
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("   %-40s %14.4f %s\n", name, ms[name].Value, ms[name].Unit)
	}
}
