package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchmarkFile is BENCHMARK.json as far as the benchmark reads it: the
// end-to-end metrics with their directions and regression bounds.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// quartiles returns the first, second and third quartile the way
// Python's statistics.quantiles(values, n=4) does (the exclusive
// method), which is how the benchmark's acceptance measures spread.
func quartiles(values []float64) (q1, q2, q3 float64) {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n < 2 {
		return sorted[0], sorted[0], sorted[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		// Beyond the clamp this extrapolates, as Python does.
		delta := float64(k*(n+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// runRepeat runs the suite's end-to-end part n times, the i-th time with
// seed+i, and prints for every workload and end-to-end metric the
// minimum, median and maximum, the quartile distance as a share of the
// median, and whether that spread stays within the metric's bound in
// BENCHMARK.json.
func runRepeat(cfg config, n int) int {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -repeat reads the bounds from BENCHMARK.json in the working directory:", err)
		return 2
	}
	code := 0
	for _, sp := range specs {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			c := cfg
			c.seed = cfg.seed + int64(i)
			res, err := runWorkload(sp, c)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
				return 2
			}
			if res.failed > 0 {
				fmt.Printf("%s seed %d: %d of %d operations failed\n", sp.name, c.seed, res.failed, res.attempted)
				code = 1
			}
			for name, v := range res.endToEnd {
				values[name] = append(values[name], v)
			}
		}
		fmt.Printf("\n== %s (%d runs, seeds %d..%d)\n", sp.name, n, cfg.seed, cfg.seed+int64(n)-1)
		fmt.Printf("   %-20s %12s %12s %12s %8s %8s\n", "metric", "min", "median", "max", "spread", "bound")
		for _, m := range bf.EndToEnd {
			vs := values[m.Name]
			if len(vs) == 0 {
				fmt.Printf("   %-20s not reported\n", m.Name)
				code = 1
				continue
			}
			q1, q2, q3 := quartiles(vs)
			spread := per(q3-q1, q2)
			verdict := "PASS"
			// setup_s is held to its bound on the median only.
			if spread > m.Bound && m.Name != "setup_s" {
				verdict = "FAIL"
				code = 1
			}
			sorted := append([]float64(nil), vs...)
			sort.Float64s(sorted)
			fmt.Printf("   %-20s %12.4f %12.4f %12.4f %7.2f%% %7.2f%% %s\n",
				m.Name, sorted[0], q2, sorted[len(sorted)-1], 100*spread, 100*m.Bound, verdict)
		}
	}
	return code
}
