package gateway_test

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"textjoin/internal/exec"
	"textjoin/internal/gateway"
	"textjoin/internal/replica"
)

// Line-grammar validator for the Prometheus text exposition format
// (version 0.0.4), so the /metrics surface is checked against the format
// contract without importing a client library. Grammar, per line:
//
//	# HELP <metric_name> <free text>
//	# TYPE <metric_name> <counter|gauge|histogram|summary|untyped>
//	<metric_name>{<label>="<value>",...} <float> [<timestamp>] [# {<labels>} <float>]
//
// The trailing `# {...} <float>` is the OpenMetrics-style exemplar suffix
// the exposition appends to histogram bucket lines that carry a retained
// trace ID.
var (
	metricName = `[a-zA-Z_:][a-zA-Z0-9_:]*`
	labelRe    = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$`)
	sampleRe   = regexp.MustCompile(`^(` + metricName + `)(\{([^}]*)\})? (\S+)( \d+)?( # \{([^}]*)\} (\S+))?$`)
	helpRe     = regexp.MustCompile(`^# HELP (` + metricName + `) .+$`)
	typeRe     = regexp.MustCompile(`^# TYPE (` + metricName + `) (counter|gauge|histogram|summary|untyped)$`)
)

// validatePromText checks every line of an exposition against the line
// grammar and the structural rules: samples follow a TYPE declaration for
// their family, TYPE precedes samples, and histogram le-bucket series are
// cumulative and consistent with _count. It returns the parsed samples.
func validatePromText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	typed := map[string]string{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			if !helpRe.MatchString(line) {
				t.Errorf("line %d: malformed HELP: %q", ln+1, line)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			m := typeRe.FindStringSubmatch(line)
			if m == nil {
				t.Errorf("line %d: malformed TYPE: %q", ln+1, line)
				continue
			}
			typed[m[1]] = m[2]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // comment
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %d: malformed sample: %q", ln+1, line)
			continue
		}
		name, labels, value := m[1], m[3], m[4]
		if labels != "" {
			for _, pair := range strings.Split(labels, ",") {
				if !labelRe.MatchString(pair) {
					t.Errorf("line %d: malformed label %q in %q", ln+1, pair, line)
				}
			}
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(value, "+"), 64)
		if err != nil && value != "+Inf" && value != "-Inf" && value != "NaN" {
			t.Errorf("line %d: unparsable value %q", ln+1, value)
		}
		if m[6] != "" { // exemplar suffix
			if !strings.HasSuffix(name, "_bucket") {
				t.Errorf("line %d: exemplar on non-bucket series %q", ln+1, name)
			}
			for _, pair := range strings.Split(m[7], ",") {
				if !labelRe.MatchString(pair) {
					t.Errorf("line %d: malformed exemplar label %q in %q", ln+1, pair, line)
				}
			}
			if _, err := strconv.ParseFloat(m[8], 64); err != nil {
				t.Errorf("line %d: unparsable exemplar value %q", ln+1, m[8])
			}
		}
		// A sample must belong to a declared family (histogram samples use
		// the base name + _bucket/_sum/_count suffixes).
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); base != name && typed[base] == "histogram" {
				family = base
			}
		}
		if _, ok := typed[family]; !ok {
			t.Errorf("line %d: sample %q has no preceding TYPE", ln+1, name)
		}
		samples[m[1]+m[2]] = v
	}
	// Histogram invariants: buckets cumulative (non-decreasing in le
	// order), +Inf bucket == _count.
	for family, kind := range typed {
		if kind != "histogram" {
			continue
		}
		type bkt struct {
			le    float64
			count float64
		}
		var buckets []bkt
		var inf, count float64
		for key, v := range samples {
			if strings.HasPrefix(key, family+`_bucket{le="`) {
				le := strings.TrimSuffix(strings.TrimPrefix(key, family+`_bucket{le="`), `"}`)
				if le == "+Inf" {
					inf = v
					continue
				}
				f, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Errorf("histogram %s: unparsable le %q", family, le)
					continue
				}
				buckets = append(buckets, bkt{le: f, count: v})
			}
			if key == family+"_count" {
				count = v
			}
		}
		sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
		for i := 1; i < len(buckets); i++ {
			if buckets[i].count < buckets[i-1].count {
				t.Errorf("histogram %s: bucket le=%g count %g < preceding %g (not cumulative)",
					family, buckets[i].le, buckets[i].count, buckets[i-1].count)
			}
		}
		if len(buckets) > 0 && inf < buckets[len(buckets)-1].count {
			t.Errorf("histogram %s: +Inf bucket %g < last finite bucket %g", family, inf, buckets[len(buckets)-1].count)
		}
		if inf != count {
			t.Errorf("histogram %s: +Inf bucket %g != _count %g", family, inf, count)
		}
	}
	return samples
}

func TestMetricsPromFormat(t *testing.T) {
	gw, _ := newGateway(t, gateway.Config{Workers: 2}, 64)
	warm(t, gw, testQueries...)
	if _, err := gw.Query(bg, "select nothing from nowhere"); err == nil {
		t.Fatal("bad query accepted")
	}

	var b strings.Builder
	gw.WriteMetrics(&b)
	text := b.String()
	samples := validatePromText(t, text)

	for key, min := range map[string]float64{
		"textjoin_queries_received_total":                4,
		"textjoin_queries_completed_total":               3,
		"textjoin_queries_failed_total":                  1,
		"textjoin_queries_plan_failed_total":             1,
		"textjoin_queries_partial_total":                 0,
		"textjoin_exec_batches_total":                    1,
		"textjoin_workers":                               2,
		"textjoin_in_flight_peak":                        1,
		"textjoin_query_latency_seconds_count":           3,
		`textjoin_text_searches_total{source="mercury"}`: 1,
		// Both caches report the same counters.
		"textjoin_cache_invalidations_total":       0,
		"textjoin_probe_cache_dedups_total":        0,
		"textjoin_probe_cache_invalidations_total": 0,
		// The in-program layer breakdown: both layers took some time.
		`textjoin_layer_seconds_total{layer="optimize"}`: 1e-9,
		`textjoin_layer_seconds_total{layer="execute"}`:  1e-9,
	} {
		got, ok := samples[key]
		if !ok {
			t.Errorf("series %s missing from exposition", key)
			continue
		}
		if got < min {
			t.Errorf("%s = %g, want >= %g", key, got, min)
		}
	}
	// The executed plans feed the per-method series: at least one method
	// must have completed queries attributed to it.
	found := false
	for key := range samples {
		if strings.HasPrefix(key, "textjoin_join_method_queries_total{") {
			found = true
		}
	}
	if !found {
		t.Errorf("no per-join-method series in exposition:\n%s", text)
	}
}

// TestMetricsReplicaSeries: with a replica fleet wired in, the routing
// series appear in the exposition — and they pass the same line-grammar
// validation as everything else. Without the wiring they are absent.
func TestMetricsReplicaSeries(t *testing.T) {
	stats := replica.Stats{
		Hedges: 42, HedgeWins: 17, HedgeCancels: 40,
		Failovers: 5, Ejections: 2, Readmissions: 1,
		Replicas: 4, Ejected: 1, Lagging: 1, InFlight: 0,
	}
	gw, _ := newGateway(t, gateway.Config{
		Workers:      2,
		ReplicaStats: func() replica.Stats { return stats },
	}, 0)
	warm(t, gw, testQueries[0])

	var b strings.Builder
	gw.WriteMetrics(&b)
	samples := validatePromText(t, b.String())

	for key, want := range map[string]float64{
		"textjoin_hedge_total":                42,
		"textjoin_hedge_wins_total":           17,
		"textjoin_hedge_cancels_total":        40,
		"textjoin_replica_failovers_total":    5,
		"textjoin_replica_ejections_total":    2,
		"textjoin_replica_readmissions_total": 1,
		"textjoin_replica_ejected":            1,
		"textjoin_replica_lagging":            1,
		"textjoin_replicas":                   4,
		"textjoin_replica_in_flight":          0,
	} {
		got, ok := samples[key]
		if !ok {
			t.Errorf("series %s missing from exposition", key)
			continue
		}
		if got != want {
			t.Errorf("%s = %g, want %g", key, got, want)
		}
	}

	// Unreplicated gateways must not emit the series at all.
	gw2, _ := newGateway(t, gateway.Config{Workers: 2}, 0)
	var b2 strings.Builder
	gw2.WriteMetrics(&b2)
	if strings.Contains(b2.String(), "textjoin_hedge_total") {
		t.Error("replica series emitted without a fleet wired in")
	}
}

// TestGatewayAnalyze: the analyze path returns the per-operator
// estimate-vs-actual tree and the span trace, with a nonzero actual cost
// at every node above the text join (cost is cumulative per subtree).
func TestGatewayAnalyze(t *testing.T) {
	gw, _ := newGateway(t, gateway.Config{Workers: 2}, 0)
	resp, err := gw.Analyze(bg, testQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.TraceID == "" {
		t.Error("analyze response has no trace ID")
	}
	if resp.Trace == nil {
		t.Error("analyze response has no span trace")
	} else if len(resp.Trace.Children) == 0 {
		t.Error("span trace has no children")
	}
	if resp.Analyze == nil {
		t.Fatal("analyze response has no analyze tree")
	}
	if resp.Analyze.ActCost <= 0 {
		t.Errorf("root actual cost = %g, want > 0 for a text-hitting query", resp.Analyze.ActCost)
	}
	// Every node of the tree carries a description and a recorded elapsed
	// time; costs are cumulative per subtree, so a child's actual cost may
	// not exceed its parent's.
	var walk func(n *exec.AnalyzeNode)
	walk = func(n *exec.AnalyzeNode) {
		if n.Op == "" {
			t.Error("analyze node with empty op")
		}
		if n.ActTimeNs <= 0 {
			t.Errorf("node %s has no recorded elapsed time", n.Op)
		}
		for _, c := range n.Children {
			if c.ActCost > n.ActCost+1e-9 {
				t.Errorf("child %s actual cost %g exceeds parent %s actual cost %g",
					c.Op, c.ActCost, n.Op, n.ActCost)
			}
			walk(c)
		}
	}
	walk(resp.Analyze)
}

// TestGatewaySlowQueryLog: a query crossing the cost threshold is dumped
// with its span tree and counted.
func TestGatewaySlowQueryLog(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	gw, _ := newGateway(t, gateway.Config{
		Workers:       2,
		Trace:         true,
		SlowQueryCost: 1e-9, // every text-hitting query crosses it
		SlowLogf: func(format string, args ...interface{}) {
			mu.Lock()
			logged = append(logged, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	}, 0)
	resp, err := gw.Query(bg, testQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.TraceID == "" {
		t.Error("Trace config did not attach a recorder")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logged) != 1 {
		t.Fatalf("slow log fired %d times, want 1", len(logged))
	}
	entry := logged[0]
	for _, want := range []string{"slow query", "trace=q-", "gateway.admit", "execute", "local.search"} {
		if !strings.Contains(entry, want) {
			t.Errorf("slow-log entry missing %q:\n%s", want, entry)
		}
	}
	if got := gw.Stats().SlowLogged; got != 1 {
		t.Errorf("SlowLogged = %d, want 1", got)
	}
}

// TestGatewayGaugesInStats: the live and peak occupancy gauges and the
// per-layer engine seconds surface in the snapshot.
func TestGatewayGaugesInStats(t *testing.T) {
	gw, _ := newGateway(t, gateway.Config{Workers: 2}, 0)
	warm(t, gw, testQueries[0])
	s := gw.Stats()
	if s.InFlight != 0 || s.Queued != 0 {
		t.Errorf("quiescent gauges in_flight=%d queued=%d, want 0/0", s.InFlight, s.Queued)
	}
	if s.InFlightPeak < 1 {
		t.Errorf("in_flight peak = %d, want >= 1 after a completed query", s.InFlightPeak)
	}
	if s.OptimizeSeconds <= 0 || s.ExecuteSeconds <= 0 {
		t.Errorf("layer seconds optimize=%g execute=%g, want both > 0 after a completed query",
			s.OptimizeSeconds, s.ExecuteSeconds)
	}
}
