package gateway

import (
	"fmt"
	"io"
	"strconv"
)

// Prometheus text exposition (format version 0.0.4), hand-rolled over the
// gateway's Snapshot so the serving layer needs no client library. Every
// series is prefixed "textjoin_"; histograms are emitted the Prometheus
// way — cumulative le-labeled buckets plus _sum and _count — cumulated
// here from the histogram's raw per-bucket counts.

// ContentTypeMetrics is the Content-Type of the exposition.
const ContentTypeMetrics = "text/plain; version=0.0.4; charset=utf-8"

// WriteMetrics writes the gateway's current state in Prometheus text
// exposition format.
func (g *Gateway) WriteMetrics(w io.Writer) {
	s := g.Stats()

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP textjoin_%s %s\n# TYPE textjoin_%s counter\ntextjoin_%s %d\n",
			name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP textjoin_%s %s\n# TYPE textjoin_%s gauge\ntextjoin_%s %s\n",
			name, help, name, name, fnum(v))
	}

	counter("queries_received_total", "Queries that reached admission.", s.Received)
	counter("queries_admitted_total", "Queries that got a worker slot.", s.Admitted)
	counter("queries_completed_total", "Admitted queries that returned rows.", s.Completed)
	counter("queries_failed_total", "Admitted queries that returned an error.", s.Failed)
	fmt.Fprintf(w, "# HELP textjoin_queries_shed_total Queries shed by admission control.\n")
	fmt.Fprintf(w, "# TYPE textjoin_queries_shed_total counter\n")
	fmt.Fprintf(w, "textjoin_queries_shed_total{reason=\"queue_full\"} %d\n", s.ShedQueueFull)
	fmt.Fprintf(w, "textjoin_queries_shed_total{reason=\"queue_timeout\"} %d\n", s.ShedQueueTimeout)
	counter("queries_rejected_draining_total", "Queries rejected while draining.", s.RejectedDraining)
	counter("queries_abandoned_queue_total", "Queries whose caller gave up while queued.", s.AbandonedQueue)
	counter("queries_budget_aborted_total", "Queries aborted by the per-query cost cap.", s.BudgetAborted)
	counter("queries_partial_total", "Completed queries whose answer is best-effort: a text source lost a shard.", s.Partial)
	counter("queries_timed_out_total", "Queries aborted by the per-query deadline.", s.TimedOut)
	counter("queries_plan_failed_total", "Queries that failed to parse, analyze or optimize.", s.PlanFailed)
	counter("queries_slow_logged_total", "Queries dumped to the slow-query log.", s.SlowLogged)
	counter("slow_dumps_suppressed_total", "Slow-query span dumps dropped by the per-minute dump budget.", s.SlowDumpSuppressed)
	counter("exec_batches_total", "Column batches emitted by the vectorized execution engine.", s.ExecBatches)
	fmt.Fprintf(w, "# HELP textjoin_layer_seconds_total Wall-clock seconds completed queries spent in each engine layer.\n")
	fmt.Fprintf(w, "# TYPE textjoin_layer_seconds_total counter\n")
	fmt.Fprintf(w, "textjoin_layer_seconds_total{layer=\"optimize\"} %s\n", fnum(s.OptimizeSeconds))
	fmt.Fprintf(w, "textjoin_layer_seconds_total{layer=\"execute\"} %s\n", fnum(s.ExecuteSeconds))
	counter("ingest_batches_total", "Acked document-ingest batches.", s.IngestBatches)
	counter("ingest_ops_total", "Acked document-ingest operations (puts and deletes).", s.IngestOps)
	counter("ingest_failed_total", "Document-ingest batches rejected or failed.", s.IngestFailed)

	gauge("workers", "Configured worker-pool size.", float64(s.Workers))
	gauge("queue_depth", "Configured admission queue capacity.", float64(s.QueueDepth))
	gauge("in_flight", "Queries currently executing.", float64(s.InFlight))
	gauge("queued", "Queries currently waiting for a worker slot.", float64(s.Queued))
	gauge("in_flight_peak", "High-water mark of concurrently executing queries.", float64(s.InFlightPeak))
	gauge("queued_peak", "High-water mark of the admission queue.", float64(s.QueuedPeak))
	draining := 0.0
	if s.Draining {
		draining = 1
	}
	gauge("draining", "Whether the gateway is draining (1) or serving (0).", draining)

	counter("cache_hits_total", "Shared search-cache hits.", uint64(s.Cache.Hits))
	counter("cache_misses_total", "Shared search-cache misses.", uint64(s.Cache.Misses))
	counter("cache_dedups_total", "Searches answered by waiting on an identical in-flight search.", uint64(s.Cache.Dedups))
	counter("cache_invalidations_total", "Shared search-cache invalidations (index version or generation moved).", uint64(s.Cache.Invalidations))
	counter("probe_cache_hits_total", "Cross-query probe-result cache hits.", uint64(s.ProbeCache.Hits))
	counter("probe_cache_misses_total", "Cross-query probe-result cache misses.", uint64(s.ProbeCache.Misses))
	counter("probe_cache_dedups_total", "Probes answered by waiting on an identical in-flight probe.", uint64(s.ProbeCache.Dedups))
	counter("probe_cache_invalidations_total", "Probe-result cache invalidations.", uint64(s.ProbeCache.Invalidations))

	// Per-source cumulative usage, from the shared meters (all queries,
	// not just this gateway's — the meters are the backends' own books).
	usages := make([]struct {
		name                         string
		searches, retrieves, retries int
		cost                         float64
	}, len(g.sources))
	for i, src := range g.sources {
		u := src.meter.Snapshot()
		usages[i].name = src.name
		usages[i].searches = u.Searches
		usages[i].retrieves = u.Retrieves
		usages[i].retries = u.Retries
		usages[i].cost = u.Cost
	}
	fmt.Fprintf(w, "# HELP textjoin_text_searches_total Searches sent to the text source.\n")
	fmt.Fprintf(w, "# TYPE textjoin_text_searches_total counter\n")
	for _, u := range usages {
		fmt.Fprintf(w, "textjoin_text_searches_total{source=%q} %d\n", u.name, u.searches)
	}
	fmt.Fprintf(w, "# HELP textjoin_text_retrieves_total Document retrievals from the text source.\n")
	fmt.Fprintf(w, "# TYPE textjoin_text_retrieves_total counter\n")
	for _, u := range usages {
		fmt.Fprintf(w, "textjoin_text_retrieves_total{source=%q} %d\n", u.name, u.retrieves)
	}
	fmt.Fprintf(w, "# HELP textjoin_text_retries_total Text-service invocations that were retried after a failure.\n")
	fmt.Fprintf(w, "# TYPE textjoin_text_retries_total counter\n")
	for _, u := range usages {
		fmt.Fprintf(w, "textjoin_text_retries_total{source=%q} %d\n", u.name, u.retries)
	}
	fmt.Fprintf(w, "# HELP textjoin_text_cost_seconds_total Simulated text-service cost (the paper's cost model).\n")
	fmt.Fprintf(w, "# TYPE textjoin_text_cost_seconds_total counter\n")
	for _, u := range usages {
		fmt.Fprintf(w, "textjoin_text_cost_seconds_total{source=%q} %s\n", u.name, fnum(u.cost))
	}

	// Replica-routing series, present only when a fleet fronts the
	// engine's text sources (Config.ReplicaStats wired by the daemon).
	if g.cfg.ReplicaStats != nil {
		rs := g.cfg.ReplicaStats()
		counter("hedge_total", "Hedged (speculative) replica requests launched.", rs.Hedges)
		counter("hedge_wins_total", "Hedged requests that beat the primary attempt.", rs.HedgeWins)
		counter("hedge_cancels_total", "Losing replica attempts cancelled after a hedged race.", rs.HedgeCancels)
		counter("replica_failovers_total", "Failed replica attempts retried on another replica.", rs.Failovers)
		counter("replica_ejections_total", "Replicas ejected from selection after consecutive failures or hedge losses.", rs.Ejections)
		counter("replica_readmissions_total", "Ejected replicas re-admitted by a successful probe.", rs.Readmissions)
		gauge("replica_ejected", "Replicas currently out of rotation.", float64(rs.Ejected))
		gauge("replica_lagging", "Replicas currently missing acknowledged writes.", float64(rs.Lagging))
		gauge("replicas", "Total replicas across all partitions.", float64(rs.Replicas))
		gauge("replica_in_flight", "Requests currently outstanding against replica backends.", float64(rs.InFlight))
	}

	// Per-join-method outcome series, fed by the executed plans.
	methods := g.methodSnapshot()
	fmt.Fprintf(w, "# HELP textjoin_join_method_queries_total Completed queries per chosen join method.\n")
	fmt.Fprintf(w, "# TYPE textjoin_join_method_queries_total counter\n")
	for _, m := range methods {
		fmt.Fprintf(w, "textjoin_join_method_queries_total{method=%q} %d\n", m.Method, m.Queries)
	}
	fmt.Fprintf(w, "# HELP textjoin_join_method_text_cost_seconds_total Simulated text cost attributed to each join method.\n")
	fmt.Fprintf(w, "# TYPE textjoin_join_method_text_cost_seconds_total counter\n")
	for _, m := range methods {
		fmt.Fprintf(w, "textjoin_join_method_text_cost_seconds_total{method=%q} %s\n", m.Method, fnum(m.TextCost))
	}

	// Trace-retention series, present only when queryd runs a trace store.
	if s.Traces != nil {
		gauge("traces_retained", "Traces currently held in the retention ring.", float64(s.Traces.Retained))
		counter("traces_kept_total", "Traces admitted to the retention ring.", s.Traces.Kept)
		counter("traces_tail_total", "Traces retained by the tail rules (error/overload/budget/timeout/slow).", s.Traces.Tail)
		counter("traces_sampled_total", "Healthy traces retained by the 1-in-N sampler.", s.Traces.Sampled)
		counter("traces_sampled_out_total", "Healthy traces dropped by the 1-in-N sampler.", s.Traces.SampledOut)
		counter("traces_evicted_total", "Retained traces later overwritten by the ring.", s.Traces.Evicted)
	}
	// Telemetry-sink series, present only when queryd runs a feedback sink.
	if s.Telemetry != nil {
		gauge("telemetry_retained", "Telemetry records currently held in the sink ring.", float64(s.Telemetry.Retained))
		counter("telemetry_records_total", "Telemetry records appended.", s.Telemetry.Appended)
		counter("telemetry_file_lines_total", "Telemetry records written to the backing file.", s.Telemetry.FileLines)
	}

	writeHistogram(w, "query_latency_seconds", "Post-admission query latency.", s.Latency)
	writeHistogram(w, "query_text_cost_seconds", "Per-query simulated text-service cost.", s.TextCost)
}

// writeHistogram emits one histogram: cumulative le buckets, +Inf, _sum,
// _count. A bucket whose latest observation came from a retained trace
// carries an OpenMetrics-style exemplar suffix — `# {trace_id="q-7"}
// 0.0043` — linking the latency bucket to a trace /trace/{id} can serve.
func writeHistogram(w io.Writer, name, help string, h HistSnapshot) {
	fmt.Fprintf(w, "# HELP textjoin_%s %s\n# TYPE textjoin_%s histogram\n", name, help, name)
	var cum int64
	for i, n := range h.Buckets {
		cum += n
		fmt.Fprintf(w, "textjoin_%s_bucket{le=%q} %d", name, fnum(upperBound(i)), cum)
		if i < len(h.Exemplars) && h.Exemplars[i].TraceID != "" {
			fmt.Fprintf(w, " # {trace_id=%q} %s", h.Exemplars[i].TraceID, fnum(h.Exemplars[i].Value))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "textjoin_%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	fmt.Fprintf(w, "textjoin_%s_sum %s\n", name, fnum(h.Sum))
	fmt.Fprintf(w, "textjoin_%s_count %d\n", name, h.Count)
}

// fnum renders a float the way Prometheus expects (shortest round-trip).
func fnum(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
