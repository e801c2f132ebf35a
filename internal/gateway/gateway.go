// Package gateway is the concurrent query-serving subsystem: it accepts
// conjunctive SQL text, plans it with the engine's optimizer, and executes
// it against one shared text-service stack from many clients at once —
// the setting where the paper's per-invocation text-source costs dominate
// and a production system must protect itself from its own traffic.
//
// The gateway owns four concerns the single-query engine does not have:
//
//   - Admission control. A bounded worker pool executes at most Workers
//     queries concurrently; excess arrivals wait in a bounded queue of
//     QueueDepth and are shed with a structured *OverloadError when the
//     queue is full or when they have waited longer than QueueTimeout.
//     Shedding returns a fast, explicit "overloaded" instead of degrading
//     every query's latency.
//
//   - Per-query budgets. Every admitted query runs under an optional
//     wall-clock deadline (QueryTimeout) and an optional simulated
//     text-cost cap (CostLimit): a per-query texservice.Meter — isolated
//     from the shared meters via the query-meter context — is armed with
//     the cap and cancels the query's context the moment its accumulated
//     cost crosses it, aborting runaway plans mid-flight.
//
//   - A stats surface. Lock-free counters (admitted/queued/shed/failed/…),
//     latency and per-query text-cost histograms, shared-cache hit rates
//     and the shared meters' cumulative usage, snapshotable as JSON.
//
//   - Graceful drain. Drain stops admission (new queries get ErrDraining,
//     queued ones are woken and rejected) and waits for in-flight queries
//     to finish.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"textjoin/internal/core"
	"textjoin/internal/exec"
	"textjoin/internal/obs"
	"textjoin/internal/plan"
	"textjoin/internal/replica"
	"textjoin/internal/telemetry"
	"textjoin/internal/texservice"
)

// Config tunes the gateway.
type Config struct {
	// Workers is the maximum number of concurrently executing queries
	// (default 4).
	Workers int
	// QueueDepth bounds how many queries may wait for a worker slot
	// beyond the executing ones (default 2×Workers).
	QueueDepth int
	// QueueTimeout sheds a queued query that has not been admitted in
	// time (default 1s).
	QueueTimeout time.Duration
	// QueryTimeout is the per-query wall-clock deadline, applied after
	// admission; 0 disables it.
	QueryTimeout time.Duration
	// CostLimit caps a query's simulated text-service cost in seconds
	// (the paper's cost model); a query whose accumulated per-query cost
	// crosses it is aborted with a *BudgetError. 0 disables it.
	CostLimit float64
	// Trace attaches a per-query obs recorder ("q-<n>") to every query
	// that does not already carry one, so the slow-query log can dump the
	// full span tree. Off by default: tracing costs a few allocations per
	// span on the query path.
	Trace bool
	// SlowQueryLatency logs any query whose post-admission latency meets
	// or exceeds it (span tree included when Trace is on). 0 disables it.
	SlowQueryLatency time.Duration
	// SlowQueryCost logs any query whose simulated text cost meets or
	// exceeds it, independently of SlowQueryLatency. 0 disables it.
	SlowQueryCost float64
	// SlowLogf receives slow-query log entries; log.Printf when nil.
	SlowLogf func(format string, args ...interface{})
	// ReplicaStats, when set, feeds the replica-routing series in
	// /metrics (hedges, failovers, ejections) from the fleet fronting
	// the engine's text sources. Nil suppresses the series entirely —
	// an unreplicated deployment has no routing tier to report on.
	ReplicaStats func() replica.Stats
	// TraceStore, when set, retains completed query traces under tail-
	// based sampling and serves them at /trace/{id} and /traces. It
	// implies per-query tracing (like Trace) for every served query, and
	// retained trace IDs become histogram exemplars in /metrics.
	TraceStore *obs.TraceStore
	// Telemetry, when set, receives one structured record per served
	// query: normalized SQL shape, per-node est-vs-act rows/cost, probe
	// fanouts, hedge/failover counts. It implies per-node actuals
	// collection (the EXPLAIN ANALYZE machinery) on every query.
	Telemetry *telemetry.Sink
	// SlowDumpSpans caps how many spans one slow-query log entry may dump
	// (default 64); deeper trees are truncated with a count.
	SlowDumpSpans int
	// SlowDumpBudget bounds span dumps in the slow-query log to this many
	// per minute (default 12): under sustained overload every query can
	// cross the slow threshold, and unbounded tree dumps would turn the
	// log itself into the memory hog. Entries past the budget keep the
	// one-line summary and drop only the tree.
	SlowDumpBudget int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = time.Second
	}
	if c.SlowDumpSpans <= 0 {
		c.SlowDumpSpans = 64
	}
	if c.SlowDumpBudget <= 0 {
		c.SlowDumpBudget = 12
	}
	return c
}

// Overload reasons.
const (
	ReasonQueueFull    = "queue full"
	ReasonQueueTimeout = "queue timeout"
)

// OverloadError is the structured load-shedding error: the gateway had no
// worker slot and either the wait queue was at capacity or the query
// waited longer than the queue timeout. Clients should back off and
// retry; the query was never admitted and consumed no text-service work.
type OverloadError struct {
	Reason     string // ReasonQueueFull or ReasonQueueTimeout
	Workers    int
	QueueDepth int
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("gateway: overloaded (%s; %d workers, queue depth %d)",
		e.Reason, e.Workers, e.QueueDepth)
}

// IsOverloaded reports whether err is a load-shedding rejection.
func IsOverloaded(err error) bool {
	var o *OverloadError
	return errors.As(err, &o)
}

// BudgetError reports a query aborted by its per-query cost cap.
type BudgetError struct {
	Limit float64 // the configured cap, simulated seconds
	Spent float64 // cost accumulated when the abort fired
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("gateway: query exceeded its text-cost budget (spent %.2fs of %.2fs)",
		e.Spent, e.Limit)
}

// ErrDraining rejects queries arriving while (or after) the gateway
// drains.
var ErrDraining = errors.New("gateway: shutting down, not accepting queries")

// Gateway serves queries concurrently against one shared engine. It is
// safe for concurrent use by any number of goroutines.
type Gateway struct {
	eng   *core.Engine
	cfg   Config
	slots chan struct{} // worker tokens; len == executing queries

	ctrs     counters
	latency  histogram
	textCost histogram
	qseq     atomic.Uint64 // per-gateway query trace IDs ("q-<n>")

	caches      []cacheCounters     // search caches (Cached) discovered on the engine
	probeCaches []cacheCounters     // probe-result caches (ProbeCache) discovered on the engine
	meters      []*texservice.Meter // distinct shared meters, for Snapshot.Text
	sources     []namedMeter        // same meters with a source label, for /metrics

	// methods accumulates per-join-method outcome series for /metrics:
	// which of the paper's §3 methods the optimizer picked and what each
	// cost. Guarded by methodMu — touched once per completed query, so a
	// mutex-guarded map beats preregistering every method name.
	methodMu sync.Mutex
	methods  map[string]*methodCounts

	// slowDumps rotates the slow-query log's span-dump budget: at most
	// SlowDumpBudget tree dumps per minute window.
	slowDumps struct {
		sync.Mutex
		window int64 // unix minute of the current window
		used   int
	}

	mu       sync.Mutex
	draining bool
	drainCh  chan struct{}  // closed when draining starts; wakes queued waiters
	inflight sync.WaitGroup // admitted, not yet finished
}

// New builds a gateway over a fully registered engine. The engine must
// not be mutated (no further registrations) once the gateway serves it.
func New(eng *core.Engine, cfg Config) *Gateway {
	cfg = cfg.withDefaults()
	g := &Gateway{
		eng:     eng,
		cfg:     cfg,
		slots:   make(chan struct{}, cfg.Workers),
		drainCh: make(chan struct{}),
		methods: map[string]*methodCounts{},
	}
	// Discover the per-source cache decorators and shared meters for the
	// stats surface. Sources are walked in sorted order so snapshots are
	// deterministic.
	var names []string
	for name := range eng.Catalog().Text {
		names = append(names, name)
	}
	sort.Strings(names)
	seen := map[*texservice.Meter]bool{}
	for _, name := range names {
		svc := eng.TextService(name)
		if svc == nil {
			continue
		}
		// Walk the decorator chain: the engine may stack a probe cache on
		// top of the search cache on top of the backend.
		for s := svc; s != nil; {
			switch d := s.(type) {
			case *texservice.Cached:
				g.caches = append(g.caches, d)
			case *texservice.ProbeCache:
				g.probeCaches = append(g.probeCaches, d)
			}
			u, ok := s.(interface{ Unwrap() texservice.Service })
			if !ok {
				break
			}
			s = u.Unwrap()
		}
		if m := svc.Meter(); m != nil && !seen[m] {
			seen[m] = true
			g.meters = append(g.meters, m)
			g.sources = append(g.sources, namedMeter{name: name, meter: m})
		}
	}
	return g
}

// namedMeter labels a shared meter with its text source's name for the
// per-source /metrics series. When several sources share one backend
// meter, the first (sorted) source names it — the label identifies the
// meter, and emitting it once per name would double-count the usage.
type namedMeter struct {
	name  string
	meter *texservice.Meter
}

// methodCounts is one join method's outcome series.
type methodCounts struct {
	queries  uint64
	textCost float64
}

// Config returns the effective (defaulted) configuration.
func (g *Gateway) Config() Config { return g.cfg }

// Response is one query's outcome.
type Response struct {
	// Columns are the qualified result column names.
	Columns []string `json:"columns"`
	// Rows are the result tuples, rendered as text.
	Rows [][]string `json:"rows"`
	// Plan is the executed physical plan, rendered.
	Plan string `json:"plan,omitempty"`
	// EstCost is the optimizer's estimate (simulated seconds).
	EstCost float64 `json:"est_cost"`
	// Usage is this query's own text-service consumption — isolated from
	// concurrent queries via the per-query meter.
	Usage texservice.Usage `json:"usage"`
	// Partial marks a best-effort answer: a text source lost part of its
	// collection (a federation shard) while the query ran, so the rows
	// are the surviving ones and may be incomplete.
	Partial bool `json:"partial,omitempty"`
	// Queued is how long the query waited for a worker slot.
	Queued time.Duration `json:"queued_ns"`
	// Elapsed is the post-admission latency (plan + execute).
	Elapsed time.Duration `json:"elapsed_ns"`
	// TraceID identifies the query's trace when one was recorded (the
	// gateway's Trace config, or analyze mode).
	TraceID string `json:"trace_id,omitempty"`
	// Analyze is the EXPLAIN ANALYZE tree — per-operator estimates next
	// to actuals — populated by Analyze (and /analyze) only.
	Analyze *exec.AnalyzeNode `json:"analyze,omitempty"`
	// Trace is the query's span tree, populated by Analyze only.
	Trace *obs.SpanSnapshot `json:"trace,omitempty"`
}

// ExplainResponse is a plan-only answer: the query was optimized but not
// executed, so it reports the estimate without any execution usage.
type ExplainResponse struct {
	Classified string  `json:"classified"`
	Plan       string  `json:"plan"`
	EstCost    float64 `json:"est_cost"`
}

// Query plans and executes one conjunctive query under admission control
// and the per-query budgets. It blocks until the query completes, is
// shed, or ctx ends.
func (g *Gateway) Query(ctx context.Context, sql string) (*Response, error) {
	return g.serve(ctx, sql, false)
}

// Analyze runs the query like Query but also collects EXPLAIN ANALYZE:
// the response carries the per-operator estimate-vs-actual tree and the
// full span trace. It pays the tracing overhead regardless of the Trace
// config.
func (g *Gateway) Analyze(ctx context.Context, sql string) (*Response, error) {
	return g.serve(ctx, sql, true)
}

func (g *Gateway) serve(ctx context.Context, sql string, analyze bool) (*Response, error) {
	// Attach a per-query recorder when tracing is wanted and the caller
	// has not already installed one (an embedding caller's recorder wins —
	// the gateway's spans then nest under its tree). A configured trace
	// store implies tracing: tail-based sampling needs the tree to exist
	// before it can decide to keep it.
	var rec *obs.Recorder
	if (g.cfg.Trace || analyze || g.cfg.TraceStore != nil) && obs.RecorderFrom(ctx) == nil {
		rec = obs.NewRecorder("query")
		rec.ID = fmt.Sprintf("q-%d", g.qseq.Add(1))
		ctx = obs.WithRecorder(ctx, rec)
	}
	started := time.Now()

	actx, asp := obs.StartSpan(ctx, "gateway.admit")
	release, queued, err := g.admit(actx)
	if asp != nil {
		asp.SetAttr(obs.F64("queued_s", queued.Seconds()),
			obs.Int("in_flight", int(g.ctrs.inFlight.Load())),
			obs.Int("workers", g.cfg.Workers))
		if err != nil {
			asp.SetAttr(obs.Str("err", err.Error()))
		}
		asp.End()
	}
	if err != nil {
		// Shed or rejected before execution. Overload traces are exactly
		// what tail sampling is for, so the (admission-only) trace and a
		// telemetry record are still emitted.
		g.finish(rec, sql, started, time.Since(started), nil, nil, err)
		return nil, err
	}
	defer release()

	start := time.Now()
	resp, telem, err := g.execute(ctx, sql, analyze)
	elapsed := time.Since(start)
	if err != nil {
		g.ctrs.failed.Add(1)
		g.finish(rec, sql, started, elapsed, nil, telem, err)
		g.maybeSlowLog(rec, sql, elapsed, 0, err)
		return nil, err
	}
	resp.Queued = queued
	resp.Elapsed = elapsed
	g.ctrs.completed.Add(1)
	g.finish(rec, sql, started, elapsed, resp, telem, nil)
	if rec != nil {
		resp.TraceID = rec.ID
		if analyze {
			snap := rec.Root().Snapshot()
			resp.Trace = &snap
		}
	}
	g.maybeSlowLog(rec, sql, elapsed, resp.Usage.Cost, nil)
	return resp, nil
}

// finish closes out one served query whatever its outcome: it ends the
// root span, offers the trace to the retention store, feeds the latency
// and cost histograms (with the retained trace ID as the bucket exemplar),
// and appends the telemetry record.
func (g *Gateway) finish(rec *obs.Recorder, sql string, started time.Time,
	elapsed time.Duration, resp *Response, telem *telemetry.Record, qerr error) {
	outcome := classifyOutcome(qerr)
	var traceID string
	retained := false
	if rec != nil {
		rec.Root().End()
		traceID = rec.ID
		if ts := g.cfg.TraceStore; ts != nil {
			st := obs.StoredTrace{
				ID: rec.ID, Start: started, DurationNs: elapsed.Nanoseconds(),
				Outcome: outcome, Query: sql, Root: rec.Root().Snapshot(),
			}
			if qerr != nil {
				st.Error = qerr.Error()
			}
			retained = ts.Offer(st)
		}
	}
	if qerr == nil && resp != nil {
		// Only retained traces may back exemplars: an exemplar pointing at
		// a sampled-out ID would 404 on /trace/{id}.
		exID := ""
		if retained {
			exID = traceID
		}
		g.latency.observe(elapsed.Seconds(), exID)
		g.textCost.observe(resp.Usage.Cost, exID)
	}
	if sink := g.cfg.Telemetry; sink != nil {
		var r telemetry.Record
		if telem != nil {
			r = *telem
		}
		r.Time = started
		r.TraceID = traceID
		r.SQL = sql
		r.Shape = telemetry.NormalizeSQL(sql)
		r.Outcome = outcome
		r.Elapsed = elapsed.Nanoseconds()
		if qerr != nil {
			r.Error = qerr.Error()
		}
		sink.Append(r)
	}
}

// classifyOutcome maps a served query's error to the trace-store outcome
// taxonomy (tail sampling always retains every non-ok outcome).
func classifyOutcome(err error) string {
	var budget *BudgetError
	switch {
	case err == nil:
		return obs.OutcomeOK
	case IsOverloaded(err), errors.Is(err, ErrDraining):
		return obs.OutcomeOverload
	case errors.As(err, &budget):
		return obs.OutcomeBudget
	case errors.Is(err, context.DeadlineExceeded):
		return obs.OutcomeTimeout
	case errors.Is(err, context.Canceled):
		return obs.OutcomeCancel
	default:
		return obs.OutcomeError
	}
}

// maybeSlowLog dumps the query (and its span tree, when recorded) if it
// crossed either slow-query threshold. Span dumps are bounded two ways:
// each dump renders at most SlowDumpSpans spans, and at most
// SlowDumpBudget dumps are emitted per minute — under sustained overload
// every query is "slow", and the tree dumps, not the one-line summaries,
// are what would blow up the log.
func (g *Gateway) maybeSlowLog(rec *obs.Recorder, sql string, elapsed time.Duration, cost float64, qerr error) {
	overLat := g.cfg.SlowQueryLatency > 0 && elapsed >= g.cfg.SlowQueryLatency
	overCost := g.cfg.SlowQueryCost > 0 && cost >= g.cfg.SlowQueryCost
	if !overLat && !overCost {
		return
	}
	g.ctrs.slowLogged.Add(1)
	logf := g.cfg.SlowLogf
	if logf == nil {
		logf = log.Printf
	}
	var b strings.Builder
	id := "-"
	if rec != nil {
		id = rec.ID
	}
	fmt.Fprintf(&b, "gateway: slow query trace=%s elapsed=%s text_cost=%.3fs err=%v sql=%q",
		id, elapsed.Round(time.Millisecond), cost, qerr, sql)
	if rec != nil {
		if g.allowSlowDump() {
			b.WriteByte('\n')
			obs.DumpLimited(&b, rec.Root().Snapshot(), g.cfg.SlowDumpSpans)
		} else {
			g.ctrs.slowDumpSuppressed.Add(1)
			fmt.Fprintf(&b, " (span dump suppressed: over %d/min budget)", g.cfg.SlowDumpBudget)
		}
	}
	logf("%s", b.String())
}

// allowSlowDump consumes one slot of the rotating per-minute span-dump
// budget, resetting the window when the minute rolls over.
func (g *Gateway) allowSlowDump() bool {
	now := time.Now().Unix() / 60
	g.slowDumps.Lock()
	defer g.slowDumps.Unlock()
	if g.slowDumps.window != now {
		g.slowDumps.window = now
		g.slowDumps.used = 0
	}
	if g.slowDumps.used >= g.cfg.SlowDumpBudget {
		return false
	}
	g.slowDumps.used++
	return true
}

// recordMethods feeds the per-join-method /metrics series: each TextJoin
// in the executed plan counts one query for its method, and the query's
// text cost is attributed to the (usually single) method involved.
func (g *Gateway) recordMethods(p plan.Node, cost float64) {
	joins := plan.TextJoins(p)
	if len(joins) == 0 {
		return
	}
	share := cost / float64(len(joins))
	g.methodMu.Lock()
	defer g.methodMu.Unlock()
	for _, tj := range joins {
		name := tj.Method.String()
		m := g.methods[name]
		if m == nil {
			m = &methodCounts{}
			g.methods[name] = m
		}
		m.queries++
		m.textCost += share
	}
}

// methodSnapshot copies the per-method series in sorted order.
func (g *Gateway) methodSnapshot() []MethodStats {
	g.methodMu.Lock()
	defer g.methodMu.Unlock()
	out := make([]MethodStats, 0, len(g.methods))
	for name, m := range g.methods {
		out = append(out, MethodStats{Method: name, Queries: m.queries, TextCost: m.textCost})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Method < out[j].Method })
	return out
}

// MethodStats is one join method's cumulative outcome series.
type MethodStats struct {
	Method   string  `json:"method"`
	Queries  uint64  `json:"queries"`
	TextCost float64 `json:"text_cost"`
}

// Explain plans one query without executing it, under the same admission
// control (planning probes the shared text service for statistics, so it
// competes for the same resources as execution).
func (g *Gateway) Explain(ctx context.Context, sql string) (*ExplainResponse, error) {
	release, _, err := g.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	prep, err := g.eng.Prepare(sql)
	if err != nil {
		g.ctrs.planFailed.Add(1)
		g.ctrs.failed.Add(1)
		return nil, err
	}
	g.ctrs.completed.Add(1)
	return &ExplainResponse{
		Classified: prep.Analyzed().String(),
		Plan:       prep.Explain(),
		EstCost:    prep.EstCost(),
	}, nil
}

// admit implements the bounded pool + bounded queue + queue timeout. On
// success it returns a release function (which must be called exactly
// once) and the time spent queued.
func (g *Gateway) admit(ctx context.Context) (release func(), queued time.Duration, err error) {
	g.ctrs.received.Add(1)
	g.mu.Lock()
	if g.draining {
		g.mu.Unlock()
		g.ctrs.rejectedDraining.Add(1)
		return nil, 0, ErrDraining
	}
	g.mu.Unlock()

	enqueued := time.Now()
	select {
	case g.slots <- struct{}{}:
		// Fast path: a worker slot is free.
	default:
		// Queue, bounded: the counter is incremented optimistically and
		// rolled back when the queue is full, so the bound holds without
		// a lock around the whole wait.
		q := g.ctrs.queued.Add(1)
		if q > int64(g.cfg.QueueDepth) {
			g.ctrs.queued.Add(-1)
			g.ctrs.shedQueueFull.Add(1)
			return nil, 0, &OverloadError{Reason: ReasonQueueFull, Workers: g.cfg.Workers, QueueDepth: g.cfg.QueueDepth}
		}
		raisePeak(&g.ctrs.queuedPeak, q)
		timer := time.NewTimer(g.cfg.QueueTimeout)
		select {
		case g.slots <- struct{}{}:
			timer.Stop()
			g.ctrs.queued.Add(-1)
		case <-timer.C:
			g.ctrs.queued.Add(-1)
			g.ctrs.shedQueueTimeout.Add(1)
			return nil, 0, &OverloadError{Reason: ReasonQueueTimeout, Workers: g.cfg.Workers, QueueDepth: g.cfg.QueueDepth}
		case <-ctx.Done():
			timer.Stop()
			g.ctrs.queued.Add(-1)
			g.ctrs.abandonedQueue.Add(1)
			return nil, 0, ctx.Err()
		case <-g.drainCh:
			timer.Stop()
			g.ctrs.queued.Add(-1)
			g.ctrs.rejectedDraining.Add(1)
			return nil, 0, ErrDraining
		}
	}

	// Slot acquired. Registering with the drain group must be atomic with
	// the draining check, or Drain could return while this query runs.
	g.mu.Lock()
	if g.draining {
		g.mu.Unlock()
		<-g.slots
		g.ctrs.rejectedDraining.Add(1)
		return nil, 0, ErrDraining
	}
	g.inflight.Add(1)
	g.mu.Unlock()
	g.ctrs.admitted.Add(1)
	raisePeak(&g.ctrs.inFlightPeak, g.ctrs.inFlight.Add(1))

	return func() {
		g.ctrs.inFlight.Add(-1)
		g.inflight.Done()
		<-g.slots
	}, time.Since(enqueued), nil
}

// execute plans and runs one admitted query with an isolated per-query
// meter and the configured budgets. With analyze set, it collects the
// per-operator EXPLAIN ANALYZE actuals into the response; with a
// telemetry sink configured it collects the same actuals regardless and
// returns the partially built telemetry record (the caller stamps the
// identity/outcome fields).
func (g *Gateway) execute(ctx context.Context, sql string, analyze bool) (*Response, *telemetry.Record, error) {
	prep, err := g.eng.PrepareContext(ctx, sql)
	if err != nil {
		g.ctrs.planFailed.Add(1)
		return nil, nil, err
	}
	if analyze || g.cfg.Telemetry != nil {
		ctx = exec.WithAnalysis(ctx, exec.NewAnalysis())
	}

	// The per-query meter: every charge this query causes on the shared
	// service stack is mirrored here and nowhere else sees it, so Usage
	// is exact under any concurrency. Its cost constants are irrelevant —
	// mirrored charges arrive as precomputed deltas.
	qm := texservice.NewMeter(texservice.DefaultCosts())
	ctx = texservice.WithQueryMeter(ctx, qm)
	if g.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, g.cfg.QueryTimeout)
		defer cancel()
	}
	if g.cfg.CostLimit > 0 {
		budgetCtx, abort := context.WithCancel(ctx)
		defer abort()
		qm.SetBudget(g.cfg.CostLimit, abort)
		ctx = budgetCtx
	}

	res, err := prep.RunContext(ctx)
	// The cap is a hard policy, not best-effort: a short plan can finish
	// between the charge that crossed the limit and the next cancellation
	// check, so the budget verdict overrides even a successful run.
	if qm.BudgetExceeded() {
		g.ctrs.budgetAborted.Add(1)
		return nil, nil, &BudgetError{Limit: g.cfg.CostLimit, Spent: qm.Snapshot().Cost}
	}
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			g.ctrs.timedOut.Add(1)
		}
		return nil, nil, err
	}

	g.recordMethods(prep.Plan(), res.Usage.Cost)
	if res.Batches > 0 {
		g.ctrs.execBatches.Add(uint64(res.Batches))
	}
	g.ctrs.optimizeNanos.Add(uint64(res.OptimizeTime))
	g.ctrs.executeNanos.Add(uint64(res.ExecuteTime))
	if res.Partial {
		g.ctrs.partial.Add(1)
	}
	var telem *telemetry.Record
	if g.cfg.Telemetry != nil {
		telem = buildTelemetry(prep, res)
	}
	resp := &Response{
		Plan:    prep.Explain(),
		EstCost: res.EstCost,
		Usage:   res.Usage,
		Partial: res.Partial,
	}
	if analyze {
		// The tree is always collected when telemetry is on, but /query
		// responses only carry it in analyze mode — same shape as before.
		resp.Analyze = res.Analyze
	}
	for _, c := range res.Table.Schema.Cols {
		resp.Columns = append(resp.Columns, c.Name)
	}
	resp.Rows = make([][]string, len(res.Table.Rows))
	for i, row := range res.Table.Rows {
		out := make([]string, len(row))
		for j, v := range row {
			out[j] = v.Text()
		}
		resp.Rows[i] = out
	}
	return resp, telem, nil
}

// buildTelemetry flattens one successful run into the telemetry record's
// plan-derived fields: per-node est-vs-act and per-foreign-predicate
// observed fanouts (the inputs stats.Estimator's feedback import wants).
func buildTelemetry(prep *core.Prepared, res *core.Result) *telemetry.Record {
	r := &telemetry.Record{
		EstCost:  res.EstCost,
		ActCost:  res.Usage.Cost,
		Rows:     res.Table.Cardinality(),
		Probes:   res.Probes,
		Batches:  res.BatchRounds,
		Hedges:   res.Usage.Hedges,
		Retries:  res.Usage.Retries,
		CritCost: res.Usage.CritCost,
	}
	var flatten func(n *exec.AnalyzeNode, depth int)
	flatten = func(n *exec.AnalyzeNode, depth int) {
		if n == nil {
			return
		}
		r.Nodes = append(r.Nodes, telemetry.NodeStats{
			Op: n.Op, Depth: depth,
			EstCard: n.EstCard, ActRows: n.ActRows,
			EstCost: n.EstCost, ActCost: n.ActCost,
		})
		for _, c := range n.Children {
			flatten(c, depth+1)
		}
	}
	flatten(res.Analyze, 0)
	// Walk plan and analyze tree in parallel (Tree mirrors the plan's
	// shape) to attribute actual input/output rows to each text join.
	var walk func(p plan.Node, a *exec.AnalyzeNode)
	walk = func(p plan.Node, a *exec.AnalyzeNode) {
		if p == nil || a == nil {
			return
		}
		if tj, ok := p.(*plan.TextJoin); ok && len(a.Children) == 1 {
			in, out := a.Children[0].ActRows, a.ActRows
			fanout := 0.0
			if in > 0 {
				fanout = float64(out) / float64(in)
			}
			estFanout := 0.0
			if ic := tj.Input.Card(); ic > 0 {
				estFanout = tj.Card() / ic
			}
			for _, pr := range tj.Preds {
				r.Predicates = append(r.Predicates, telemetry.PredicateStats{
					Source: pr.Source, Table: pr.Table, Column: pr.Column, Field: pr.Field,
					Method: tj.Method.String(), InRows: in, OutRows: out,
					Fanout: fanout, EstFanout: estFanout,
				})
			}
		}
		kids := p.Children()
		for i, c := range kids {
			if i < len(a.Children) {
				walk(c, a.Children[i])
			}
		}
	}
	walk(prep.Plan(), res.Analyze)
	return r
}

// cacheCounters is what both expression caches report.
type cacheCounters interface {
	Stats() (hits, misses int)
	Dedups() int
	Invalidations() int
}

// sumCaches adds up one kind of cache across the registered sources.
func sumCaches(caches []cacheCounters) CacheStats {
	var s CacheStats
	for _, c := range caches {
		hits, misses := c.Stats()
		s.Hits += hits
		s.Misses += misses
		s.Dedups += c.Dedups()
		s.Invalidations += c.Invalidations()
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
	return s
}

// Stats snapshots the gateway's counters, histograms, cache statistics
// and shared-meter usage.
func (g *Gateway) Stats() Snapshot {
	s := g.ctrs.snapshot()
	s.Workers = g.cfg.Workers
	s.QueueDepth = g.cfg.QueueDepth
	g.mu.Lock()
	s.Draining = g.draining
	g.mu.Unlock()
	s.Cache = sumCaches(g.caches)
	s.ProbeCache = sumCaches(g.probeCaches)
	for _, m := range g.meters {
		s.Text = s.Text.Add(m.Snapshot())
	}
	s.Latency = g.latency.snapshot()
	s.TextCost = g.textCost.snapshot()
	if g.cfg.TraceStore != nil {
		ts := g.cfg.TraceStore.Stats()
		s.Traces = &ts
	}
	if g.cfg.Telemetry != nil {
		st := g.cfg.Telemetry.Stats()
		s.Telemetry = &st
	}
	return s
}

// Drain gracefully shuts the gateway down: new queries are rejected with
// ErrDraining, queued-but-unadmitted queries are woken and rejected, and
// Drain blocks until every in-flight query finishes or ctx ends (in which
// case the remaining queries keep running and ctx.Err() is returned).
// Drain is idempotent and safe to call concurrently.
func (g *Gateway) Drain(ctx context.Context) error {
	g.mu.Lock()
	if !g.draining {
		g.draining = true
		close(g.drainCh)
	}
	g.mu.Unlock()
	done := make(chan struct{})
	go func() {
		g.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
