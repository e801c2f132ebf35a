package gateway

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"textjoin/internal/obs"
	"textjoin/internal/telemetry"
	"textjoin/internal/texservice"
)

// counters is the gateway's live admission/outcome accounting. Everything
// is atomic so the hot path never takes a lock for bookkeeping; Snapshot
// reads are equally lock-free and the arithmetic invariants
//
//	Admitted  = Completed + Failed + InFlight
//	Shed      = ShedQueueFull + ShedQueueTimeout
//	Received  = Admitted + Shed + RejectedDraining + AbandonedQueue
//
// hold for every snapshot taken while the gateway is quiescent (and up to
// in-flight transitions otherwise).
type counters struct {
	received           atomic.Uint64 // every call that reached admission
	admitted           atomic.Uint64 // got a worker slot
	completed          atomic.Uint64 // admitted and returned rows
	failed             atomic.Uint64 // admitted and returned an error
	shedQueueFull      atomic.Uint64 // shed: wait queue at capacity
	shedQueueTimeout   atomic.Uint64 // shed: queued longer than QueueTimeout
	rejectedDraining   atomic.Uint64 // rejected: gateway draining
	abandonedQueue     atomic.Uint64 // caller's context ended while queued
	budgetAborted      atomic.Uint64 // failed: per-query cost cap fired (subset of failed)
	partial            atomic.Uint64 // completed with a best-effort (Partial) answer (subset of completed)
	timedOut           atomic.Uint64 // failed: per-query deadline expired (subset of failed)
	planFailed         atomic.Uint64 // failed: parse/analyze/optimize error (subset of failed)
	slowLogged         atomic.Uint64 // queries dumped to the slow-query log
	slowDumpSuppressed atomic.Uint64 // slow-log span dumps dropped by the per-minute budget
	execBatches        atomic.Uint64 // column batches emitted by the vectorized engine
	optimizeNanos      atomic.Uint64 // completed queries' core.Result.OptimizeTime, summed
	executeNanos       atomic.Uint64 // completed queries' core.Result.ExecuteTime, summed
	ingestBatches      atomic.Uint64 // acked ingest batches
	ingestOps          atomic.Uint64 // acked ingest operations (puts + deletes)
	ingestFailed       atomic.Uint64 // ingest batches that were rejected or failed
	inFlight           atomic.Int64  // currently executing
	queued             atomic.Int64  // currently waiting for a slot
	inFlightPeak       atomic.Int64  // high-water mark of inFlight
	queuedPeak         atomic.Int64  // high-water mark of queued
}

// raisePeak lifts a high-water-mark gauge to v if v is higher. The CAS
// loop keeps it monotonic under concurrent raises without a lock.
func raisePeak(peak *atomic.Int64, v int64) {
	for {
		cur := peak.Load()
		if v <= cur || peak.CompareAndSwap(cur, v) {
			return
		}
	}
}

// histogram is a fixed-boundary log-scale histogram of non-negative
// float64 observations (seconds). The boundaries span 100µs to ~100ks by
// powers of two, which covers both wall-clock latencies and the paper's
// simulated text-source costs.
type histogram struct {
	mu      sync.Mutex
	count   int64
	sum     float64
	min     float64
	max     float64
	buckets [histBuckets]int64
	// exemplars holds, per bucket, the most recent observation that came
	// with a retained trace ID — the /metrics exposition appends it to the
	// bucket line so a latency outlier links straight to its trace.
	exemplars [histBuckets]Exemplar
}

// Exemplar ties one bucket observation to a retained trace.
type Exemplar struct {
	TraceID string
	Value   float64
}

const (
	histBuckets = 32
	histBase    = 1e-4 // first bucket upper bound, seconds
)

// bucketOf maps an observation to its bucket: bucket i holds values in
// (histBase·2^(i-1), histBase·2^i], bucket 0 holds (0, histBase], and the
// last bucket is unbounded above.
func bucketOf(v float64) int {
	if v <= histBase {
		return 0
	}
	i := int(math.Ceil(math.Log2(v / histBase))) // v ≤ histBase·2^i
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// upperBound returns bucket i's upper boundary.
func upperBound(i int) float64 {
	return histBase * math.Pow(2, float64(i))
}

func (h *histogram) observe(v float64, exemplarID string) {
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	b := bucketOf(v)
	h.buckets[b]++
	if exemplarID != "" {
		h.exemplars[b] = Exemplar{TraceID: exemplarID, Value: v}
	}
}

// HistSnapshot is a JSON-friendly view of a histogram: moments plus
// approximate quantiles read off the bucket boundaries (each quantile is
// the upper bound of the bucket containing it, so it over-estimates by at
// most 2×).
type HistSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	// Buckets carries the raw distribution for the Prometheus exposition:
	// Buckets[i] counts observations in bucket i (non-cumulative; see
	// bucketOf for the boundaries). Omitted from the /stats JSON — the
	// quantiles above summarize it — but the /metrics writer cumulates it
	// into the le-labeled series Prometheus expects.
	Buckets []int64 `json:"-"`
	// Exemplars parallels Buckets: the latest retained-trace observation
	// per bucket (zero TraceID = none). /metrics only.
	Exemplars []Exemplar `json:"-"`
}

func (h *histogram) snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	s.Buckets = append(s.Buckets, h.buckets[:]...)
	s.Exemplars = append(s.Exemplars, h.exemplars[:]...)
	if h.count == 0 {
		return s
	}
	s.Mean = h.sum / float64(h.count)
	s.P50 = h.quantileLocked(0.50)
	s.P90 = h.quantileLocked(0.90)
	s.P99 = h.quantileLocked(0.99)
	return s
}

// quantileLocked returns the upper bound of the bucket holding the q-th
// observation, clamped to the observed max.
func (h *histogram) quantileLocked(q float64) float64 {
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, n := range h.buckets {
		seen += n
		if seen >= rank {
			return math.Min(upperBound(i), h.max)
		}
	}
	return h.max
}

// CacheStats reports one kind of expression cache's effectiveness summed
// across every registered text source that has one: the shared search
// cache (Cached) or the cross-query probe-result cache (ProbeCache).
type CacheStats struct {
	Hits          int     `json:"hits"`
	Misses        int     `json:"misses"`
	Dedups        int     `json:"dedups"` // hits that were singleflight waits on an in-flight search
	Invalidations int     `json:"invalidations"`
	HitRate       float64 `json:"hit_rate"`
}

// Snapshot is a point-in-time JSON-serializable view of the gateway: its
// configuration, admission counters, latency and per-query text-cost
// histograms, shared cache statistics, and the shared text-service meters'
// cumulative usage.
type Snapshot struct {
	Workers      int  `json:"workers"`
	QueueDepth   int  `json:"queue_depth"`
	InFlight     int  `json:"in_flight"`
	Queued       int  `json:"queued"`
	InFlightPeak int  `json:"in_flight_peak"`
	QueuedPeak   int  `json:"queued_peak"`
	Draining     bool `json:"draining"`

	Received           uint64 `json:"received"`
	Admitted           uint64 `json:"admitted"`
	Completed          uint64 `json:"completed"`
	Failed             uint64 `json:"failed"`
	ShedQueueFull      uint64 `json:"shed_queue_full"`
	ShedQueueTimeout   uint64 `json:"shed_queue_timeout"`
	Shed               uint64 `json:"shed"` // ShedQueueFull + ShedQueueTimeout
	RejectedDraining   uint64 `json:"rejected_draining"`
	AbandonedQueue     uint64 `json:"abandoned_queue"`
	BudgetAborted      uint64 `json:"budget_aborted"`
	Partial            uint64 `json:"partial"`
	TimedOut           uint64 `json:"timed_out"`
	PlanFailed         uint64 `json:"plan_failed"`
	SlowLogged         uint64 `json:"slow_logged"`
	SlowDumpSuppressed uint64 `json:"slow_dump_suppressed"`
	ExecBatches        uint64 `json:"exec_batches"`
	// OptimizeSeconds / ExecuteSeconds split completed queries' engine
	// time by layer: parse-to-plan (sampling included) against running
	// the plan. Their ratio is the optimizer's share of a query.
	OptimizeSeconds float64 `json:"optimize_seconds"`
	ExecuteSeconds  float64 `json:"execute_seconds"`
	IngestBatches   uint64  `json:"ingest_batches"`
	IngestOps       uint64  `json:"ingest_ops"`
	IngestFailed    uint64  `json:"ingest_failed"`

	Cache      CacheStats `json:"cache"`
	ProbeCache CacheStats `json:"probe_cache"`

	Latency  HistSnapshot     `json:"latency_seconds"`
	TextCost HistSnapshot     `json:"text_cost_seconds"`
	Text     texservice.Usage `json:"text_usage"`

	// Traces/Telemetry report the retention subsystems, present only when
	// the respective store is configured.
	Traces    *obs.TraceStoreStats `json:"traces,omitempty"`
	Telemetry *telemetry.SinkStats `json:"telemetry,omitempty"`
}

func (c *counters) snapshot() Snapshot {
	s := Snapshot{
		Received:           c.received.Load(),
		Admitted:           c.admitted.Load(),
		Completed:          c.completed.Load(),
		Failed:             c.failed.Load(),
		ShedQueueFull:      c.shedQueueFull.Load(),
		ShedQueueTimeout:   c.shedQueueTimeout.Load(),
		RejectedDraining:   c.rejectedDraining.Load(),
		AbandonedQueue:     c.abandonedQueue.Load(),
		BudgetAborted:      c.budgetAborted.Load(),
		Partial:            c.partial.Load(),
		TimedOut:           c.timedOut.Load(),
		PlanFailed:         c.planFailed.Load(),
		SlowLogged:         c.slowLogged.Load(),
		SlowDumpSuppressed: c.slowDumpSuppressed.Load(),
		ExecBatches:        c.execBatches.Load(),
		OptimizeSeconds:    time.Duration(c.optimizeNanos.Load()).Seconds(),
		ExecuteSeconds:     time.Duration(c.executeNanos.Load()).Seconds(),
		IngestBatches:      c.ingestBatches.Load(),
		IngestOps:          c.ingestOps.Load(),
		IngestFailed:       c.ingestFailed.Load(),
		InFlight:           int(c.inFlight.Load()),
		Queued:             int(c.queued.Load()),
		InFlightPeak:       int(c.inFlightPeak.Load()),
		QueuedPeak:         int(c.queuedPeak.Load()),
	}
	s.Shed = s.ShedQueueFull + s.ShedQueueTimeout
	return s
}
