#!/bin/sh
# check.sh — the repository's full verification gate:
#   formatting + build + vet + unit tests + race-detector pass.
# Tier-1 (go build && go test) is the fast subset; this script is what a
# change must pass before merging.
set -eux

cd "$(dirname "$0")/.."

# Formatting gate: gofmt must have nothing to rewrite.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go build ./...
go vet ./...

# Quick race-detector smoke of the sharded federation before the full runs.
go test -run TestShardedSmoke -race ./internal/shard

# Batched probe pushdown equivalence harness under the race detector:
# probing methods × {per-tuple, batched} × 1/2/4-shard federations with
# injected faults, checked against the naive oracle and the exact
# query-meter mirroring invariant. The seed is fixed in the test
# (batchPropertySeed) so failures reproduce; -short caps the trial count
# here, the full-trial run happens in the go test -race ./... pass below.
go test -race -short -run 'TestBatchedProbing|TestBatchProbe' ./internal/join

# Gateway concurrency suite under the race detector: equivalence,
# saturation shedding, budgets, drain.
go test -race -run Gateway ./internal/gateway

# Observability gates: the span recorder must be race-clean under
# concurrent recording/snapshotting, and the /metrics exposition must
# parse as Prometheus text format (line-grammar validator, no deps) —
# including the trace-store series and histogram bucket exemplars.
go test -race ./internal/obs
go test -race -run 'Metrics|Analyze|SlowQuery' ./internal/gateway

# Distributed-tracing gates, all under the race detector:
# 1. Trace-propagation smoke: a federation whose client links fail 30%
#    of calls transiently must still produce a backend-grafted remote
#    span under every scatter leg (per-leg retries re-ask until a reply
#    carries the server subtree).
# 2. Remote span return over the wire: version negotiation, skew-proof
#    grafting, spans on error replies.
# 3. Trace ring soak: concurrent queries hammer the tail-sampled store
#    while /traces and /trace/{id} are polled; plus the tentpole 2x2
#    sharded+replicated hedged-query trace acceptance test.
go test -race -run 'TestTracePropagationUnderFaults' ./internal/shard
go test -race -run 'Span' ./internal/texservice
go test -race -run 'TestTraceRingConcurrent|TestShardedReplicatedHedgedTrace|TestTraceStore' ./internal/gateway
go test -race ./internal/telemetry

# Tracing overhead evidence: the disabled span path must stay in the
# single-digit-ns / zero-alloc regime, and the trace experiment must
# emit its machine-readable result file.
go test -run 'TestDisabledSpanPathBudget' ./internal/bench
go run ./cmd/benchrun -exp trace
test -s BENCH_trace.json

# Vectorized execution gates. The equivalence harness runs every join
# method on the same pruned plans through the executor against the naive
# oracle, over faulty 1/2/4-shard federations, under the race detector;
# the seed is fixed (vectorPropertySeed) so failures reproduce. -short
# caps the trial count here, the full-trial run happens in the
# go test -race ./... pass below.
go test -race -short -run 'TestVectorizedEquivalence' ./internal/exec

# Allocation regression gate: the steady-state batch path (scan → select
# → project) must not allocate per Next once the pipeline is warm.
go test -run 'TestSteadyStateAllocs' ./internal/vec

# Cardinality-independence gate: once a query shape is warm, Prepare must
# cost the same allocations and bytes over a 1k-row and a 64k-row table —
# optimize is O(1) in table size (distinct counts are memoized on the
# table), and any per-row work on the plan path fails this.
go test -run 'TestPrepareIndependentOfCardinality' ./internal/core

# Fuzz smoke: arbitrary bytes through parse → analyze → optimize may be
# rejected but must not panic or hang.
go test -run NONE -fuzz FuzzPrepare -fuzztime 5s ./internal/core

# Live-ingest gates: the WAL torture tests (torn tail, corrupt CRC,
# double replay), the model-based store property test, snapshot
# isolation, cache-staleness regression and the live join-equivalence
# suite, all under the race detector.
go test -race ./internal/ingest/...
go test -race -run 'TestLiveIngest' ./internal/join

# Crash-recovery smoke: start textserve with a WAL directory, ingest a
# document over the wire, kill -9 the server mid-flight, restart it on
# the same directory, and require the acked document to be queryable.
./scripts/crash_smoke.sh

# Replica routing gates, both under the race detector:
# 1. Failover: all five join methods stay equivalent to the naive
#    oracle over replicated fleets with one replica per partition
#    killed mid-query, plus ejection/probe re-admission behavior.
# 2. Hedge-cancellation leak check: 1000 hedged calls against remote
#    replicas must drain in-flight counts to zero and return goroutine
#    and pooled-connection counts to baseline — a lost cancel or an
#    unconsumed loser attempt fails this.
go test -race -run 'TestJoinMethodsOverReplicated|TestFailover|TestProbeReadmission' ./internal/replica
go test -race -run 'TestHedgeCancellationNoLeaks' ./internal/replica

# Benchmarks must at least compile and run one iteration — they are the
# before/after evidence for the execution core and rot silently otherwise.
go test -run 'NOTESTS' -bench . -benchtime 1x ./internal/vec ./internal/relation

go test ./...
go test -race ./...
