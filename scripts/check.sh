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

# Built binaries stay out of the tree: .gitignore lists the ones
# `go build ./cmd/...` leaves at the root, and this catches one that is
# tracked anyway (committed before the ignore rule, or force-added).
tracked=$(git ls-files fedql queryd textserve benchrun)
if [ -n "$tracked" ]; then
    echo "built binaries are tracked: $tracked" >&2
    exit 1
fi

go build ./...
go vet ./...

# gate PATTERN PKG [FLAGS...] runs `go test FLAGS -run PATTERN PKG`, after
# checking that every |-separated alternative of PATTERN names at least
# one test in PKG. `go test -run` passes silently when a rename or a
# deletion leaves it matching nothing; a gate must not.
gate() {
    pattern=$1
    pkg=$2
    shift 2
    listed=$(go test -list "$pattern" "$pkg")
    for alt in $(printf '%s' "$pattern" | tr '|' ' '); do
        if ! printf '%s\n' "$listed" | grep -E '^[A-Z]' | grep -qE -- "$alt"; then
            echo "gate selects no test: -run '$alt' in $pkg" >&2
            exit 1
        fi
    done
    go test "$@" -run "$pattern" "$pkg"
}

# Quick race-detector smoke of the sharded federation before the full runs.
gate TestShardedSmoke ./internal/shard -race

# Batched probe pushdown equivalence harness under the race detector:
# probing methods × {per-tuple, batched} × 1/2/4-shard federations with
# injected faults, checked against the naive oracle and the exact
# query-meter mirroring invariant. SJ+RTP shares the OR-pack step (and
# the term-limit packer) with the batched probes, so its tests and the
# search transcript, which locks every method's wire traffic, run here
# too. The seed is fixed in the test (batchPropertySeed) so failures
# reproduce; -short caps the trial count here, the full-trial run happens
# in the go test -race ./... pass below.
gate 'TestBatchedProbing|TestBatchProbe|TestSJ|TestSearchTranscript' ./internal/join -race -short

# Gateway concurrency suite under the race detector: equivalence,
# saturation shedding, budgets, drain.
gate Gateway ./internal/gateway -race

# Observability gates: the span recorder must be race-clean under
# concurrent recording/snapshotting, and the /metrics exposition must
# parse as Prometheus text format (line-grammar validator, no deps) —
# including the trace-store series and histogram bucket exemplars.
go test -race ./internal/obs
gate 'Metrics|Analyze|SlowQuery' ./internal/gateway -race

# Distributed-tracing gates, all under the race detector:
# 1. Trace-propagation smoke: a federation whose client links fail 30%
#    of calls transiently must still produce a backend-grafted remote
#    span under every scatter leg (each leg's own texservice.Retrying
#    wrapper, set up by the test, re-asks until a reply carries the
#    server subtree).
# 2. Remote span return over the wire: version negotiation, skew-proof
#    grafting, spans on error replies.
# 3. Trace ring soak: concurrent queries hammer the tail-sampled store
#    while /traces and /trace/{id} are polled; plus the tentpole 2x2
#    sharded+replicated hedged-query trace acceptance test.
gate TestTracePropagationUnderFaults ./internal/shard -race
gate Span ./internal/texservice -race
gate 'TestTraceRingConcurrent|TestShardedReplicatedHedgedTrace|TestTraceStore' ./internal/gateway -race
go test -race ./internal/telemetry

# Tracing overhead gate: the disabled span path must stay allocation-free.
# Its ns/op is BenchmarkStartSpanDisabled, run once below with the other
# benchmarks; BENCH_trace.json records a reference run of both span
# benchmarks.
gate TestDisabledSpanPathBudget ./internal/obs

# Vectorized execution gates. The equivalence harness runs every join
# method on the same pruned plans through the executor against the naive
# oracle, over faulty 1/2/4-shard federations, under the race detector;
# the seed is fixed (vectorPropertySeed) so failures reproduce. -short
# caps the trial count here, the full-trial run happens in the
# go test -race ./... pass below.
gate TestVectorizedEquivalence ./internal/exec -race -short

# Allocation regression gate: the steady-state batch path (a filtering
# scan → project) must not allocate per Next once the pipeline is warm.
gate TestSteadyStateAllocs ./internal/vec

# Boundary allocation gate: an SJ+RTP text join over a 1k-row and a
# 64k-row scan with the same 64 bindings must allocate the same per run —
# the join's input lives in the run's recycled arena and bindings are
# grouped by typed key, so any per-row heap object between the relational
# pipeline and the text join fails this.
gate TestForeignJoinInputAllocsIndependentOfRows ./internal/exec

# Cardinality-independence gate: once a query shape is warm, Prepare must
# cost the same allocations and bytes over a 1k-row and a 64k-row table —
# optimize is O(1) in table size (distinct counts are memoized on the
# table), and any per-row work on the plan path fails this.
gate TestPrepareIndependentOfCardinality ./internal/core

# Fuzz smokes: arbitrary bytes through parse → analyze → optimize may be
# rejected but must not panic or hang; the text-search parser terminates
# and round-trips what it accepts through Expr.String (the remote client
# ships that rendering for the server to re-parse); whatever it accepts,
# Eval answers as a per-document scan does and charges what the reference
# evaluator charges; and any decodable wire request gets a reply from the
# text server, never a panic or a hang.
go test -run NONE -fuzz FuzzPrepare -fuzztime 5s ./internal/core
go test -run NONE -fuzz FuzzParse -fuzztime 5s ./internal/textidx
go test -run NONE -fuzz FuzzEval -fuzztime 5s ./internal/textidx
go test -run NONE -fuzz FuzzServerDispatch -fuzztime 5s ./internal/texservice

# Live-ingest gates: the WAL torture tests (torn tail, corrupt CRC,
# double replay), the model-based store property test, snapshot
# isolation, cache-staleness regression and the live join-equivalence
# suite, all under the race detector. Live ≡ Local: the live service is
# texservice.Local over the store's views, so with an empty delta, and
# after writes folded by a compaction, it must answer, charge and fail
# exactly as Local over the same frozen index.
go test -race ./internal/ingest/...
gate TestLiveEqualsLocal ./internal/ingest -race
gate TestLiveIngest ./internal/join -race

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
gate 'TestJoinMethodsOverReplicated|TestFailover|TestProbeReadmission' ./internal/replica -race
gate TestHedgeCancellationNoLeaks ./internal/replica -race

# Hedge-budget allocation gate: a warm Set computes the p95 hedge budget
# of every hedged call without allocating (the sorted copy of the latency
# ring is the Set's own, and is re-sorted only after a new sample).
gate TestHedgeBudgetAllocs ./internal/replica

# The one composition the binaries ship, under the race detector:
# appcfg.DialText over three TCP servers as "-remote a,b|c -retries 3",
# a faulty sole replica whose back-to-back faults only the per-endpoint
# Retrying wrapper absorbs (answers equal the in-process ones), then that
# partition lost for good and the gateway's answer flagged Partial.
gate TestDialTextComposes ./internal/appcfg -race

# Benchmarks must at least compile and run one iteration — they are the
# before/after evidence for the execution core, the relational matcher
# (BenchmarkMatchHits, BENCH_rtp.json), the span path
# (BenchmarkStartSpan*, BENCH_trace.json), the path from the relational
# pipeline into the text join (BenchmarkGroupBy, BenchmarkVecHashJoin and
# the root package's BenchmarkWarmQuery, BENCH_boundary.json), Boolean
# evaluation (BenchmarkEval, BENCH_textidx.json) and the live store's
# search over its base and delta (BenchmarkStoreSearch, BENCH_ingest.json),
# and they rot silently otherwise.
go test -run 'NOTESTS' -bench . -benchtime 1x ./internal/vec ./internal/relation ./internal/join ./internal/obs ./internal/textidx ./internal/ingest
go test -run 'NOTESTS' -bench 'BenchmarkWarmQuery' -benchtime 1x .

# Benchmark self-test (about 5 s): every workload end to end at tiny
# sizes, decorated ≡ undecorated stacks (rows, Usage, cache counters),
# the engine stack still exposing both expression caches, and
# BENCHMARK.json against the metric names the benchmark reports.
go test ./benchmark

go test ./...
go test -race ./...
