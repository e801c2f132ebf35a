package main

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"textjoin/internal/gateway"
	"textjoin/internal/texservice"
)

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3} // sorted: 1 2 3 4 5
	for _, tc := range []struct{ p, want float64 }{
		{50, 3}, // ceil(2.5) = 3rd
		{95, 5}, // ceil(4.75) = 5th
		{20, 1}, // exactly the 1st
		{21, 2}, // just past it
		{100, 5},
	} {
		if got := percentile(vals, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 95); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// 20 values 1..20: 19 of them (95 %) are at or below 19.
	var twenty []float64
	for i := 20; i >= 1; i-- {
		twenty = append(twenty, float64(i))
	}
	if got := percentile(twenty, 95); got != 19 {
		t.Errorf("p95 of 1..20 = %v, want 19", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd median = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

// TestQuartiles pins quartiles to what Python's
// statistics.quantiles(values, n=4) returns.
func TestQuartiles(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1,2,4,8,16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	// statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
	q1, q2, q3 = quartiles([]float64{3, 5})
	if q1 != 2.5 || q2 != 4 || q3 != 5.5 {
		t.Errorf("quartiles(3,5) = %v %v %v, want 2.5 4 5.5", q1, q2, q3)
	}
}

func TestUnionLen(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ivs    []interval
		lo, hi time.Duration
		want   time.Duration
	}{
		{"none", nil, 0, 100, 0},
		{"disjoint", []interval{{10, 20}, {30, 45}}, 0, 100, 25},
		{"overlapping", []interval{{10, 30}, {20, 50}}, 0, 100, 40},
		{"nested", []interval{{10, 60}, {20, 30}}, 0, 100, 50},
		{"unsorted touching", []interval{{40, 50}, {10, 40}}, 0, 100, 40},
		{"clipped both ends", []interval{{-10, 20}, {90, 130}}, 0, 100, 30},
		{"outside", []interval{{110, 120}}, 0, 100, 0},
	} {
		if got := unionLen(tc.ivs, tc.lo, tc.hi); got != tc.want {
			t.Errorf("%s: unionLen = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestSelfTimes checks self time and parallel overlap on a hand-built
// tree:
//
//	0 run      [0,100]
//	1 cache    [10,50]   child of 0
//	2 cache    [60,90]   child of 0
//	3 shard    [15,45]   child of 1
//	4 replica  [20,40]   child of 3  (two partition legs in parallel)
//	5 replica  [25,44]   child of 3
//	6 backend  [95,120]  child of 0, runs past its parent's end
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{layer: layerRun, parent: -1, start: 0, end: 100},
		{layer: layerCache, parent: 0, start: 10, end: 50},
		{layer: layerCache, parent: 0, start: 60, end: 90},
		{layer: layerShard, parent: 1, start: 15, end: 45},
		{layer: layerReplica, parent: 3, start: 20, end: 40},
		{layer: layerReplica, parent: 3, start: 25, end: 44},
		{layer: layerBackend, parent: 0, start: 95, end: 120},
	}
	self, overlap := selfTimes(spans)
	wantSelf := []time.Duration{
		100 - (40 + 30 + 5), // children cover [10,50] [60,90] [95,100]
		40 - 30,
		30,
		30 - 24, // the legs cover [20,44]
		20,
		19,
		25,
	}
	wantOverlap := []time.Duration{0, 0, 0, 20 + 19 - 24, 0, 0, 0}
	for i := range spans {
		if self[i] != wantSelf[i] {
			t.Errorf("span %d self = %v, want %v", i, self[i], wantSelf[i])
		}
		if overlap[i] != wantOverlap[i] {
			t.Errorf("span %d overlap = %v, want %v", i, overlap[i], wantOverlap[i])
		}
	}
	by, parallel := totalsByRoot(spans)
	if parallel != 15 {
		t.Errorf("parallel overlap = %v, want 15", parallel)
	}
	if got := by[layerRun][layerReplica]; got.spans != 2 || got.self != 39 || got.total != 39 {
		t.Errorf("replica totals under run = %+v", got)
	}
}

// TestAdopt: a span recorded without a traced context is given the
// innermost candidate open when it started, peers matched on request.
func TestAdopt(t *testing.T) {
	spans := []span{
		{layer: layerWire, peer: 0, parent: -1, start: 0, end: 50},
		{layer: layerWire, peer: 1, parent: -1, start: 5, end: 40},
		{layer: layerBackend, peer: 1, parent: -1, start: 10, end: 30},
		{layer: layerBackend, peer: 0, parent: -1, start: 12, end: 60}, // outlives its round trip
		{layer: layerBackend, peer: 2, parent: -1, start: 20, end: 25}, // nobody dialed peer 2
		{layer: layerWire, peer: 0, parent: -1, start: 70, end: 90},
		{layer: layerBackend, peer: 0, parent: -1, start: 72, end: 88},
	}
	adopt(spans, layerBackend, layerWire, true)
	for i, want := range map[int]int{2: 1, 3: 0, 4: -1, 6: 5} {
		if spans[i].parent != want {
			t.Errorf("span %d adopted by %d, want %d", i, spans[i].parent, want)
		}
	}
}

// TestBenchmarkFile: BENCHMARK.json and the benchmark agree on every
// workload and metric name and unit.
func TestBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, specs[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEndUnits) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(bf.EndToEnd), len(endToEndUnits))
	}
	for _, m := range bf.EndToEnd {
		if unit, ok := endToEndUnits[m.Name]; !ok || unit != m.Unit {
			t.Errorf("end-to-end metric %s (%s): the benchmark has unit %q", m.Name, m.Unit, unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v out of (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayerUnits) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(bf.PerLayer), len(perLayerUnits))
	}
	for _, m := range bf.PerLayer {
		if unit, ok := perLayerUnits[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per-layer metric %s (%s): the benchmark has unit %q", m.Name, m.Unit, unit)
		}
	}
}

func tinyConfig(t *testing.T) config {
	return config{sz: tinySizes, seed: 7, seconds: 0.4, clients: 2, setups: 1, trace: true, tmpRoot: t.TempDir()}
}

// TestSmoke runs every workload end to end at tiny sizes: set-up,
// measured phase, correctness gate, traced pass. Nothing may fail, and
// every metric BENCHMARK.json names must be reported.
func TestSmoke(t *testing.T) {
	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			res, err := runWorkload(sp, tinyConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", res.failed, res.attempted, res.errs)
			}
			for name := range endToEndUnits {
				if v, ok := res.endToEnd[name]; !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("end-to-end metric %s = %v (reported: %v)", name, v, ok)
				}
			}
			for name := range perLayerUnits {
				if v, ok := res.perLayer[name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s = %v (reported: %v)", name, v, ok)
				}
			}
			for name := range res.perLayer {
				if _, ok := perLayerUnits[name]; !ok {
					t.Errorf("per-layer metric %s has no unit", name)
				}
			}
			l := res.perLayer
			switch sp.name {
			case "warm_repeat":
				if l["textidx.searches_per_query"] != 0 {
					t.Errorf("warm_repeat reached the backend %v times a query", l["textidx.searches_per_query"])
				}
			case "cold_fleet":
				if l["texservice.wire.roundtrips_per_query"] <= 0 || l["shard.searches_per_query"] <= 0 {
					t.Errorf("cold_fleet recorded no wire or shard spans: %v", l)
				}
			case "mixed_ingest":
				if l["loadgen.ingest_n"] <= 0 || l["texservice.cache.invalidations"] <= 0 {
					t.Errorf("mixed_ingest recorded no ingest or no invalidation: %v", l)
				}
			}
		})
	}
}

// outcome is everything the equivalence test compares between the
// decorated and the undecorated stack.
type outcome struct {
	rows   []uint64 // per-query result checksums
	usage  texservice.Usage
	caches cacheCounts
}

// drive runs a 64-query slice of the workload through the stack's engine
// on one client; on the ingest workload a batch is applied after every
// eighth query, so both stacks see the same interleaving.
func drive(t *testing.T, rg *rig) outcome {
	t.Helper()
	var out outcome
	for i := 0; i < 64; i++ {
		res, err := rg.st.eng.QueryContext(context.Background(), rg.q.next())
		if err != nil {
			t.Fatal(err)
		}
		out.rows = append(out.rows, rowsChecksum(tableRows(res.Table)))
		out.usage = out.usage.Add(res.Usage)
		if rg.w != nil && i%8 == 7 {
			ops, _, _ := rg.w.gen.batch()
			if _, err := rg.st.gw.Ingest(context.Background(), gateway.IngestRequest{Source: textSource, Ops: ops}); err != nil {
				t.Fatal(err)
			}
		}
	}
	out.caches = cacheCounters(rg.st)
	// Which replica answers first is a matter of timing: a losing hedge
	// is charged one invocation and nothing else differs.
	out.usage.Cost -= float64(out.usage.Hedges) * texservice.DefaultCosts().CI
	out.usage.Hedges = 0
	out.usage.Cost = math.Round(out.usage.Cost*1e6) / 1e6
	out.usage.CritCost = math.Round(out.usage.CritCost*1e6) / 1e6
	return out
}

// TestDecoratedEquivalence: the timed decorators must not change what
// the stack does. A decorator that drops a capability makes the
// optimizer plan differently or a cache go stale, which shows as
// different rows, usage or cache counts.
func TestDecoratedEquivalence(t *testing.T) {
	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			cfg := tinyConfig(t)
			// A background compaction turns delta scans into index lookups
			// whenever it happens to finish, which moves Usage.Postings.
			cfg.sz.compactEvery = -1
			plain, err := setUp(sp, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer plain.close()
			traced, err := setUp(sp, cfg, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			defer traced.close()
			a, b := drive(t, plain), drive(t, traced)
			for i := range a.rows {
				if a.rows[i] != b.rows[i] {
					t.Errorf("query %d: rows differ between the plain and the decorated stack", i)
				}
			}
			if a.usage != b.usage {
				t.Errorf("usage differs:\n plain     %+v\n decorated %+v", a.usage, b.usage)
			}
			if a.caches != b.caches {
				t.Errorf("cache counters differ:\n plain     %+v\n decorated %+v", a.caches, b.caches)
			}
		})
	}
}

// TestTimedForwardsCapabilities: every optional capability of the inner
// service works through the decorator, and Unwrap exposes it.
func TestTimedForwardsCapabilities(t *testing.T) {
	cfg := tinyConfig(t)
	sp, _ := specByName("mixed_ingest")
	tr := newTracer()
	rg, err := setUp(sp, cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer rg.close()
	top := rg.st.eng.TextService(textSource)
	td, ok := top.(*timed)
	if !ok {
		t.Fatalf("the traced stack's top service is %T, want *timed", top)
	}
	if _, ok := td.Unwrap().(*texservice.ProbeCache); !ok {
		t.Errorf("Unwrap gives %T, want the probe cache", td.Unwrap())
	}
	ctx := context.Background()
	v0, err := td.IndexVersion(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ops, _, _ := rg.w.gen.batch()
	ack, err := td.Ingest(ctx, ops)
	if err != nil {
		t.Fatal(err)
	}
	if v1, _ := td.IndexVersion(ctx); v1 != ack.Version || v1 <= v0 {
		t.Errorf("version %d after an ack of version %d (was %d)", v1, ack.Version, v0)
	}
	pinned := td.PinSnapshot(ctx)
	if td.SnapshotPinned(pinned) {
		t.Error("a fresh pin reports as behind")
	}
	more, _, _ := rg.w.gen.batch()
	if _, err := td.Ingest(ctx, more); err != nil {
		t.Fatal(err)
	}
	if !td.SnapshotPinned(pinned) {
		t.Error("a pin from before a write does not report as behind")
	}
	if _, err := td.TermDocFrequency(ctx, "title", "text"); err != nil {
		t.Errorf("TermDocFrequency: %v", err)
	}
	if _, err := td.BatchSearch(ctx, nil, texservice.FormShort); err != nil {
		t.Errorf("BatchSearch: %v", err)
	}
}

// TestStreamsAreSeeded: the same seed gives the same queries and
// batches, another seed gives others.
func TestStreamsAreSeeded(t *testing.T) {
	for _, sp := range specs {
		draw := func(seed int64) string {
			ds, err := sp.data(tinySizes, seed)
			if err != nil {
				t.Fatal(err)
			}
			q, _ := sp.queries(tinySizes, ds, seed)
			var all []string
			for i := 0; i < 16; i++ {
				all = append(all, q.next())
			}
			all = append(all, q.sample(seed, 4)...)
			if sp.writer {
				ops, _, _ := newBatchGen(tinySizes, ds, seed).batch()
				all = append(all, fmt.Sprint(ops))
			}
			return fmt.Sprint(all, ds.tables[0].Rows[:4])
		}
		if draw(3) != draw(3) {
			t.Errorf("%s: the same seed gave different inputs", sp.name)
		}
		if draw(3) == draw(4) {
			t.Errorf("%s: seeds 3 and 4 gave the same inputs", sp.name)
		}
	}
}
