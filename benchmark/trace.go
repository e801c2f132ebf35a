package main

import (
	"context"
	"runtime"
	"time"

	"textjoin/internal/cost"
	"textjoin/internal/plan"
	"textjoin/internal/replica"
	"textjoin/internal/sqlparse"
	"textjoin/internal/texservice"
)

// pass is what one single-client pass through core.Engine measured from
// outside: wall time around the calls, the engine's own phase timers, and
// the counts core.Result carries.
type pass struct {
	queries  int
	failures []string
	wall     time.Duration // PrepareContext + RunContext, as the caller sees them
	parse    time.Duration // sqlparse.Parse + Analyze on the same text, timed separately
	optimize time.Duration // core.Result.OptimizeTime
	execute  time.Duration // core.Result.ExecuteTime
	batches  int
	rows     int
	usage    texservice.Usage
	methods  map[string]int // executed plans per join method
}

// enginePass runs the stream on one client for dur, calling the engine
// the way gateway.execute does (prepare, then run) with a span around
// each call when tr is set. The ingest workload's writer keeps pace
// meanwhile.
func enginePass(rg *rig, tr *tracer, dur time.Duration) *pass {
	p := &pass{methods: map[string]int{}}
	if rg.w != nil {
		rg.w.start()
		defer func() {
			_, _, failures := rg.w.stop()
			p.failures = append(p.failures, failures...)
		}()
	}
	eng := rg.st.eng
	start := time.Now()
	for time.Since(start) < dur {
		sql := rg.q.next()
		p.queries++

		t0 := time.Now()
		if q, err := sqlparse.Parse(sql); err == nil {
			_, _ = sqlparse.Analyze(q, eng.Catalog())
		}
		p.parse += time.Since(t0)

		ctx := context.Background()
		t1 := time.Now()
		pctx, endPrepare := tr.begin(ctx, layerPrepare, -1, false)
		prep, err := eng.PrepareContext(pctx, sql)
		endPrepare()
		if err != nil {
			p.failures = append(p.failures, "traced prepare failed: "+err.Error())
			continue
		}
		rctx, endRun := tr.begin(ctx, layerRun, -1, false)
		res, err := prep.RunContext(rctx)
		endRun()
		p.wall += time.Since(t1)
		if err != nil {
			p.failures = append(p.failures, "traced run failed: "+err.Error())
			continue
		}
		p.optimize += res.OptimizeTime
		p.execute += res.ExecuteTime
		p.batches += res.Batches
		p.rows += res.Table.Cardinality()
		p.usage = p.usage.Add(res.Usage)
		for _, tj := range plan.TextJoins(res.Plan) {
			p.methods[tj.Method.String()]++
		}
		rg.w.tick()
	}
	return p
}

// cacheCounts are the two caches' cumulative counters.
type cacheCounts struct {
	hits, misses, dedups, invals int
	probeHits, probeMisses       int
}

func cacheCounters(st *stack) cacheCounts {
	var c cacheCounts
	c.hits, c.misses = st.cached.Stats()
	c.dedups = st.cached.Dedups()
	c.invals = st.cached.Invalidations()
	c.probeHits, c.probeMisses = st.probe.Stats()
	return c
}

func fleetCounters(st *stack) replica.Stats {
	if st.fleet == nil {
		return replica.Stats{}
	}
	return st.fleet.Stats()
}

// tracedPass runs the single-client pass twice for dur each, on two
// fresh stacks set up the same way — one with no benchmark code on the
// query path, one with a timed decorator at every text-service boundary
// — and turns the second pass's spans into the per-layer metrics. Both
// passes run the same queries from the same state, so the ratio of their
// latencies is the decorators' overhead.
func tracedPass(res *result, sp spec, cfg config, dur time.Duration) error {
	plain, err := setUp(sp, cfg, nil)
	if err != nil {
		return err
	}
	runtime.GC()
	off := enginePass(plain, nil, dur)
	plain.close()

	tr := newTracer()
	trg, err := setUp(sp, cfg, tr)
	if err != nil {
		return err
	}
	defer trg.close()
	runtime.GC()
	warm := tr.mark() // set-up's own spans are not the pass's
	c0, f0 := cacheCounters(trg.st), fleetCounters(trg.st)
	on := enginePass(trg, tr, dur)
	c1, f1 := cacheCounters(trg.st), fleetCounters(trg.st)

	res.attempted += off.queries + on.queries
	for _, f := range append(off.failures, on.failures...) {
		res.fail("%s", f)
	}

	spans := tr.since(warm)
	// Calls made under context.Background (the estimator's probes) belong
	// to the engine call that was open; a backend's work belongs to the
	// round trip of the client dialed to its server.
	adopt(spans, layerCache, layerPrepare, false)
	adopt(spans, layerCache, layerRun, false)
	adopt(spans, layerBackend, layerWire, true)
	by, overlap := totalsByRoot(spans)
	prepare, run := by[layerPrepare], by[layerRun]
	layer := func(name string) layerTotals {
		a, b := prepare[name], run[name]
		return layerTotals{spans: a.spans + b.spans, searches: a.searches + b.searches,
			total: a.total + b.total, self: a.self + b.self}
	}

	l := res.perLayer
	n := float64(on.queries)
	l["sqlparse.ms_per_query"] = per(ms(on.parse), n)
	l["optimizer.ms_per_query"] = per(ms(on.optimize), n)
	l["optimizer.text_ms_per_query"] = per(ms(prepare[layerCache].total), n)
	l["optimizer.searches_per_query"] = per(float64(prepare[layerCache].searches), n)
	optimizerSelf := on.optimize - (prepare[layerPrepare].total - prepare[layerPrepare].self)
	execSelf := on.execute - (run[layerRun].total - run[layerRun].self)
	l["exec.ms_per_query"] = per(ms(on.execute), n)
	l["exec.self_ms_per_query"] = per(ms(execSelf), n)
	l["exec.batches_per_query"] = per(float64(on.batches), n)
	l["exec.rows_per_query"] = per(float64(on.rows), n)
	l["exec.methods_distinct"] = float64(len(on.methods))
	for _, m := range cost.AllMethods {
		l["exec.method."+methodKey(m)+".queries"] = float64(on.methods[m.String()])
	}

	cache := layer(layerCache)
	l["texservice.cache.hit_ratio"] = per(float64(c1.hits-c0.hits), float64(c1.hits-c0.hits+c1.misses-c0.misses))
	l["texservice.cache.self_ms_per_query"] = per(ms(cache.self), n)
	l["texservice.cache.dedups"] = float64(c1.dedups - c0.dedups)
	l["texservice.cache.invalidations"] = float64(c1.invals - c0.invals)
	l["texservice.probecache.hit_ratio"] = per(float64(c1.probeHits-c0.probeHits),
		float64(c1.probeHits-c0.probeHits+c1.probeMisses-c0.probeMisses))

	backend := layer(layerBackend)
	l["textidx.eval_ms_per_query"] = per(ms(backend.self), n)
	l["textidx.eval_us_per_search"] = per(us(backend.self), float64(backend.searches))
	l["textidx.searches_per_query"] = per(float64(backend.searches), n)
	l["textidx.postings_per_query"] = per(float64(on.usage.Postings), n)
	l["textidx.short_docs_per_query"] = per(float64(on.usage.ShortDocs), n)
	l["textidx.long_docs_per_query"] = per(float64(on.usage.LongDocs), n)

	shard, rep, wire := layer(layerShard), layer(layerReplica), layer(layerWire)
	l["shard.self_us_per_search"] = per(us(shard.self), float64(shard.searches))
	l["shard.searches_per_query"] = per(float64(shard.searches), n)
	l["replica.self_us_per_call"] = per(us(rep.self), float64(rep.spans))
	l["replica.hedges"] = float64(f1.Hedges - f0.Hedges)
	l["replica.hedge_wins"] = float64(f1.HedgeWins - f0.HedgeWins)
	l["replica.failovers"] = float64(f1.Failovers - f0.Failovers)
	l["texservice.wire.self_us_per_roundtrip"] = per(us(wire.self), float64(wire.spans))
	l["texservice.wire.self_us_per_hit"] = per(us(wire.self), float64(on.usage.ShortDocs+on.usage.LongDocs))
	l["texservice.wire.roundtrips_per_query"] = per(float64(wire.spans), n)

	l["trace.overhead_ratio"] = per(per(ms(on.wall), n), per(ms(off.wall), float64(off.queries)))
	// Self times add up to the wall time plus whatever ran in parallel
	// (the scatter's partition legs, a hedge beside its primary).
	attributed := on.parse + optimizerSelf + execSelf + cache.self + shard.self + rep.self + wire.self + backend.self
	l["trace.parallel_overlap_ms_per_query"] = per(ms(overlap), n)
	l["trace.unattributed_ms_per_query"] = per(ms(on.wall-attributed+overlap), n)
	l["trace.query_ms"] = per(ms(on.wall), n)
	return nil
}

// methodKey is a join method's name in metric-name characters.
func methodKey(m cost.Method) string {
	switch m {
	case cost.MethodTS:
		return "ts"
	case cost.MethodRTP:
		return "rtp"
	case cost.MethodSJRTP:
		return "sj_rtp"
	case cost.MethodPTS:
		return "p_ts"
	case cost.MethodPRTP:
		return "p_rtp"
	case cost.MethodPTSBatch:
		return "p_ts_batched"
	default:
		return "p_rtp_batched"
	}
}
