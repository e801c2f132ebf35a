package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"textjoin/internal/gateway"
	"textjoin/internal/ingest"
	"textjoin/internal/textidx"
)

// config is one invocation's settings.
type config struct {
	sz      sizes
	seed    int64
	seconds float64 // length of the measured phase
	clients int
	setups  int    // set-up is repeated this many times and its median reported
	trace   bool   // also run the single-client traced pass
	tmpRoot string // temp directories are created under this one
}

// windows is how many equal slices the measured phase is cut into. The
// latency percentiles and the throughput reported are those of the best
// slice (lowest p50, lowest p95, highest rate): what disturbs a run on a
// shared box — other tenants' memory traffic, for bursts of ten seconds
// or so — only ever slows it down, and over ten runs the best slice's
// figures spread half as wide as the median slice's.
const windows = 5

// tracedShare: each single-client pass of the traced part runs for this
// fraction of the measured phase's length.
const tracedShare = 5

// gateSample is how many queries the correctness gate compares with
// exec.NaiveQuery.
const gateSample = 32

// result is what one workload run produced.
type result struct {
	endToEnd  map[string]float64
	perLayer  map[string]float64
	attempted int
	failed    int
	errs      []string // the first few failures, for the report
}

func (r *result) fail(format string, args ...interface{}) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// rig is a set-up workload: data, stack, query stream and, for the
// ingest workload, the paced writer.
type rig struct {
	ds *dataset
	st *stack
	q  *stream
	w  *writer
}

func (rg *rig) close() {
	rg.st.close()
	if rg.st.dir != "" {
		_ = os.RemoveAll(rg.st.dir)
	}
}

// setUp generates the data, assembles the stack and warms it up: the
// warm-up queries run on one client in stream order, so the optimizer's
// cached estimates and the caches' contents are the same on every run.
func setUp(sp spec, cfg config, tr *tracer) (*rig, error) {
	ds, err := sp.data(cfg.sz, cfg.seed)
	if err != nil {
		return nil, err
	}
	dir := ""
	if sp.kind == textLive {
		if dir, err = os.MkdirTemp(cfg.tmpRoot, sp.name+"-"); err != nil {
			return nil, err
		}
	}
	workers := cfg.clients
	if sp.writer {
		workers++ // the writer's read-your-writes queries take a slot too
	}
	st, err := buildStack(ds, sp.kind, workers, tr, dir, cfg.sz.compactEvery)
	if err != nil {
		if dir != "" {
			_ = os.RemoveAll(dir)
		}
		return nil, err
	}
	rg := &rig{ds: ds, st: st}
	var warmup int
	rg.q, warmup = sp.queries(cfg.sz, ds, cfg.seed)
	if sp.writer {
		rg.w = &writer{gw: st.gw, gen: newBatchGen(cfg.sz, ds, cfg.seed), tr: tr}
	}
	for i := 0; i < warmup; i++ {
		if _, err := st.gw.Query(context.Background(), rg.q.next()); err != nil {
			rg.close()
			return nil, fmt.Errorf("warm-up query %d: %w", i, err)
		}
	}
	return rg, nil
}

// sample is one completed query as its client saw it.
type sample struct {
	done    time.Duration // completion time, from the start of the phase
	lat     time.Duration
	queued  time.Duration // gateway.Response.Queued
	elapsed time.Duration // gateway.Response.Elapsed
}

// load is the outcome of one concurrent phase.
type load struct {
	samples   []sample
	attempted int
	failures  []string
	acks      []ack
}

// runLoad drives the gateway closed-loop for dur: each client sends its
// next query when the previous one returns, no think time. A workload
// with a writer runs it beside the clients, paced by their progress.
// frozen is set when the corpus cannot change, so a repeated SQL text
// must repeat its rows.
func runLoad(rg *rig, cfg config, dur time.Duration, frozen bool) *load {
	var (
		mu   sync.Mutex
		out  load
		sums = map[string]uint64{}
		wg   sync.WaitGroup
	)
	if rg.w != nil {
		rg.w.start()
	}
	start := time.Now()
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			var failures []string
			n := 0
			for time.Since(start) < dur {
				sql := rg.q.next()
				n++
				t0 := time.Now()
				resp, err := rg.st.gw.Query(context.Background(), sql)
				lat := time.Since(t0)
				if err != nil {
					failures = append(failures, fmt.Sprintf("query failed: %v: %s", err, sql))
					continue
				}
				mine = append(mine, sample{done: time.Since(start), lat: lat, queued: resp.Queued, elapsed: resp.Elapsed})
				rg.w.tick()
				if frozen {
					sum := rowsChecksum(resp.Rows)
					mu.Lock()
					first, seen := sums[sql]
					if !seen {
						sums[sql] = sum
					}
					mu.Unlock()
					if seen && first != sum {
						failures = append(failures, "repeated query changed its rows: "+sql)
					}
				}
			}
			mu.Lock()
			out.samples = append(out.samples, mine...)
			out.attempted += n
			out.failures = append(out.failures, failures...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if rg.w != nil {
		acks, n, failures := rg.w.stop()
		out.acks = acks
		out.attempted += n
		out.failures = append(out.failures, failures...)
	}
	sort.Slice(out.samples, func(a, b int) bool { return out.samples[a].done < out.samples[b].done })
	return &out
}

// ack is one ingest batch as the writer saw it, timed from when the
// batch fell due, not from when it was sent.
type ack struct {
	late  time.Duration // send time - due time
	acked time.Duration // durable ack - due time
}

// writer sends gateway.Ingest batches beside the readers: a batch falls
// due each time the readers have completed ingestEvery more queries —
// about 20 batches a second at the seed commit's read rate. Pacing by
// progress and not by the clock keeps the number of cache invalidations,
// WAL syncs and compactions per query the same on a slow run and a fast
// one, so the per-query costs of the workload do not inherit the run's
// throughput noise. After every rywEvery-th ack the writer queries for
// the batch's unique author, which must return exactly the batch's puts.
type writer struct {
	gw  *gateway.Gateway
	gen *batchGen
	tr  *tracer

	completed atomic.Int64
	due       chan time.Time
	wg        sync.WaitGroup

	acks      []ack
	attempted int
	failures  []string
}

// start begins a phase; stop ends it and returns what the phase saw.
func (w *writer) start() {
	// Room for the writer to fall a few seconds of batches behind without
	// stalling the readers; full, it blocks them, losing nothing.
	w.due = make(chan time.Time, 256)
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		for due := range w.due {
			w.send(due)
		}
	}()
}

func (w *writer) stop() (acks []ack, attempted int, failures []string) {
	close(w.due)
	w.wg.Wait()
	acks, attempted, failures = w.acks, w.attempted, w.failures
	w.acks, w.attempted, w.failures = nil, 0, nil
	return acks, attempted, failures
}

// tick records one completed query. A nil writer ignores it.
func (w *writer) tick() {
	if w != nil && w.completed.Add(1)%ingestEvery == 0 {
		w.due <- time.Now()
	}
}

func (w *writer) send(due time.Time) {
	ops, b, puts := w.gen.batch()
	// The root span keeps the writer's calls out of the reader's tree.
	ctx, end := w.tr.begin(context.Background(), "writer", -1, false)
	defer end()
	w.attempted++
	sent := time.Now()
	_, err := w.gw.Ingest(ctx, gateway.IngestRequest{Source: textSource, Ops: ops})
	acked := time.Now()
	if err != nil {
		w.failures = append(w.failures, fmt.Sprintf("ingest batch %d failed: %v", b, err))
		return
	}
	w.acks = append(w.acks, ack{late: sent.Sub(due), acked: acked.Sub(due)})
	if b%rywEvery != rywEvery-1 {
		return
	}
	w.attempted++
	resp, err := w.gw.Query(ctx, fmt.Sprintf(rywShape, b))
	switch {
	case err != nil:
		w.failures = append(w.failures, fmt.Sprintf("read-your-writes query for batch %d failed: %v", b, err))
	case len(resp.Rows) != puts:
		w.failures = append(w.failures, fmt.Sprintf("read-your-writes: batch %d acked %d puts, query returned %d", b, puts, len(resp.Rows)))
	}
}

// quiesce folds every acknowledged write into the store's on-disk
// snapshot and loads it back: the frozen index the correctness gate
// hands exec.NaiveQuery. Compact is a no-op while a background
// compaction runs, so it is retried until the manifest has caught up.
func quiesce(st *stack) (*textidx.Index, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		if err := st.store.Compact(context.Background()); err != nil {
			return nil, err
		}
		man, ok, err := ingest.LoadManifest(st.dir)
		if err != nil {
			return nil, err
		}
		if ok && man.Seq == st.store.Version() {
			return textidx.LoadFile(filepath.Join(st.dir, man.Snapshot))
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("benchmark: snapshot did not reach version %d", st.store.Version())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// runWorkload sets the workload up, measures it with tracing off, checks
// its answers, and with cfg.trace runs the traced pass.
func runWorkload(sp spec, cfg config) (*result, error) {
	res := &result{endToEnd: map[string]float64{}, perLayer: map[string]float64{}}

	var rg *rig
	var setupSecs []float64
	for k := 0; k < cfg.setups; k++ {
		if rg != nil {
			rg.close()
			rg = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if rg, err = setUp(sp, cfg, nil); err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
	}
	defer func() { rg.close() }()

	// Measured phase.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	text0 := rg.st.gw.Stats().Text
	store0 := storeCounters(rg.st)
	dur := time.Duration(cfg.seconds * float64(time.Second))
	ld := runLoad(rg, cfg, dur, !sp.writer)
	runtime.ReadMemStats(&m1)
	text := rg.st.gw.Stats().Text.Sub(text0)
	store1 := storeCounters(rg.st)

	res.attempted += ld.attempted
	for _, f := range ld.failures {
		res.fail("%s", f)
	}

	// The index the answers are checked against; for the live workload
	// this also brings the store to a defined state before the heap is
	// measured (no compaction half done).
	index := rg.ds.corpus.Index
	if sp.kind == textLive {
		var err error
		if index, err = quiesce(rg.st); err != nil {
			return nil, err
		}
	}
	// Twice: the first collection only moves sync.Pool contents to the
	// pools' victim caches, the second frees them.
	runtime.GC()
	runtime.GC()
	var mHeap runtime.MemStats
	runtime.ReadMemStats(&mHeap)

	gate(res, rg, sp, cfg, index)

	queries := float64(len(ld.samples))
	p50, p95, qps := windowStats(ld.samples, dur)
	e := res.endToEnd
	e["setup_s"] = median(setupSecs)
	e["query_p50_ms"] = p50
	e["query_p95_ms"] = p95
	e["throughput_qps"] = qps
	e["sim_text_cost_s"] = per(text.Cost, queries)
	e["alloc_kb_per_query"] = per(float64(m1.TotalAlloc-m0.TotalAlloc)/1024, queries)
	e["heap_live_mb"] = float64(mHeap.HeapAlloc) / (1 << 20)

	if cfg.trace {
		loadLayers(res, ld, store0, store1)
		if err := tracedPass(res, sp, cfg, dur/tracedShare); err != nil {
			return nil, err
		}
	}
	// Every operation counts: queries, ingest batches, read-your-writes
	// and gate comparisons.
	e["ok_ratio"] = per(float64(res.attempted-res.failed), float64(res.attempted))
	return res, nil
}

// windowStats cuts the phase into equal windows by completion time and
// returns the best window's p50 and p95 latency (ms) and completions
// per second, each taken on its own.
func windowStats(samples []sample, dur time.Duration) (p50, p95, qps float64) {
	p50, p95 = math.Inf(1), math.Inf(1)
	width := dur / windows
	i := 0
	for w := 0; w < windows; w++ {
		hi := time.Duration(w+1) * width
		var lats []float64
		for ; i < len(samples) && samples[i].done < hi; i++ {
			lats = append(lats, ms(samples[i].lat))
		}
		if len(lats) == 0 {
			continue
		}
		p50 = math.Min(p50, percentile(lats, 50))
		p95 = math.Min(p95, percentile(lats, 95))
		qps = math.Max(qps, float64(len(lats))/width.Seconds())
	}
	if qps == 0 {
		return 0, 0, 0
	}
	return p50, p95, qps
}

// storeCounts are the live store's cumulative counters.
type storeCounts struct {
	syncs       uint64
	compactions uint64
	deltaLen    int
	version     uint64
}

func storeCounters(st *stack) storeCounts {
	if st.store == nil {
		return storeCounts{}
	}
	_, syncs := st.store.SyncStats()
	return storeCounts{syncs: syncs, compactions: st.store.Compactions(),
		deltaLen: st.store.DeltaLen(), version: st.store.Version()}
}

// loadLayers fills the per-layer metrics that only the concurrent phase
// can give: gateway queueing, the load generator's own figures, and the
// ingest path.
func loadLayers(res *result, ld *load, s0, s1 storeCounts) {
	l := res.perLayer
	var queued, overhead time.Duration
	for _, s := range ld.samples {
		queued += s.queued
		overhead += s.lat - s.queued - s.elapsed
	}
	n := float64(len(ld.samples))
	l["gateway.queue_ms_per_query"] = per(ms(queued), n)
	l["gateway.overhead_ms_per_query"] = per(ms(overhead), n)
	l["loadgen.query_n"] = n
	l["loadgen.ingest_n"] = float64(len(ld.acks))

	var late, acked []float64
	var apply time.Duration
	for _, a := range ld.acks {
		late = append(late, ms(a.late))
		acked = append(acked, ms(a.acked))
		apply += a.acked - a.late // send to durable ack
	}
	batches := float64(len(ld.acks))
	l["loadgen.ingest_late_p95_ms"] = percentile(late, 95)
	l["ingest.ack_p50_ms"] = percentile(acked, 50)
	l["ingest.ack_p95_ms"] = percentile(acked, 95)
	l["ingest.apply_ms_per_batch"] = per(ms(apply), batches)
	l["ingest.wal_syncs_per_batch"] = per(float64(s1.syncs-s0.syncs), batches)
	l["ingest.compactions"] = float64(s1.compactions - s0.compactions)
	l["ingest.delta_len_end"] = float64(s1.deltaLen)
	l["ingest.version_end"] = float64(s1.version)
}
