package gateway_test

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"textjoin/internal/core"
	"textjoin/internal/gateway"
	"textjoin/internal/texservice"
	"textjoin/internal/workload"
)

var bg = context.Background()

var testQueries = []string{
	`select student.name, mercury.docid from student, mercury
	 where student.year > 2 and student.name in mercury.author`,
	`select docid from project, mercury
	 where project.pname in mercury.title and project.member in mercury.author`,
	`select student.name from student, faculty
	 where student.advisor = faculty.fname`,
}

// newGateway builds a gateway over a demo engine whose text backend sits
// behind a fault injector. It starts with zero injected latency; tests
// that need a slow backend warm the planner's statistics caches first
// (sampling makes ~60 text calls per new predicate) and then degrade the
// backend with SetLatency, so only the scenario under test is slow.
// cacheSize > 0 enables the shared search cache.
func newGateway(t testing.TB, cfg gateway.Config, cacheSize int) (*gateway.Gateway, *texservice.Faulty) {
	t.Helper()
	demo := workload.NewDemo(600, 6)
	local, err := texservice.NewLocal(demo.Corpus.Index,
		texservice.WithShortFields("title", "author", "year"))
	if err != nil {
		t.Fatal(err)
	}
	faulty := texservice.NewFaulty(local, texservice.FaultConfig{})
	opts := core.DefaultOptions()
	opts.SearchCache = cacheSize
	eng := core.NewEngineWith(opts)
	for _, tbl := range demo.Catalog.Tables {
		if err := eng.RegisterTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.RegisterTextSource("mercury", faulty, demo.Corpus.Fields()...); err != nil {
		t.Fatal(err)
	}
	return gateway.New(eng, cfg), faulty
}

// warm runs each query once so the estimator (and any search cache) is
// populated before a test degrades the backend or measures counters.
func warm(t *testing.T, gw *gateway.Gateway, queries ...string) {
	t.Helper()
	for _, q := range queries {
		if _, err := gw.Query(bg, q); err != nil {
			t.Fatalf("warm-up query failed: %v", err)
		}
	}
}

// resultKey renders the part of a response that must be identical across
// runs of the same query: columns and rows.
func resultKey(t *testing.T, resp *gateway.Response) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Columns []string
		Rows    [][]string
	}{resp.Columns, resp.Rows})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestGatewayQueryBasic(t *testing.T) {
	gw, _ := newGateway(t, gateway.Config{Workers: 2}, 0)
	resp, err := gw.Query(bg, testQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) == 0 || len(resp.Columns) == 0 {
		t.Fatalf("empty result: %+v", resp)
	}
	if resp.Usage.Searches == 0 {
		t.Fatal("per-query usage saw no searches")
	}
	if resp.Plan == "" || resp.EstCost <= 0 {
		t.Fatalf("missing plan/estimate: plan=%q est=%v", resp.Plan, resp.EstCost)
	}
	s := gw.Stats()
	if s.Received != 1 || s.Admitted != 1 || s.Completed != 1 || s.Failed != 0 {
		t.Fatalf("counters after one query: %+v", s)
	}
	if s.Latency.Count != 1 || s.TextCost.Count != 1 {
		t.Fatalf("histograms not observed: %+v", s)
	}
	// The shared meter also accumulates the planner's statistics probes,
	// so it must be at least what this query's execution consumed.
	if s.Text.Searches < resp.Usage.Searches {
		t.Fatalf("shared meter %d searches, query saw %d", s.Text.Searches, resp.Usage.Searches)
	}
}

func TestGatewayPlanError(t *testing.T) {
	gw, _ := newGateway(t, gateway.Config{Workers: 1}, 0)
	if _, err := gw.Query(bg, "select nonsense"); err == nil {
		t.Fatal("malformed query succeeded")
	}
	s := gw.Stats()
	if s.PlanFailed != 1 || s.Failed != 1 || s.Completed != 0 {
		t.Fatalf("counters after plan failure: %+v", s)
	}
}

// TestGatewayConcurrentEquivalence: after the estimator and search caches
// are warmed sequentially, concurrent clients must get byte-identical
// results to the sequential reference — the shared stack never mixes
// queries up. Run with -race.
func TestGatewayConcurrentEquivalence(t *testing.T) {
	gw, _ := newGateway(t, gateway.Config{Workers: 4, QueueDepth: 1024, QueueTimeout: time.Minute}, 512)
	refs := make([]string, len(testQueries))
	usages := make([]texservice.Usage, len(testQueries))
	for i, q := range testQueries {
		resp, err := gw.Query(bg, q)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = resultKey(t, resp)
		usages[i] = resp.Usage
	}

	const clients, perClient = 8, 10
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				qi := (c + i) % len(testQueries)
				resp, err := gw.Query(bg, testQueries[qi])
				if err != nil {
					t.Errorf("client %d query %d: %v", c, qi, err)
					return
				}
				if got := resultKey(t, resp); got != refs[qi] {
					t.Errorf("client %d: query %d result differs:\n got %s\nwant %s", c, qi, got, refs[qi])
					return
				}
			}
		}(c)
	}
	wg.Wait()

	s := gw.Stats()
	want := uint64(len(testQueries) + clients*perClient)
	if s.Received != want || s.Admitted != want || s.Completed != want {
		t.Fatalf("counters: received=%d admitted=%d completed=%d, want all %d",
			s.Received, s.Admitted, s.Completed, want)
	}
	if s.Shed != 0 || s.Failed != 0 || s.InFlight != 0 || s.Queued != 0 {
		t.Fatalf("unexpected shed/failed/in-flight: %+v", s)
	}
	// Warmed runs hit the shared cache, so the hit rate must be high and
	// the text-side searches far fewer than one run per client.
	if s.Cache.Hits == 0 {
		t.Fatalf("no cache hits under a repeated workload: %+v", s.Cache)
	}
}

// TestGatewaySaturationSheds: offered concurrency at 16x a one-worker pool
// must shed with structured overload errors while every admitted query
// still returns correct results, and the gateway's counters must agree
// with the client-side tally.
func TestGatewaySaturationSheds(t *testing.T) {
	cfg := gateway.Config{Workers: 1, QueueDepth: 2, QueueTimeout: 30 * time.Millisecond}
	gw, faulty := newGateway(t, cfg, 0)

	ref := make(map[string]string)
	for _, q := range testQueries {
		resp, err := gw.Query(bg, q)
		if err != nil {
			t.Fatal(err)
		}
		ref[q] = resultKey(t, resp)
	}
	warmed := gw.Stats()
	faulty.SetLatency(5 * time.Millisecond)

	const clients, perClient = 16, 6
	var ok, shed, failed, issued atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				q := testQueries[(c+i)%len(testQueries)]
				issued.Add(1)
				resp, err := gw.Query(bg, q)
				switch {
				case err == nil:
					if got := resultKey(t, resp); got != ref[q] {
						t.Errorf("admitted query returned wrong rows under load")
					}
					ok.Add(1)
				case gateway.IsOverloaded(err):
					var o *gateway.OverloadError
					if !errors.As(err, &o) || (o.Reason != gateway.ReasonQueueFull && o.Reason != gateway.ReasonQueueTimeout) {
						t.Errorf("unstructured overload error: %v", err)
					}
					shed.Add(1)
				default:
					failed.Add(1)
					t.Errorf("unexpected error under load: %v", err)
				}
			}
		}(c)
	}
	wg.Wait()

	if shed.Load() == 0 {
		t.Fatal("16x offered load shed nothing")
	}
	if ok.Load() == 0 {
		t.Fatal("saturation starved every query")
	}
	s := gw.Stats()
	if got := s.Completed - warmed.Completed; got != ok.Load() {
		t.Fatalf("gateway completed %d, clients saw %d", got, ok.Load())
	}
	if got := s.Shed - warmed.Shed; got != shed.Load() {
		t.Fatalf("gateway shed %d, clients saw %d", got, shed.Load())
	}
	if got := s.Received - warmed.Received; got != issued.Load() {
		t.Fatalf("gateway received %d, clients issued %d", got, issued.Load())
	}
	if s.Admitted != s.Completed+s.Failed {
		t.Fatalf("admitted %d != completed %d + failed %d", s.Admitted, s.Completed, s.Failed)
	}
}

func TestGatewayQueueTimeout(t *testing.T) {
	cfg := gateway.Config{Workers: 1, QueueDepth: 4, QueueTimeout: 20 * time.Millisecond}
	gw, faulty := newGateway(t, cfg, 0)
	warm(t, gw, testQueries[0])
	faulty.SetLatency(100 * time.Millisecond)

	// Occupy the only worker slot.
	done := make(chan error, 1)
	go func() {
		_, err := gw.Query(bg, testQueries[0])
		done <- err
	}()
	waitFor(t, func() bool { return gw.Stats().InFlight == 1 })

	_, err := gw.Query(bg, testQueries[2])
	var o *gateway.OverloadError
	if !errors.As(err, &o) || o.Reason != gateway.ReasonQueueTimeout {
		t.Fatalf("queued query got %v, want queue-timeout overload", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("slot-holding query failed: %v", err)
	}
	if s := gw.Stats(); s.ShedQueueTimeout != 1 {
		t.Fatalf("shed_queue_timeout = %d, want 1", s.ShedQueueTimeout)
	}
}

func TestGatewayQueueFull(t *testing.T) {
	cfg := gateway.Config{Workers: 1, QueueDepth: 1, QueueTimeout: 5 * time.Second}
	gw, faulty := newGateway(t, cfg, 0)
	warm(t, gw, testQueries[0], testQueries[2])
	faulty.SetLatency(200 * time.Millisecond)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _, _ = gw.Query(bg, testQueries[0]) }() // takes the slot
	waitFor(t, func() bool { return gw.Stats().InFlight == 1 })
	go func() { defer wg.Done(); _, _ = gw.Query(bg, testQueries[2]) }() // fills the queue
	waitFor(t, func() bool { return gw.Stats().Queued == 1 })

	_, err := gw.Query(bg, testQueries[1])
	var o *gateway.OverloadError
	if !errors.As(err, &o) || o.Reason != gateway.ReasonQueueFull {
		t.Fatalf("overflow query got %v, want queue-full overload", err)
	}
	wg.Wait()
	if s := gw.Stats(); s.ShedQueueFull != 1 {
		t.Fatalf("shed_queue_full = %d, want 1", s.ShedQueueFull)
	}
}

// TestGatewayAbandonedQueue: a caller whose own context ends while queued
// gets that context error, not an overload.
func TestGatewayAbandonedQueue(t *testing.T) {
	cfg := gateway.Config{Workers: 1, QueueDepth: 4, QueueTimeout: 5 * time.Second}
	gw, faulty := newGateway(t, cfg, 0)
	warm(t, gw, testQueries[0])
	faulty.SetLatency(200 * time.Millisecond)
	done := make(chan error, 1)
	go func() {
		_, err := gw.Query(bg, testQueries[0])
		done <- err
	}()
	waitFor(t, func() bool { return gw.Stats().InFlight == 1 })

	ctx, cancel := context.WithTimeout(bg, 20*time.Millisecond)
	defer cancel()
	if _, err := gw.Query(ctx, testQueries[2]); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoned queue wait got %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("slot holder failed: %v", err)
	}
	if s := gw.Stats(); s.AbandonedQueue != 1 {
		t.Fatalf("abandoned_queue = %d, want 1", s.AbandonedQueue)
	}
}

func TestGatewayBudgetAbort(t *testing.T) {
	// One text search costs at least c_i = 3 simulated seconds, so a cap
	// of 0.5 is crossed by the query's first charge and the abort must
	// cancel the rest of the plan.
	gw, _ := newGateway(t, gateway.Config{Workers: 1, CostLimit: 0.5}, 0)
	_, err := gw.Query(bg, testQueries[0])
	var b *gateway.BudgetError
	if !errors.As(err, &b) {
		t.Fatalf("got %v, want BudgetError", err)
	}
	if b.Limit != 0.5 || b.Spent < b.Limit {
		t.Fatalf("budget error fields: %+v", b)
	}
	s := gw.Stats()
	if s.BudgetAborted != 1 || s.Failed != 1 {
		t.Fatalf("counters after budget abort: %+v", s)
	}
	// A relational-only query spends nothing and still runs.
	if _, err := gw.Query(bg, testQueries[2]); err != nil {
		t.Fatalf("free query under a budget failed: %v", err)
	}
}

func TestGatewayQueryTimeout(t *testing.T) {
	gw, faulty := newGateway(t, gateway.Config{Workers: 1, QueryTimeout: 25 * time.Millisecond}, 0)
	warm(t, gw, testQueries[0])
	faulty.SetLatency(200 * time.Millisecond)
	_, err := gw.Query(bg, testQueries[0])
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want deadline exceeded", err)
	}
	if s := gw.Stats(); s.TimedOut != 1 {
		t.Fatalf("timed_out = %d, want 1", s.TimedOut)
	}
}

func TestGatewayExplain(t *testing.T) {
	gw, _ := newGateway(t, gateway.Config{Workers: 1}, 0)
	resp, err := gw.Explain(bg, testQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Plan == "" || resp.EstCost <= 0 || resp.Classified == "" {
		t.Fatalf("explain response incomplete: %+v", resp)
	}
	if s := gw.Stats(); s.Completed != 1 {
		t.Fatalf("explain not counted: %+v", s)
	}
}

// TestGatewayDrain: draining lets in-flight queries finish, wakes and
// rejects queued ones, and rejects new arrivals.
func TestGatewayDrain(t *testing.T) {
	cfg := gateway.Config{Workers: 1, QueueDepth: 4, QueueTimeout: 5 * time.Second}
	gw, faulty := newGateway(t, cfg, 0)
	warm(t, gw, testQueries[0], testQueries[2])
	faulty.SetLatency(150 * time.Millisecond)

	inflight := make(chan error, 1)
	go func() {
		_, err := gw.Query(bg, testQueries[0])
		inflight <- err
	}()
	waitFor(t, func() bool { return gw.Stats().InFlight == 1 })

	queued := make(chan error, 1)
	go func() {
		_, err := gw.Query(bg, testQueries[2])
		queued <- err
	}()
	waitFor(t, func() bool { return gw.Stats().Queued == 1 })

	drainCtx, cancel := context.WithTimeout(bg, 5*time.Second)
	defer cancel()
	if err := gw.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight query was not allowed to finish: %v", err)
	}
	if err := <-queued; !errors.Is(err, gateway.ErrDraining) {
		t.Fatalf("queued query got %v, want ErrDraining", err)
	}
	if _, err := gw.Query(bg, testQueries[2]); !errors.Is(err, gateway.ErrDraining) {
		t.Fatalf("post-drain query got %v, want ErrDraining", err)
	}
	s := gw.Stats()
	if !s.Draining || s.InFlight != 0 {
		t.Fatalf("post-drain stats: %+v", s)
	}
	if s.RejectedDraining != 2 {
		t.Fatalf("rejected_draining = %d, want 2", s.RejectedDraining)
	}
	// Idempotent.
	if err := gw.Drain(drainCtx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestGatewayDrainTimeout: a drain context that expires returns its error
// while the in-flight query keeps running to completion.
func TestGatewayDrainTimeout(t *testing.T) {
	gw, faulty := newGateway(t, gateway.Config{Workers: 1}, 0)
	warm(t, gw, testQueries[0])
	faulty.SetLatency(300 * time.Millisecond)
	done := make(chan error, 1)
	go func() {
		_, err := gw.Query(bg, testQueries[0])
		done <- err
	}()
	waitFor(t, func() bool { return gw.Stats().InFlight == 1 })
	ctx, cancel := context.WithTimeout(bg, 10*time.Millisecond)
	defer cancel()
	if err := gw.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain returned %v, want deadline exceeded", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("in-flight query was killed by drain: %v", err)
	}
}

func TestGatewayStatsJSON(t *testing.T) {
	gw, _ := newGateway(t, gateway.Config{Workers: 3}, 64)
	if _, err := gw.Query(bg, testQueries[0]); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(gw.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]interface{}
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"workers", "queue_depth", "received", "admitted", "completed",
		"shed", "cache", "latency_seconds", "text_cost_seconds", "text_usage"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("snapshot JSON missing %q", key)
		}
	}
	if decoded["workers"].(float64) != 3 {
		t.Fatalf("workers = %v", decoded["workers"])
	}
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 2s")
}
