package gateway_test

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"textjoin/internal/core"
	"textjoin/internal/gateway"
	"textjoin/internal/obs"
	"textjoin/internal/replica"
	"textjoin/internal/shard"
	"textjoin/internal/telemetry"
	"textjoin/internal/texservice"
	"textjoin/internal/workload"
)

// spanAttr returns the value of the named attribute ("" when absent).
func spanAttr(s obs.SpanSnapshot, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// collectNamed appends every span in the tree with the given name.
func collectNamed(s obs.SpanSnapshot, name string, out *[]obs.SpanSnapshot) {
	if s.Name == name {
		*out = append(*out, s)
	}
	for _, c := range s.Children {
		collectNamed(c, name, out)
	}
}

// hasRemote reports whether the subtree contains a backend-grafted span.
func hasRemote(s obs.SpanSnapshot) bool {
	if s.Remote != "" {
		return true
	}
	for _, c := range s.Children {
		if hasRemote(c) {
			return true
		}
	}
	return false
}

// TestGatewayTraceStore: with a trace store configured, every query is
// traced, retained traces are served back by ID, and the /metrics
// exposition gains the trace-store series plus bucket exemplars pointing
// at retained trace IDs — all passing the line-grammar validator.
func TestGatewayTraceStore(t *testing.T) {
	ts := obs.NewTraceStore(64, 1, 0)
	sink := telemetry.NewSink(64)
	gw, _ := newGateway(t, gateway.Config{Workers: 2, TraceStore: ts, Telemetry: sink}, 0)

	resp, err := gw.Query(bg, testQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.TraceID == "" {
		t.Fatal("trace store config did not imply tracing")
	}
	st, ok := ts.Get(resp.TraceID)
	if !ok {
		t.Fatalf("completed query's trace %s not retained", resp.TraceID)
	}
	if st.Outcome != obs.OutcomeOK || st.Query != testQueries[0] {
		t.Errorf("stored trace = outcome %q query %q", st.Outcome, st.Query)
	}
	if obs.SpanCount(st.Root) < 3 {
		t.Errorf("stored trace has only %d spans", obs.SpanCount(st.Root))
	}
	if _, err := gw.Query(bg, "select nothing from nowhere"); err == nil {
		t.Fatal("bad query accepted")
	}

	var b strings.Builder
	gw.WriteMetrics(&b)
	text := b.String()
	samples := validatePromText(t, text)
	for key, min := range map[string]float64{
		"textjoin_traces_retained":         2,
		"textjoin_traces_kept_total":       2,
		"textjoin_traces_tail_total":       1, // the failed query
		"textjoin_traces_sampled_total":    1, // the ok query at 1-in-1
		"textjoin_telemetry_retained":      2,
		"textjoin_telemetry_records_total": 2,
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
	// The latency histogram links its bucket to the retained ok trace.
	wantEx := fmt.Sprintf("# {trace_id=%q}", resp.TraceID)
	if !strings.Contains(text, wantEx) {
		t.Errorf("no exemplar referencing retained trace %s in exposition", resp.TraceID)
	}
	// Every exemplar must reference a retained (servable) trace.
	for _, line := range strings.Split(text, "\n") {
		if i := strings.Index(line, `# {trace_id="`); i >= 0 {
			id := line[i+len(`# {trace_id="`):]
			id = id[:strings.Index(id, `"`)]
			if _, ok := ts.Get(id); !ok {
				t.Errorf("exemplar references unretained trace %s", id)
			}
		}
	}

	s := gw.Stats()
	if s.Traces == nil || s.Traces.Kept != 2 {
		t.Errorf("snapshot traces = %+v", s.Traces)
	}
	if s.Telemetry == nil || s.Telemetry.Appended != 2 {
		t.Errorf("snapshot telemetry = %+v", s.Telemetry)
	}
}

// TestTraceStoreRetentionMixed is the acceptance criterion on sampling:
// in a mixed workload with an aggressive sampling rate, every failed
// query's trace is retained (tail rule) while healthy traces are thinned.
func TestTraceStoreRetentionMixed(t *testing.T) {
	ts := obs.NewTraceStore(256, 1000, 0)
	gw, _ := newGateway(t, gateway.Config{Workers: 2, TraceStore: ts}, 0)
	warm(t, gw, testQueries[0])

	const errors = 10
	for i := 0; i < errors; i++ {
		if _, err := gw.Query(bg, fmt.Sprintf("select broken from q%d", i)); err == nil {
			t.Fatal("bad query accepted")
		}
		if _, err := gw.Query(bg, testQueries[0]); err != nil {
			t.Fatal(err)
		}
	}

	s := ts.Stats()
	if s.Tail != errors {
		t.Errorf("tail retained %d, want all %d failures", s.Tail, errors)
	}
	errTraces := 0
	for _, tr := range ts.List(0) {
		if tr.Outcome == obs.OutcomeError {
			errTraces++
		} else if tr.Outcome == obs.OutcomeOK {
			t.Errorf("healthy trace %s retained at 1-in-1000", tr.ID)
		}
	}
	if errTraces != errors {
		t.Errorf("store holds %d error traces, want %d — 100%% retention violated", errTraces, errors)
	}
}

// TestTraceStoreSlowRule: an ok query slower than the store's slow
// threshold is reclassified and always retained.
func TestTraceStoreSlowRule(t *testing.T) {
	ts := obs.NewTraceStore(64, 1000, time.Nanosecond) // everything is "slow"
	gw, _ := newGateway(t, gateway.Config{Workers: 2, TraceStore: ts}, 0)
	resp, err := gw.Query(bg, testQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	st, ok := ts.Get(resp.TraceID)
	if !ok {
		t.Fatal("slow trace not retained despite 1-in-1000 sampling")
	}
	if st.Outcome != obs.OutcomeSlow {
		t.Errorf("outcome = %q, want slow", st.Outcome)
	}
}

// TestTraceRingConcurrent hammers the trace ring from concurrent queries
// (successes and failures) while /traces and /trace/{id} are polled over
// the HTTP surface — the satellite's -race soak.
func TestTraceRingConcurrent(t *testing.T) {
	ts := obs.NewTraceStore(8, 2, 0) // tiny ring: constant eviction
	gw, _ := newGateway(t, gateway.Config{Workers: 4, TraceStore: ts}, 0)
	warm(t, gw, testQueries[0])
	mux := gw.Handler()

	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rr := httptest.NewRecorder()
			mux.ServeHTTP(rr, httptest.NewRequest("GET", "/traces?n=5", nil))
			if rr.Code != 200 {
				t.Errorf("/traces = %d: %s", rr.Code, rr.Body.String())
				return
			}
			var listing struct {
				Traces []obs.TraceSummary `json:"traces"`
			}
			if err := json.Unmarshal(rr.Body.Bytes(), &listing); err != nil {
				t.Errorf("/traces not JSON: %v", err)
				return
			}
			for _, tr := range listing.Traces {
				rr := httptest.NewRecorder()
				mux.ServeHTTP(rr, httptest.NewRequest("GET", "/trace/"+tr.ID, nil))
				// 404 is legal: the ring may have evicted it since the
				// listing. Anything else is not.
				if rr.Code != 200 && rr.Code != 404 {
					t.Errorf("/trace/%s = %d", tr.ID, rr.Code)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if i%3 == 0 {
					gw.Query(bg, fmt.Sprintf("select broken from t%d_%d", w, i))
				} else {
					if _, err := gw.Query(bg, testQueries[w%len(testQueries)]); err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	pollWG.Wait()

	s := ts.Stats()
	if s.Retained != 8 {
		t.Errorf("ring retained %d, want full capacity 8", s.Retained)
	}
	if s.Kept < 20 {
		t.Errorf("kept only %d traces across the soak", s.Kept)
	}
}

// TestSlowDumpCapAndBudget: slow-query span dumps are truncated per entry
// (SlowDumpSpans) and rationed per minute (SlowDumpBudget); suppressed
// dumps keep the one-line summary and bump the counter.
func TestSlowDumpCapAndBudget(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	gw, _ := newGateway(t, gateway.Config{
		Workers:        2,
		Trace:          true,
		SlowQueryCost:  1e-9, // every text-hitting query is "slow"
		SlowDumpSpans:  3,
		SlowDumpBudget: 2,
		SlowLogf: func(format string, args ...interface{}) {
			mu.Lock()
			logged = append(logged, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	}, 0)
	for i := 0; i < 4; i++ {
		if _, err := gw.Query(bg, testQueries[0]); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logged) != 4 {
		t.Fatalf("slow log fired %d times, want 4", len(logged))
	}
	for i, entry := range logged[:2] {
		if !strings.Contains(entry, "spans truncated") {
			t.Errorf("entry %d not truncated at 3 spans:\n%s", i, entry)
		}
		if strings.Contains(entry, "span dump suppressed") {
			t.Errorf("entry %d suppressed inside budget", i)
		}
	}
	for i, entry := range logged[2:] {
		if !strings.Contains(entry, "span dump suppressed") {
			t.Errorf("entry %d not suppressed over budget:\n%s", i+2, entry)
		}
		if strings.Contains(entry, "gateway.admit") {
			t.Errorf("entry %d dumped spans over budget", i+2)
		}
	}
	if got := gw.Stats().SlowDumpSuppressed; got != 2 {
		t.Errorf("SlowDumpSuppressed = %d, want 2", got)
	}
}

// TestGatewayTelemetryRecords: each served query appends one structured
// record — normalized shape, per-node est-vs-act, per-predicate fanout —
// and failures are recorded with their outcome.
func TestGatewayTelemetryRecords(t *testing.T) {
	sink := telemetry.NewSink(16)
	gw, _ := newGateway(t, gateway.Config{Workers: 2, Telemetry: sink}, 0)

	if _, err := gw.Query(bg, testQueries[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Query(bg, "select broken from nothing"); err == nil {
		t.Fatal("bad query accepted")
	}

	recs := sink.Records(0)
	if len(recs) != 2 {
		t.Fatalf("sink holds %d records, want 2", len(recs))
	}
	bad, good := recs[0], recs[1] // newest first
	if bad.Outcome != obs.OutcomeError || bad.Error == "" {
		t.Errorf("failure record = outcome %q error %q", bad.Outcome, bad.Error)
	}
	if good.Outcome != obs.OutcomeOK {
		t.Errorf("success record outcome = %q", good.Outcome)
	}
	if good.Shape != telemetry.NormalizeSQL(testQueries[0]) || !strings.Contains(good.Shape, "?") {
		t.Errorf("shape not normalized: %q", good.Shape)
	}
	if good.Rows == 0 || good.ActCost <= 0 || good.EstCost <= 0 || good.Elapsed <= 0 {
		t.Errorf("success record missing outcomes: %+v", good)
	}
	if len(good.Nodes) == 0 {
		t.Error("success record has no per-node est-vs-act stats")
	}
	if len(good.Predicates) == 0 {
		t.Fatal("success record has no predicate observations")
	}
	p := good.Predicates[0]
	if p.Source != "mercury" || p.Field == "" || p.Method == "" {
		t.Errorf("predicate stats incomplete: %+v", p)
	}
	if p.InRows <= 0 || p.Fanout != float64(p.OutRows)/float64(p.InRows) {
		t.Errorf("predicate fanout inconsistent: %+v", p)
	}
	if fb := sink.Feedback(); len(fb) == 0 {
		t.Error("sink aggregated no predicate feedback")
	}
}

// TestShardedReplicatedHedgedTrace is the tentpole acceptance test: a
// query over 2 partitions × 2 replicas of TCP-served backends, with
// hedging forced by injected backend latency, yields a retained trace
// whose tree contains backend-produced (Remote-tagged) spans under every
// scatter leg, and both hedge attempts per hedged operation with the
// loser marked with its cancellation cause.
func TestShardedReplicatedHedgedTrace(t *testing.T) {
	demo := workload.NewDemo(400, 6)
	parts, err := demo.Corpus.Index.Partition(2)
	if err != nil {
		t.Fatal(err)
	}
	sets := make([]texservice.Service, len(parts))
	for p, part := range parts {
		backends := make([]texservice.Service, 2)
		for k := 0; k < 2; k++ {
			local, err := texservice.NewLocal(part,
				texservice.WithShortFields("title", "author", "year"))
			if err != nil {
				t.Fatal(err)
			}
			// Injected server-side latency makes every attempt slower than
			// the hedge budget, so the router hedges constantly.
			slow := texservice.NewFaulty(local, texservice.FaultConfig{Latency: 3 * time.Millisecond})
			srv := texservice.NewServer(slow)
			srv.Logf = t.Logf
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			remote, err := texservice.Dial(addr, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer remote.Close()
			backends[k] = remote
		}
		// Both replicas are equally slow, so a primary with its 1 ms head
		// start wins nearly every race and neither replica collects the
		// DefaultHedgeLossEject consecutive losses that would eject it.
		set, err := replica.New(backends,
			replica.WithHedgeAfter(time.Millisecond),
			replica.WithSeed(int64(p+1)))
		if err != nil {
			t.Fatal(err)
		}
		sets[p] = set
	}
	federated, err := shard.New(sets)
	if err != nil {
		t.Fatal(err)
	}

	eng := core.NewEngine()
	for _, tbl := range demo.Catalog.Tables {
		if err := eng.RegisterTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.RegisterTextSource("mercury", federated, demo.Corpus.Fields()...); err != nil {
		t.Fatal(err)
	}
	ts := obs.NewTraceStore(16, 1, 0)
	gw := gateway.New(eng, gateway.Config{Workers: 2, TraceStore: ts})

	resp, err := gw.Query(bg, testQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	st, ok := ts.Get(resp.TraceID)
	if !ok {
		t.Fatalf("trace %s not retained", resp.TraceID)
	}

	// Every scatter leg carries a backend-grafted span: the 2-way fan-out
	// is visible end to end, not a client-side black box.
	var legs []obs.SpanSnapshot
	collectNamed(st.Root, "shard.leg", &legs)
	if len(legs) < 2 {
		t.Fatalf("trace has %d scatter legs, want >= 2 (N=2 fan-out)", len(legs))
	}
	if len(legs)%2 != 0 {
		t.Errorf("odd scatter-leg count %d over a 2-partition federation", len(legs))
	}
	for i, leg := range legs {
		if !hasRemote(leg) {
			t.Fatalf("scatter leg %d has no backend-produced span", i)
		}
	}

	// Each partition's winning backend appears as a distinct remote label.
	// (Cancelled losers never deliver a reply, so only winners can graft
	// their subtree — the loser's evidence is its cause-tagged attempt
	// span, asserted below.)
	remotes := map[string]bool{}
	var mark func(s obs.SpanSnapshot)
	mark = func(s obs.SpanSnapshot) {
		if s.Remote != "" {
			remotes[s.Remote] = true
		}
		for _, c := range s.Children {
			mark(c)
		}
	}
	mark(st.Root)
	if len(remotes) < 2 {
		t.Errorf("trace names %d distinct backends, want >= 2 (one winner per partition): %v",
			len(remotes), remotes)
	}

	// Hedged operations show both attempts, winner and loser, with the
	// loser carrying its cancellation cause.
	var attempts []obs.SpanSnapshot
	collectNamed(st.Root, "replica.attempt", &attempts)
	if len(attempts) == 0 {
		t.Fatal("trace has no replica attempt spans")
	}
	hedged, losers := 0, 0
	for _, a := range attempts {
		if spanAttr(a, "hedge") == "true" {
			hedged++
		}
		if spanAttr(a, "cancel_cause") != "" {
			losers++
		}
	}
	if hedged == 0 {
		t.Fatal("no hedge attempts in the trace despite 3ms backends and a 1ms hedge budget")
	}
	if losers == 0 {
		t.Fatal("no cancelled loser attempts tagged with cancel_cause")
	}
	// At least one operation span shows the full race: >= 2 attempts, one
	// winner, one cause-tagged loser.
	raceSeen := false
	var scan func(s obs.SpanSnapshot)
	scan = func(s obs.SpanSnapshot) {
		if strings.HasPrefix(s.Name, "replica.") && s.Name != "replica.attempt" {
			var won, lost bool
			n := 0
			for _, c := range s.Children {
				if c.Name != "replica.attempt" {
					continue
				}
				n++
				if spanAttr(c, "outcome") == "won" {
					won = true
				}
				if spanAttr(c, "cancel_cause") != "" {
					lost = true
				}
			}
			if n >= 2 && won && lost {
				raceSeen = true
			}
		}
		for _, c := range s.Children {
			scan(c)
		}
	}
	scan(st.Root)
	if !raceSeen {
		t.Error("no operation span shows a complete hedge race (winner + cause-tagged loser)")
	}
}
