package replica_test

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"textjoin/internal/replica"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

var bg = context.Background()

// fixture builds the small CSTR-like collection the shard tests use.
func fixture(t testing.TB) *textidx.Index {
	t.Helper()
	ix := textidx.NewIndex()
	docs := []textidx.Document{
		{ExtID: "r0", Fields: map[string]string{
			"title": "Belief Update in Knowledge Bases", "author": "Radhika", "year": "1993"}},
		{ExtID: "r1", Fields: map[string]string{
			"title": "The PWS Project Overview", "author": "Gravano Kao", "year": "1994"}},
		{ExtID: "r2", Fields: map[string]string{
			"title": "Text Indexing for PWS", "author": "Kao", "year": "1994"}},
		{ExtID: "r3", Fields: map[string]string{
			"title": "Distributed Text Systems", "author": "Garcia Gravano", "year": "1993"}},
		{ExtID: "r4", Fields: map[string]string{
			"title": "Text Filtering", "author": "Ullman", "year": "1995"}},
		{ExtID: "r5", Fields: map[string]string{
			"title": "Belief Revision Reconsidered", "author": "Radhika Garcia", "year": "1995"}},
		{ExtID: "r6", Fields: map[string]string{
			"title": "Text Systems for Belief Engineering", "author": "Pham", "year": "1996"}},
	}
	for _, d := range docs {
		ix.MustAdd(d)
	}
	ix.Freeze()
	return ix
}

func local(t testing.TB, ix *textidx.Index) *texservice.Local {
	t.Helper()
	svc, err := texservice.NewLocal(ix, texservice.WithShortFields("title", "author", "year"))
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// killable forwards to an inner service until killed, then fails every
// data operation — the runtime kill switch the failover tests flip.
type killable struct {
	inner texservice.Service
	dead  atomic.Bool
	// failAfter, when positive, auto-kills the service once that many
	// data calls have been served — "dies mid-query".
	failAfter atomic.Int64
	calls     atomic.Int64
}

var errKilled = errors.New("replica_test: backend killed")

func (k *killable) gate() error {
	n := k.calls.Add(1)
	if fa := k.failAfter.Load(); fa > 0 && n > fa {
		k.dead.Store(true)
	}
	if k.dead.Load() {
		return errKilled
	}
	return nil
}

func (k *killable) Search(ctx context.Context, e textidx.Expr, form texservice.Form) (*texservice.Result, error) {
	if err := k.gate(); err != nil {
		return nil, err
	}
	return k.inner.Search(ctx, e, form)
}

func (k *killable) Retrieve(ctx context.Context, id textidx.DocID) (textidx.Document, error) {
	if err := k.gate(); err != nil {
		return textidx.Document{}, err
	}
	return k.inner.Retrieve(ctx, id)
}

func (k *killable) BatchSearch(ctx context.Context, exprs []textidx.Expr, form texservice.Form) ([]*texservice.Result, error) {
	if err := k.gate(); err != nil {
		return nil, err
	}
	return k.inner.BatchSearch(ctx, exprs, form)
}

func (k *killable) TermDocFrequency(ctx context.Context, field, term string) (int, error) {
	if err := k.gate(); err != nil {
		return 0, err
	}
	return k.inner.TermDocFrequency(ctx, field, term)
}

func (k *killable) Ingest(ctx context.Context, ops []texservice.IngestOp) (*texservice.IngestResult, error) {
	if err := k.gate(); err != nil {
		return nil, err
	}
	return k.inner.Ingest(ctx, ops)
}

func (k *killable) IndexVersion(ctx context.Context) (uint64, error) {
	return k.inner.IndexVersion(ctx)
}

func (k *killable) PinSnapshot(ctx context.Context) context.Context {
	return k.inner.PinSnapshot(ctx)
}

func (k *killable) SnapshotPinned(ctx context.Context) bool {
	return k.inner.SnapshotPinned(ctx)
}

func (k *killable) NumDocs() (int, error) {
	if k.dead.Load() {
		return 0, errKilled
	}
	return k.inner.NumDocs()
}

func (k *killable) MaxTerms() int            { return k.inner.MaxTerms() }
func (k *killable) ShortFields() []string    { return k.inner.ShortFields() }
func (k *killable) Meter() *texservice.Meter { return k.inner.Meter() }

// set builds a Set over R fresh Locals of the same index, optionally
// decorated per replica.
func set(t testing.TB, ix *textidx.Index, r int,
	decorate func(k int, svc texservice.Service) texservice.Service,
	opts ...replica.Option) *replica.Set {
	t.Helper()
	backends := make([]texservice.Service, r)
	for k := 0; k < r; k++ {
		backends[k] = local(t, ix)
		if decorate != nil {
			backends[k] = decorate(k, backends[k])
		}
	}
	s, err := replica.New(backends, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var testQuery textidx.Expr = textidx.Term{Field: "title", Word: "text"}

// TestSearchEquivalence: a Set over R copies returns exactly what a
// single backend returns.
func TestSearchEquivalence(t *testing.T) {
	ix := fixture(t)
	want, err := local(t, ix).Search(bg, testQuery, texservice.FormShort)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 2, 3} {
		s := set(t, ix, r, nil, replica.WithSeed(7))
		got, err := s.Search(bg, testQuery, texservice.FormShort)
		if err != nil {
			t.Fatalf("R=%d: %v", r, err)
		}
		if len(got.Hits) != len(want.Hits) {
			t.Fatalf("R=%d: %d hits, want %d", r, len(got.Hits), len(want.Hits))
		}
		doc, err := s.Retrieve(bg, got.Hits[0].ID)
		if err != nil {
			t.Fatalf("R=%d retrieve: %v", r, err)
		}
		if doc.ExtID != got.Hits[0].ExtID {
			t.Fatalf("R=%d: retrieved %q, want %q", r, doc.ExtID, got.Hits[0].ExtID)
		}
	}
}

// TestValidation: empty sets and mismatched replicas are rejected.
func TestValidation(t *testing.T) {
	if _, err := replica.New(nil); err == nil {
		t.Fatal("empty set accepted")
	}
	ix := fixture(t)
	a := local(t, ix)
	b, err := texservice.NewLocal(ix, texservice.WithShortFields("title"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replica.New([]texservice.Service{a, b}); err == nil {
		t.Fatal("mismatched short fields accepted")
	}
}

// TestFailover: with one replica dead, every operation still succeeds;
// the dead replica is ejected after enough consecutive failures.
func TestFailover(t *testing.T) {
	ix := fixture(t)
	var dead *killable
	s := set(t, ix, 3, func(k int, svc texservice.Service) texservice.Service {
		if k != 0 {
			return svc
		}
		dead = &killable{inner: svc}
		dead.dead.Store(true)
		return dead
	}, replica.WithSeed(3), replica.WithoutHedging(), replica.WithProbeAfter(time.Hour))
	for i := 0; i < 50; i++ {
		if _, err := s.Search(bg, testQuery, texservice.FormShort); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Failovers == 0 {
		t.Error("no failovers recorded despite a dead replica")
	}
	if st.Ejections == 0 {
		t.Error("dead replica never ejected")
	}
	if st.Ejected != 1 {
		t.Errorf("Ejected gauge = %d, want 1", st.Ejected)
	}
	// Once ejected, the dead replica stops receiving traffic: its call
	// count freezes while 20 more operations succeed.
	before := dead.calls.Load()
	for i := 0; i < 20; i++ {
		if _, err := s.Search(bg, testQuery, texservice.FormShort); err != nil {
			t.Fatal(err)
		}
	}
	if after := dead.calls.Load(); after != before {
		t.Errorf("ejected replica still receiving traffic: %d calls -> %d", before, after)
	}
}

// TestAllReplicasDead: the error reports exhaustion rather than hanging.
func TestAllReplicasDead(t *testing.T) {
	ix := fixture(t)
	s := set(t, ix, 2, func(k int, svc texservice.Service) texservice.Service {
		d := &killable{inner: svc}
		d.dead.Store(true)
		return d
	}, replica.WithoutHedging())
	_, err := s.Search(bg, testQuery, texservice.FormShort)
	if err == nil {
		t.Fatal("search over all-dead set succeeded")
	}
	if !strings.Contains(err.Error(), "replica") {
		t.Errorf("unhelpful error: %v", err)
	}
}

// TestProbeReadmission: an ejected replica that heals is re-admitted by
// a probe and serves traffic again.
func TestProbeReadmission(t *testing.T) {
	ix := fixture(t)
	var flaky *killable
	s := set(t, ix, 2, func(k int, svc texservice.Service) texservice.Service {
		if k != 0 {
			return svc
		}
		flaky = &killable{inner: svc}
		flaky.dead.Store(true)
		return flaky
	}, replica.WithSeed(5), replica.WithoutHedging(),
		replica.WithEjectAfter(2), replica.WithProbeAfter(10*time.Millisecond))

	for i := 0; i < 20; i++ {
		if _, err := s.Search(bg, testQuery, texservice.FormShort); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Ejections == 0 {
		t.Fatal("dead replica never ejected")
	}
	flaky.dead.Store(false) // heal
	time.Sleep(15 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().Readmissions == 0 && time.Now().Before(deadline) {
		if _, err := s.Search(bg, testQuery, texservice.FormShort); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Readmissions == 0 {
		t.Fatal("healed replica never re-admitted")
	}
	if st.Ejected != 0 {
		t.Errorf("Ejected gauge = %d after re-admission, want 0", st.Ejected)
	}
}

// TestHedgeRescuesSlowReplica: with one replica browned out, hedged
// calls complete fast, the hedge wins are counted, the losers are
// cancelled, and the slow replica is eventually ejected on hedge-loss
// evidence alone (it never errors).
func TestHedgeRescuesSlowReplica(t *testing.T) {
	ix := fixture(t)
	const slowLat = 200 * time.Millisecond
	s := set(t, ix, 2, func(k int, svc texservice.Service) texservice.Service {
		if k != 0 {
			return svc
		}
		return texservice.NewFaulty(svc, texservice.FaultConfig{Latency: slowLat})
	}, replica.WithSeed(11), replica.WithHedgeAfter(2*time.Millisecond))

	start := time.Now()
	const calls = 40
	for i := 0; i < calls; i++ {
		if _, err := s.Search(bg, testQuery, texservice.FormShort); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		// Let the cancelled loser unwind: while its goroutine is still
		// tearing down, its in-flight count correctly steers p2c away
		// from it, and a back-to-back loop would never re-select it.
		time.Sleep(500 * time.Microsecond)
	}
	elapsed := time.Since(start)
	st := s.Stats()
	if st.Hedges == 0 {
		t.Fatal("no hedges fired despite a 100x-slow replica")
	}
	if st.HedgeWins == 0 {
		t.Error("no hedge ever won against a 100x-slow primary")
	}
	if st.HedgeCancels == 0 {
		t.Error("no loser was ever cancelled")
	}
	if st.Ejections == 0 {
		t.Error("slow replica never ejected on hedge-loss evidence")
	}
	// Without hedging, ~half the calls would block ~200ms each (≥ 4s
	// expected); with it, the whole run must beat a fraction of that.
	if elapsed > calls*slowLat/8 {
		t.Errorf("hedged run took %v — hedging is not rescuing the tail", elapsed)
	}
}

// TestHedgingDisabled: the ablation switch really turns hedging off.
func TestHedgingDisabled(t *testing.T) {
	ix := fixture(t)
	s := set(t, ix, 2, func(k int, svc texservice.Service) texservice.Service {
		return texservice.NewFaulty(svc, texservice.FaultConfig{Latency: time.Millisecond})
	}, replica.WithoutHedging())
	for i := 0; i < 10; i++ {
		if _, err := s.Search(bg, testQuery, texservice.FormShort); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Hedges != 0 {
		t.Errorf("%d hedges fired with hedging disabled", st.Hedges)
	}
}

// TestMeterAccounting: the root meter charges one logical search per
// call, mirrors into per-query meters, books hedges off the critical
// path, and books failovers as retries.
func TestMeterAccounting(t *testing.T) {
	ix := fixture(t)
	s := set(t, ix, 2, func(k int, svc texservice.Service) texservice.Service {
		if k != 0 {
			return svc
		}
		return texservice.NewFaulty(svc, texservice.FaultConfig{Latency: 100 * time.Millisecond})
	}, replica.WithSeed(11), replica.WithHedgeAfter(time.Millisecond))

	qm := texservice.NewMeter(texservice.DefaultCosts())
	ctx := texservice.WithQueryMeter(bg, qm)
	const calls = 25
	for i := 0; i < calls; i++ {
		if _, err := s.Search(ctx, testQuery, texservice.FormShort); err != nil {
			t.Fatal(err)
		}
		time.Sleep(300 * time.Microsecond) // let cancelled losers unwind
	}
	u := s.Meter().Snapshot()
	if u.Searches != calls {
		t.Errorf("root meter charged %d searches for %d logical calls", u.Searches, calls)
	}
	st := s.Stats()
	if uint64(u.Hedges) != st.Hedges {
		t.Errorf("metered hedges %d != routed hedges %d", u.Hedges, st.Hedges)
	}
	if u.Hedges == 0 {
		t.Fatal("test is vacuous: no hedges fired")
	}
	// Hedges are parallel insurance: cost, but no critical path.
	if u.CritCost >= u.Cost {
		t.Errorf("CritCost %v >= Cost %v despite %d hedges", u.CritCost, u.Cost, u.Hedges)
	}
	// The per-query meter saw the same charges.
	qu := qm.Snapshot()
	if qu.Searches != u.Searches || qu.Hedges != u.Hedges {
		t.Errorf("query meter (%d searches, %d hedges) diverges from root (%d, %d)",
			qu.Searches, qu.Hedges, u.Searches, u.Hedges)
	}
}

// TestFailoverChargesRetries: real failures are booked as retries.
func TestFailoverChargesRetries(t *testing.T) {
	ix := fixture(t)
	s := set(t, ix, 2, func(k int, svc texservice.Service) texservice.Service {
		if k != 0 {
			return svc
		}
		d := &killable{inner: svc}
		d.dead.Store(true)
		return d
	}, replica.WithSeed(2), replica.WithoutHedging(), replica.WithProbeAfter(time.Hour))
	for i := 0; i < 30; i++ {
		if _, err := s.Search(bg, testQuery, texservice.FormShort); err != nil {
			t.Fatal(err)
		}
	}
	u := s.Meter().Snapshot()
	if u.Retries == 0 {
		t.Error("failovers never charged as retries")
	}
	if uint64(u.Retries) != s.Stats().Failovers {
		t.Errorf("metered retries %d != routed failovers %d", u.Retries, s.Stats().Failovers)
	}
}

// TestBatchSearchRouted: the batch capability is routed like any call
// and survives a dead replica.
func TestBatchSearchRouted(t *testing.T) {
	ix := fixture(t)
	s := set(t, ix, 2, func(k int, svc texservice.Service) texservice.Service {
		if k != 0 {
			return svc
		}
		d := &killable{inner: svc}
		d.dead.Store(true)
		return d
	}, replica.WithoutHedging())
	exprs := []textidx.Expr{
		textidx.Term{Field: "title", Word: "text"},
		textidx.Term{Field: "author", Word: "radhika"},
	}
	out, err := s.BatchSearch(bg, exprs, texservice.FormShort)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(exprs) {
		t.Fatalf("%d results for %d queries", len(out), len(exprs))
	}
	u := s.Meter().Snapshot()
	if u.Searches != 1 {
		t.Errorf("batch charged %d invocations, want 1", u.Searches)
	}
}

// TestStatsProviderRouted: TermDocFrequency fails over and charges
// nothing.
func TestStatsProviderRouted(t *testing.T) {
	ix := fixture(t)
	s := set(t, ix, 2, func(k int, svc texservice.Service) texservice.Service {
		if k != 0 {
			return svc
		}
		d := &killable{inner: svc}
		d.dead.Store(true)
		return d
	}, replica.WithoutHedging())
	df, err := s.TermDocFrequency(bg, "title", "text")
	if err != nil {
		t.Fatal(err)
	}
	if df == 0 {
		t.Error("docfreq = 0 for a term the fixture contains")
	}
	if u := s.Meter().Snapshot(); u.Searches != 0 || u.Cost != 0 {
		t.Errorf("statistics call was charged: %+v", u)
	}
}

// TestContextCancellation: a caller cancel aborts the routed call.
func TestContextCancellation(t *testing.T) {
	ix := fixture(t)
	s := set(t, ix, 2, func(k int, svc texservice.Service) texservice.Service {
		return texservice.NewFaulty(svc, texservice.FaultConfig{Latency: time.Second})
	}, replica.WithoutHedging())
	ctx, cancel := context.WithTimeout(bg, 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.Search(ctx, testQuery, texservice.FormShort)
	if err == nil {
		t.Fatal("cancelled search succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("got %v, want deadline exceeded", err)
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Error("cancellation did not abort the slow backend call")
	}
}

// TestFleet: per-partition Sets aggregate stats and compose with the
// shard layer's service slice shape.
func TestFleet(t *testing.T) {
	ix := fixture(t)
	parts, err := ix.Partition(2)
	if err != nil {
		t.Fatal(err)
	}
	backends := make([][]texservice.Service, len(parts))
	for p, part := range parts {
		for r := 0; r < 2; r++ {
			backends[p] = append(backends[p], local(t, part))
		}
	}
	fleet, err := replica.NewFleet(backends, replica.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(fleet.Sets()); got != 2 {
		t.Fatalf("%d sets, want 2", got)
	}
	for _, s := range fleet.Services() {
		if _, err := s.Search(bg, testQuery, texservice.FormShort); err != nil {
			t.Fatal(err)
		}
	}
	st := fleet.Stats()
	if st.Replicas != 4 {
		t.Errorf("Replicas = %d, want 4", st.Replicas)
	}
	if st.InFlight != 0 {
		t.Errorf("InFlight = %d at rest, want 0", st.InFlight)
	}
}
