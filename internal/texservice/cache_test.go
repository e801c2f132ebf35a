package texservice

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"textjoin/internal/textidx"
)

func TestCachedServesRepeats(t *testing.T) {
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCached(local, 10)
	q := textidx.Term{Field: "title", Word: "text"}

	first, err := c.Search(bg, q, FormShort)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Search(bg, q, FormShort)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Hits) != len(second.Hits) {
		t.Fatal("cached result differs")
	}
	// Only the miss charged the meter.
	if u := c.Meter().Snapshot(); u.Searches != 1 {
		t.Fatalf("searches = %d, want 1", u.Searches)
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
	// Different form is a different cache key.
	if _, err := c.Search(bg, q, FormLong); err != nil {
		t.Fatal(err)
	}
	if u := c.Meter().Snapshot(); u.Searches != 2 {
		t.Fatalf("long form not treated as distinct: %d searches", u.Searches)
	}
}

func TestCachedEvicts(t *testing.T) {
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCached(local, 2)
	qs := []textidx.Expr{
		textidx.Term{Field: "title", Word: "text"},
		textidx.Term{Field: "title", Word: "belief"},
		textidx.Term{Field: "author", Word: "kao"},
	}
	for _, q := range qs {
		if _, err := c.Search(bg, q, FormShort); err != nil {
			t.Fatal(err)
		}
	}
	// qs[0] was evicted (capacity 2): searching it again misses.
	if _, err := c.Search(bg, qs[0], FormShort); err != nil {
		t.Fatal(err)
	}
	if u := c.Meter().Snapshot(); u.Searches != 4 {
		t.Fatalf("searches = %d, want 4 (eviction)", u.Searches)
	}
	// qs[2] is still cached.
	if _, err := c.Search(bg, qs[2], FormShort); err != nil {
		t.Fatal(err)
	}
	if u := c.Meter().Snapshot(); u.Searches != 4 {
		t.Fatalf("searches = %d, want 4 (hit)", u.Searches)
	}
}

func TestCachedPassThrough(t *testing.T) {
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCached(local, 4)
	if c.MaxTerms() != local.MaxTerms() {
		t.Fatal("MaxTerms not passed through")
	}
	if n, _ := c.NumDocs(); n != 3 {
		t.Fatal("NumDocs not passed through")
	}
	if len(c.ShortFields()) == 0 {
		t.Fatal("ShortFields not passed through")
	}
	if _, err := c.Retrieve(bg, 0); err != nil {
		t.Fatal(err)
	}
	// Errors are not cached.
	bad := textidx.And{}
	if _, err := c.Search(bg, bad, FormShort); err == nil {
		t.Fatal("invalid search accepted")
	}
	if _, err := c.Search(bg, bad, FormShort); err == nil {
		t.Fatal("invalid search cached as success")
	}
}

func TestCachedConcurrent(t *testing.T) {
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCached(local, 8)
	qs := []textidx.Expr{
		textidx.Term{Field: "title", Word: "text"},
		textidx.Term{Field: "title", Word: "belief"},
		textidx.Term{Field: "author", Word: "gravano"},
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := qs[(seed+i)%len(qs)]
				if _, err := c.Search(bg, q, FormShort); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	hits, misses := c.Stats()
	if hits+misses != 400 {
		t.Fatalf("hits+misses = %d", hits+misses)
	}
	if misses > 3*8 { // at most a few races beyond the 3 distinct queries
		t.Fatalf("misses = %d", misses)
	}
}

// gatedService blocks every Search on a release channel so tests can
// hold identical searches in flight deterministically.
type gatedService struct {
	*Local
	release  chan struct{}
	failures int // the first N searches fail after release

	mu    sync.Mutex
	calls int
}

func (s *gatedService) Search(ctx context.Context, e textidx.Expr, form Form) (*Result, error) {
	s.mu.Lock()
	s.calls++
	n := s.calls
	s.mu.Unlock()
	select {
	case <-s.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if n <= s.failures {
		return nil, errors.New("injected backend failure")
	}
	return s.Local.Search(ctx, e, form)
}

func (s *gatedService) Calls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestSingleflightDedup: concurrent identical searches make exactly one
// backend call; the duplicates wait for the leader and count as hits.
// For the probe cache "identical" means equal after normalization, so
// a∧b and b∧a in flight at once share one backend search.
func TestSingleflightDedup(t *testing.T) {
	ab := textidx.And{textidx.Term{Field: "title", Word: "text"}, textidx.Term{Field: "year", Word: "1994"}}
	ba := textidx.And{ab[1], ab[0]}
	for _, tc := range []struct {
		name  string
		cache func(Service) searchCache
		exprs []textidx.Expr // callers cycle through these
	}{
		{"Cached", func(s Service) searchCache { return NewCached(s, 8) }, []textidx.Expr{ab}},
		{"ProbeCache", func(s Service) searchCache { return NewProbeCache(s, 8) }, []textidx.Expr{ab, ba}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			local, err := NewLocal(testIndex(t))
			if err != nil {
				t.Fatal(err)
			}
			gated := &gatedService{Local: local, release: make(chan struct{})}
			c := tc.cache(gated)

			const callers = 6
			results := make(chan error, callers)
			for i := 0; i < callers; i++ {
				q := tc.exprs[i%len(tc.exprs)]
				go func() {
					_, err := c.Search(bg, q, FormShort)
					results <- err
				}()
			}
			// One caller became the leader (reached the backend), the rest
			// are parked on its in-flight call.
			waitFor(t, func() bool { return gated.Calls() == 1 && c.Dedups() == callers-1 })
			close(gated.release)
			for i := 0; i < callers; i++ {
				if err := <-results; err != nil {
					t.Fatal(err)
				}
			}
			if gated.Calls() != 1 {
				t.Fatalf("backend saw %d calls, want 1", gated.Calls())
			}
			hits, misses := c.Stats()
			if misses != 1 || hits != callers-1 {
				t.Fatalf("hits=%d misses=%d, want %d/1", hits, misses, callers-1)
			}
			// The meter was charged once.
			if u := c.Meter().Snapshot(); u.Searches != 1 {
				t.Fatalf("meter charged %d searches", u.Searches)
			}
		})
	}
}

// searchCache is what Cached and ProbeCache both offer.
type searchCache interface {
	decorator
	Stats() (hits, misses int)
	Dedups() int
	Invalidate()
	SetIndexVersion(uint64)
}

// caches are the two cache constructors, for tests both must pass.
var caches = []struct {
	name string
	wrap func(Service, int) searchCache
}{
	{"Cached", func(s Service, n int) searchCache { return NewCached(s, n) }},
	{"ProbeCache", func(s Service, n int) searchCache { return NewProbeCache(s, n) }},
}

// TestSingleflightLeaderErrorDoesNotPoison: a failing leader must not
// propagate its error to the waiters — they retry the backend
// themselves.
func TestSingleflightLeaderErrorDoesNotPoison(t *testing.T) {
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	gated := &gatedService{Local: local, release: make(chan struct{}), failures: 1}
	c := NewCached(gated, 8)
	q := textidx.Term{Field: "title", Word: "text"}

	const waiters = 4
	results := make(chan error, waiters+1)
	go func() {
		_, err := c.Search(bg, q, FormShort)
		results <- err
	}()
	waitFor(t, func() bool { return gated.Calls() == 1 })
	for i := 0; i < waiters; i++ {
		go func() {
			_, err := c.Search(bg, q, FormShort)
			results <- err
		}()
	}
	waitFor(t, func() bool { return c.Dedups() == waiters })
	close(gated.release) // leader fails now; waiters retry and succeed

	failures := 0
	for i := 0; i < waiters+1; i++ {
		if err := <-results; err != nil {
			failures++
		}
	}
	if failures != 1 {
		t.Fatalf("%d callers failed, want only the leader", failures)
	}
	// The retries deduplicated onto a new leader among themselves, so the
	// backend saw at least 2 and at most 1+waiters calls.
	if n := gated.Calls(); n < 2 || n > 1+waiters {
		t.Fatalf("backend saw %d calls", n)
	}
}

// TestSingleflightWaiterHonorsContext: a waiter whose context is
// cancelled stops waiting on the leader and returns the context error.
func TestSingleflightWaiterHonorsContext(t *testing.T) {
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	gated := &gatedService{Local: local, release: make(chan struct{})}
	c := NewCached(gated, 8)
	q := textidx.Term{Field: "title", Word: "text"}

	leaderDone := make(chan error, 1)
	go func() {
		_, err := c.Search(bg, q, FormShort)
		leaderDone <- err
	}()
	waitFor(t, func() bool { return gated.Calls() == 1 })

	ctx, cancel := context.WithCancel(bg)
	waiterDone := make(chan error, 1)
	go func() {
		_, err := c.Search(ctx, q, FormShort)
		waiterDone <- err
	}()
	waitFor(t, func() bool { return c.Dedups() == 1 })
	cancel()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter returned %v, want context.Canceled", err)
	}
	// The leader is unaffected.
	close(gated.release)
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
}

// TestInvalidateDoesNotBurnVersions: Invalidate must not consume values
// from the store's monotonic version space. Entries filled after an
// Invalidate but before the next write must be rejected when that
// write's version is adopted — even when the counters would collide
// under the old version++ scheme (version 100, Invalidate, then a real
// write at 101).
func TestInvalidateDoesNotBurnVersions(t *testing.T) {
	for _, tc := range caches {
		t.Run(tc.name, func(t *testing.T) {
			local, err := NewLocal(testIndex(t))
			if err != nil {
				t.Fatal(err)
			}
			c := tc.wrap(local, 8)
			q := textidx.Term{Field: "title", Word: "text"}
			backend := func() int { return c.Meter().Snapshot().Searches }

			c.SetIndexVersion(100)
			for i := 0; i < 2; i++ {
				if _, err := c.Search(bg, q, FormShort); err != nil {
					t.Fatal(err)
				}
			}
			if backend() != 1 {
				t.Fatalf("warm-up reached the backend %d times, want 1", backend())
			}
			c.Invalidate()
			// The entry is gone; the next search refills at the
			// post-invalidate generation.
			for i := 0; i < 2; i++ {
				if _, err := c.Search(bg, q, FormShort); err != nil {
					t.Fatal(err)
				}
			}
			if backend() != 2 {
				t.Fatalf("post-invalidate searches reached the backend %d times, want 2", backend())
			}
			// A real write now advances the store version to 101. The
			// refilled entry predates the write and must be rejected.
			c.SetIndexVersion(101)
			if _, err := c.Search(bg, q, FormShort); err != nil {
				t.Fatal(err)
			}
			if backend() != 3 {
				t.Fatalf("post-write search served from a pre-write entry (backend calls = %d, want 3)", backend())
			}
		})
	}
}

// failingIngestor refuses every write with a mid-batch error, modelling
// a broadcast ingest that landed on some shards before failing.
type failingIngestor struct{ *Local }

func (s *failingIngestor) Ingest(ctx context.Context, ops []IngestOp) (*IngestResult, error) {
	return nil, errors.New("shard 1/2: ingest failed")
}

// TestFailedIngestInvalidates: an ingest error may mask a partially
// applied write (no new version is adopted), so both caches must drop
// their entries rather than keep serving pre-write answers.
func TestFailedIngestInvalidates(t *testing.T) {
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	ops := []IngestOp{{Kind: IngestPut, ExtID: "n1", Fields: map[string]string{"title": "x"}}}
	q := textidx.Term{Field: "title", Word: "text"}

	for _, tc := range caches {
		c := tc.wrap(&failingIngestor{local}, 8)
		if _, err := c.Search(bg, q, FormShort); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Ingest(bg, ops); err == nil {
			t.Fatalf("%s: failing ingest succeeded", tc.name)
		}
		if _, err := c.Search(bg, q, FormShort); err != nil {
			t.Fatal(err)
		}
		if _, misses := c.Stats(); misses != 2 {
			t.Fatalf("%s: search after failed ingest served from cache (misses = %d, want 2)", tc.name, misses)
		}
	}

	// A service without the write capability applied nothing: ErrNoIngest
	// must not churn the cache.
	ro := NewCached(local, 8)
	if _, err := ro.Search(bg, q, FormShort); err != nil {
		t.Fatal(err)
	}
	if _, err := ro.Ingest(bg, ops); !errors.Is(err, ErrNoIngest) {
		t.Fatalf("ingest into read-only service: %v, want ErrNoIngest", err)
	}
	if n := ro.Invalidations(); n != 0 {
		t.Fatalf("ErrNoIngest invalidated the cache (%d invalidations)", n)
	}
}

// TestCachedWithJoinMethods: running the same join twice through a cached
// service makes the second run free.
func TestCachedJoinRepeatIsFree(t *testing.T) {
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCached(local, 100)
	q := textidx.And{
		textidx.Term{Field: "title", Word: "text"},
		textidx.Term{Field: "author", Word: "gravano"},
	}
	if _, err := c.Search(bg, q, FormShort); err != nil {
		t.Fatal(err)
	}
	before := c.Meter().Snapshot()
	for i := 0; i < 5; i++ {
		if _, err := c.Search(bg, q, FormShort); err != nil {
			t.Fatal(err)
		}
	}
	if after := c.Meter().Snapshot(); after != before {
		t.Fatalf("repeats charged the meter: %+v", after.Sub(before))
	}
}

// BenchmarkCacheHit measures each cache's hit path: a warm entry served
// to an unpinned caller.
func BenchmarkCacheHit(b *testing.B) {
	local, err := NewLocal(testIndex(b))
	if err != nil {
		b.Fatal(err)
	}
	q := textidx.And{textidx.Term{Field: "title", Word: "text"}, textidx.Term{Field: "year", Word: "1994"}}
	for _, tc := range caches {
		b.Run(tc.name, func(b *testing.B) {
			c := tc.wrap(local, 8)
			if _, err := c.Search(bg, q, FormShort); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Search(bg, q, FormShort); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
