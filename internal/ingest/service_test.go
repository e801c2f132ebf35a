package ingest

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

func liveService(t *testing.T) *Live {
	t.Helper()
	s, err := Open(baseIndex(t, 6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return NewLive(s, WithShortFields("title", "author"))
}

func hitExts(res *texservice.Result) []string {
	var exts []string
	for _, h := range res.Hits {
		exts = append(exts, h.ExtID)
	}
	return exts
}

// TestLiveFreshness: an acked write is visible to the very next search —
// no refresh delay, no restart.
func TestLiveFreshness(t *testing.T) {
	l := liveService(t)
	e, err := textidx.Parse("title='freshly' and title='written'", nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Search(bg, e, texservice.FormShort)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 0 {
		t.Fatalf("doc visible before write: %v", hitExts(res))
	}
	ack, err := l.Ingest(bg, []texservice.IngestOp{put("n1", "freshly written doc")})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Seq == 0 || ack.Applied != 1 {
		t.Fatalf("ack = %+v", ack)
	}
	res, err = l.Search(bg, e, texservice.FormShort)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 1 || res.Hits[0].ExtID != "n1" {
		t.Fatalf("acked write not visible: %v", hitExts(res))
	}
	// The hit is retrievable and carries short-form fields.
	if got := res.Hits[0].Value(res.Column("title")); got != "freshly written doc" {
		t.Fatalf("short form fields %v = %v", res.Fields, res.Hits[0].Values)
	}
	doc, err := l.Retrieve(bg, res.Hits[0].ID)
	if err != nil || doc.ExtID != "n1" {
		t.Fatalf("retrieve new doc: %v, %v", doc, err)
	}
	if v, err := l.IndexVersion(bg); err != nil || v != ack.Version {
		t.Fatalf("IndexVersion = %d, %v; want %d", v, err, ack.Version)
	}
}

// TestLivePinSnapshot: a pinned context keeps the pre-write view through
// an overlapping write; an unpinned context sees the write.
func TestLivePinSnapshot(t *testing.T) {
	l := liveService(t)
	pinned := l.PinSnapshot(bg)
	e, err := textidx.Parse("title='belief'", nil)
	if err != nil {
		t.Fatal(err)
	}
	before, err := l.Search(pinned, e, texservice.FormShort)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Ingest(bg, []texservice.IngestOp{put("n1", "belief networks")}); err != nil {
		t.Fatal(err)
	}
	during, err := l.Search(pinned, e, texservice.FormShort)
	if err != nil {
		t.Fatal(err)
	}
	if len(during.Hits) != len(before.Hits) {
		t.Fatalf("pinned view drifted: %d hits, then %d", len(before.Hits), len(during.Hits))
	}
	fresh, err := l.Search(bg, e, texservice.FormShort)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Hits) != len(before.Hits)+1 {
		t.Fatalf("unpinned search sees %d hits, want %d", len(fresh.Hits), len(before.Hits)+1)
	}
}

// TestLiveStatsTrackWrites: TermDocFrequency and NumDocs follow the
// mutable collection.
func TestLiveStatsTrackWrites(t *testing.T) {
	l := liveService(t)
	df0, err := l.TermDocFrequency(bg, "title", "belief")
	if err != nil {
		t.Fatal(err)
	}
	n0, _ := l.NumDocs()
	if _, err := l.Ingest(bg, []texservice.IngestOp{put("n1", "belief goes live")}); err != nil {
		t.Fatal(err)
	}
	df1, err := l.TermDocFrequency(bg, "title", "belief")
	if err != nil {
		t.Fatal(err)
	}
	n1, _ := l.NumDocs()
	if df1 != df0+1 || n1 != n0+1 {
		t.Fatalf("df %d→%d docs %d→%d; want both +1", df0, df1, n0, n1)
	}
	// Phrase frequency goes through evaluation.
	pf, err := l.TermDocFrequency(bg, "title", "belief goes")
	if err != nil || pf != 1 {
		t.Fatalf("phrase df = %d, %v", pf, err)
	}
}

// TestLiveBatchSearchOneView: a batch is answered from one consistent
// view even with form limits in play.
func TestLiveBatchSearchOneView(t *testing.T) {
	l := liveService(t)
	if _, err := l.Ingest(bg, []texservice.IngestOp{put("n1", "alpha beta")}); err != nil {
		t.Fatal(err)
	}
	e1, _ := textidx.Parse("title='alpha'", nil)
	e2, _ := textidx.Parse("title='beta'", nil)
	results, err := l.BatchSearch(bg, []textidx.Expr{e1, e2}, texservice.FormShort)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || len(results[0].Hits) != 1 || len(results[1].Hits) != 1 {
		t.Fatalf("batch results = %+v", results)
	}
}

// TestCachesNeverServeStaleAfterWrite is the invalidation regression
// test: a query through the full decorator stack (ProbeCache over Cached
// over Live) after an acked write must NEVER be answered from a
// pre-write cache entry — for both the search cache and the probe cache,
// and for both new-document and deleted-document staleness.
func TestCachesNeverServeStaleAfterWrite(t *testing.T) {
	l := liveService(t)
	cached := texservice.NewCached(l, 64)
	stack := texservice.NewProbeCache(cached, 64)

	e, err := textidx.Parse("title='belief'", nil)
	if err != nil {
		t.Fatal(err)
	}
	search := func() []string {
		t.Helper()
		res, err := stack.Search(bg, e, texservice.FormShort)
		if err != nil {
			t.Fatal(err)
		}
		return hitExts(res)
	}

	before := search()
	// Warm both caches: this hit must come from cache.
	if again := search(); len(again) != len(before) {
		t.Fatalf("warm-up mismatch: %v vs %v", again, before)
	}
	hits0, _ := stack.Stats()

	// Write THROUGH the stack: the ack carries the new index version and
	// both caches must adopt it on the way.
	if _, err := stack.Ingest(bg, []texservice.IngestOp{put("n1", "belief arrives")}); err != nil {
		t.Fatal(err)
	}
	after := search()
	if len(after) != len(before)+1 {
		t.Fatalf("post-write search through caches: %v (pre-write had %v) — stale cache served", after, before)
	}

	// Delete staleness: remove a doc, search again through the stack.
	if _, err := stack.Ingest(bg, []texservice.IngestOp{del("n1")}); err != nil {
		t.Fatal(err)
	}
	final := search()
	if len(final) != len(before) {
		t.Fatalf("post-delete search through caches: %v — stale cache served", final)
	}
	// And repeated queries after the writes do hit the (re-keyed) cache.
	search()
	hits1, _ := stack.Stats()
	if hits1 <= hits0 {
		t.Fatalf("probe cache never hit after re-key (hits %d → %d)", hits0, hits1)
	}
}

// TestPinnedQueryDoesNotPoisonCaches is the regression test for the
// snapshot/cache interaction: a write lands between a pinned query's first
// and second search (the pin is taken at the first read, so a write before
// it is simply visible — see TestPinResolvesAtFirstRead), and the second,
// cache-missing search evaluates against the pre-write view. Its answer
// must not be recorded under the post-write version, where an unpinned
// query would hit it — the stated guarantee is that a post-ack search is
// never answered from a pre-write entry — and the unpinned query's fill
// must not be served back to the pinned one.
func TestPinnedQueryDoesNotPoisonCaches(t *testing.T) {
	l := liveService(t)
	cached := texservice.NewCached(l, 64)
	stack := texservice.NewProbeCache(cached, 64)

	first, err := textidx.Parse("title='sensor'", nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := textidx.Parse("title='belief'", nil)
	if err != nil {
		t.Fatal(err)
	}
	pinned := stack.PinSnapshot(bg)
	// The pinned query's first search fixes its view.
	if _, err := stack.Search(pinned, first, texservice.FormShort); err != nil {
		t.Fatal(err)
	}
	// The write lands before its second search; both caches adopt the
	// post-write version from the ack.
	if _, err := stack.Ingest(bg, []texservice.IngestOp{put("n1", "belief lands mid-query")}); err != nil {
		t.Fatal(err)
	}
	if !stack.SnapshotPinned(pinned) {
		t.Fatal("pin resolved before the write does not report behind after it")
	}
	old, err := stack.Search(pinned, e, texservice.FormShort)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := stack.Search(bg, e, texservice.FormShort)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Hits) != len(old.Hits)+1 {
		t.Fatalf("unpinned post-write search sees %d hits, want %d — pinned query poisoned the cache",
			len(fresh.Hits), len(old.Hits)+1)
	}
	// The pinned query keeps its pre-write view on repeats (and the
	// unpinned fill above must not leak into it).
	again, err := stack.Search(pinned, e, texservice.FormShort)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Hits) != len(old.Hits) {
		t.Fatalf("pinned view drifted through the caches: %d then %d hits", len(old.Hits), len(again.Hits))
	}
}

// TestPinResolvesAtFirstRead: PinSnapshot only marks the context; the
// view is captured by the query's first read. A write acked in between is
// visible to the query (and leaves it current, so it keeps its cache
// access); once captured, the view never moves, and pinning the context
// again changes nothing.
func TestPinResolvesAtFirstRead(t *testing.T) {
	l := liveService(t)
	e, err := textidx.Parse("title='belief'", nil)
	if err != nil {
		t.Fatal(err)
	}
	count := func(ctx context.Context) int {
		t.Helper()
		res, err := l.Search(ctx, e, texservice.FormShort)
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Hits)
	}
	base := count(bg)

	pinned := l.PinSnapshot(bg)
	if again := l.PinSnapshot(pinned); again != pinned {
		t.Fatal("PinSnapshot on a pinned context returned a new context")
	}
	if _, err := l.Ingest(bg, []texservice.IngestOp{put("n1", "belief before first read")}); err != nil {
		t.Fatal(err)
	}
	if got := count(pinned); got != base+1 {
		t.Fatalf("write acked before the first read: pinned query sees %d hits, want %d", got, base+1)
	}
	if l.SnapshotPinned(pinned) {
		t.Fatal("pin taken at the first read reports behind with no write since")
	}

	if _, err := l.Ingest(bg, []texservice.IngestOp{put("n2", "belief after first read")}); err != nil {
		t.Fatal(err)
	}
	if !l.SnapshotPinned(pinned) {
		t.Fatal("pin does not report behind after a later write")
	}
	// Re-pinning a resolved pin must not refresh it.
	if got := count(l.PinSnapshot(pinned)); got != base+1 {
		t.Fatalf("resolved pin moved: %d hits, want %d", got, base+1)
	}
	if got := count(bg); got != base+2 {
		t.Fatalf("unpinned search sees %d hits, want %d", got, base+2)
	}
}

// TestPinProbeResolves: a SnapshotPinned probe fixes the view just as a
// read does — a cache told "not behind" may serve a current-version
// entry, so a write after the probe must stay invisible to the query.
func TestPinProbeResolves(t *testing.T) {
	l := liveService(t)
	e, err := textidx.Parse("title='belief'", nil)
	if err != nil {
		t.Fatal(err)
	}
	base, err := l.Search(bg, e, texservice.FormShort)
	if err != nil {
		t.Fatal(err)
	}
	pinned := l.PinSnapshot(bg)
	if l.SnapshotPinned(pinned) {
		t.Fatal("fresh pin reports behind")
	}
	if _, err := l.Ingest(bg, []texservice.IngestOp{put("n1", "belief after probe")}); err != nil {
		t.Fatal(err)
	}
	res, err := l.Search(pinned, e, texservice.FormShort)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != len(base.Hits) {
		t.Fatalf("write after the probe visible to the pinned query: %d hits, want %d", len(res.Hits), len(base.Hits))
	}
}

// TestPinSharedAcrossGoroutines: a query's parallel legs share one
// context; whichever reads first resolves the pin and all of them see
// that one view while a writer keeps advancing the collection.
func TestPinSharedAcrossGoroutines(t *testing.T) {
	l := liveService(t)
	e, err := textidx.Parse("title='belief'", nil)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Upserts over a few ids keep the collection small while the
			// number of 'belief' hits keeps changing.
			title := "belief keeps arriving"
			if i%3 == 0 {
				title = "something else"
			}
			if _, err := l.Ingest(bg, []texservice.IngestOp{put(fmt.Sprintf("w%d", i%8), title)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for q := 0; q < 20; q++ {
		pinned := l.PinSnapshot(bg)
		counts := make([]int, 8)
		var legs sync.WaitGroup
		for g := range counts {
			g := g
			legs.Add(1)
			go func() {
				defer legs.Done()
				for i := 0; i < 4; i++ {
					res, err := l.Search(pinned, e, texservice.FormShort)
					if err != nil {
						t.Error(err)
						return
					}
					if i > 0 && len(res.Hits) != counts[g] {
						t.Errorf("leg %d: view moved, %d then %d hits", g, counts[g], len(res.Hits))
					}
					counts[g] = len(res.Hits)
				}
			}()
		}
		legs.Wait()
		for g, c := range counts {
			if c != counts[0] {
				t.Fatalf("query %d: leg %d saw %d hits, leg 0 saw %d — legs pinned different views", q, g, c, counts[0])
			}
		}
	}
	close(stop)
	writer.Wait()
}

// TestCurrentPinKeepsCacheUtility: a pin that the collection has not
// moved past reads through the caches normally — bypass is reserved for
// pins that have fallen behind, so the common no-contention case keeps
// full cache hit rates.
func TestCurrentPinKeepsCacheUtility(t *testing.T) {
	l := liveService(t)
	cached := texservice.NewCached(l, 64)
	stack := texservice.NewProbeCache(cached, 64)

	e, err := textidx.Parse("title='belief'", nil)
	if err != nil {
		t.Fatal(err)
	}
	pinned := stack.PinSnapshot(bg)
	for i := 0; i < 3; i++ {
		if _, err := stack.Search(pinned, e, texservice.FormShort); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := stack.Stats(); hits != 2 || misses != 1 {
		t.Fatalf("current-pin probes: hits=%d misses=%d, want 2/1", hits, misses)
	}
	if u := stack.Meter().Snapshot(); u.Searches != 1 {
		t.Fatalf("backend charged %d searches for a current pin, want 1", u.Searches)
	}
}

// TestCachedVersionKeying drives the version hooks directly: an entry
// filled at version v is rejected once the version moves.
func TestCachedVersionKeying(t *testing.T) {
	l := liveService(t)
	cached := texservice.NewCached(l, 64)
	e, _ := textidx.Parse("title='belief'", nil)
	if _, err := cached.Search(bg, e, texservice.FormShort); err != nil {
		t.Fatal(err)
	}
	if _, err := cached.Search(bg, e, texservice.FormShort); err != nil {
		t.Fatal(err)
	}
	hits, _ := cached.Stats()
	if hits != 1 {
		t.Fatalf("warm-up: %d cache hits, want 1", hits)
	}
	cached.SetIndexVersion(99)
	if _, err := cached.Search(bg, e, texservice.FormShort); err != nil {
		t.Fatal(err)
	}
	hits2, misses := cached.Stats()
	if hits2 != 1 {
		t.Fatalf("stale entry served after version bump (hits %d, misses %d)", hits2, misses)
	}
	if cached.Invalidations() == 0 {
		t.Fatal("version bump not counted as invalidation")
	}
}
