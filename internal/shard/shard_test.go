package shard

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

var bg = context.Background()

// fixture builds a small CSTR-like collection (mirrors the join package's
// test corpus).
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

func localService(t testing.TB, ix *textidx.Index) *texservice.Local {
	t.Helper()
	svc, err := texservice.NewLocal(ix, texservice.WithShortFields("title", "author", "year"))
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func cluster(t testing.TB, ix *textidx.Index, n int, opts ...Option) *Sharded {
	s, _ := meteredCluster(t, ix, n, nil, opts...)
	return s
}

// meteredCluster is cluster with each shard backend wrapped by decorate,
// when non-nil. It also returns the backends' own meters in shard order,
// for the tests that check what each shard was charged.
func meteredCluster(t testing.TB, ix *textidx.Index, n int,
	decorate func(k int, svc texservice.Service) texservice.Service,
	opts ...Option) (*Sharded, []*texservice.Meter) {
	t.Helper()
	meters := make([]*texservice.Meter, n)
	s, err := NewLocalCluster(ix, n,
		[]texservice.LocalOption{texservice.WithShortFields("title", "author", "year")},
		func(k int, svc texservice.Service) texservice.Service {
			if decorate != nil {
				svc = decorate(k, svc)
			}
			meters[k] = svc.Meter()
			return svc
		}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s, meters
}

// sumUsage adds up the meters' snapshots.
func sumUsage(meters []*texservice.Meter) texservice.Usage {
	var sum texservice.Usage
	for _, m := range meters {
		sum = sum.Add(m.Snapshot())
	}
	return sum
}

// queries covers every expression kind the Boolean language offers.
func queries() []textidx.Expr {
	return []textidx.Expr{
		textidx.Term{Field: "title", Word: "text"},
		textidx.Term{Field: "title", Word: "zebra"}, // fail-query
		textidx.Term{Word: "belief"},                // field-less
		textidx.Phrase{Field: "title", Words: []string{"belief", "update"}},
		textidx.Prefix{Field: "author", Stem: "gra"},
		textidx.Near{Field: "title", A: "text", B: "systems", Dist: 2},
		textidx.And{
			textidx.Term{Field: "title", Word: "text"},
			textidx.Term{Field: "year", Word: "1994"},
		},
		textidx.Or{
			textidx.Term{Field: "author", Word: "kao"},
			textidx.Term{Field: "author", Word: "radhika"},
		},
		textidx.Not{E: textidx.Term{Field: "title", Word: "text"}},
	}
}

// TestSearchMatchesUnsharded: for every shard count and expression kind,
// the federation returns exactly the unsharded hit list — same global
// docids, same order, same ExtIDs and fields.
func TestSearchMatchesUnsharded(t *testing.T) {
	ix := fixture(t)
	single := localService(t, ix)
	for _, n := range []int{1, 2, 3, 4, 7, 11} {
		sharded := cluster(t, ix, n)
		for _, q := range queries() {
			for _, form := range []texservice.Form{texservice.FormShort, texservice.FormLong} {
				want, err := single.Search(bg, q, form)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sharded.Search(bg, q, form)
				if err != nil {
					t.Fatalf("n=%d %s: %v", n, q.String(), err)
				}
				if len(got.Hits) != len(want.Hits) {
					t.Fatalf("n=%d %s: %d hits, want %d", n, q.String(), len(got.Hits), len(want.Hits))
				}
				for i := range want.Hits {
					w, g := want.Hits[i], got.Hits[i]
					if g.ID != w.ID || g.ExtID != w.ExtID {
						t.Fatalf("n=%d %s hit %d: got (%d,%s), want (%d,%s)",
							n, q.String(), i, g.ID, g.ExtID, w.ID, w.ExtID)
					}
					for c, f := range want.Fields {
						if v, gv := w.Value(c), g.Value(got.Column(f)); gv != v {
							t.Fatalf("n=%d %s hit %d: field %s = %q, want %q",
								n, q.String(), i, f, gv, v)
						}
					}
				}
				if got.Partial {
					t.Fatalf("n=%d %s: healthy search marked partial", n, q.String())
				}
			}
		}
	}
}

// TestRetrieveRoutesToOwner: every global docid retrieves the same
// document through the federation as through the unsharded service.
func TestRetrieveRoutesToOwner(t *testing.T) {
	ix := fixture(t)
	for _, n := range []int{1, 2, 3, 5} {
		sharded := cluster(t, ix, n)
		for id := 0; id < ix.NumDocs(); id++ {
			want, err := ix.Doc(textidx.DocID(id))
			if err != nil {
				t.Fatal(err)
			}
			got, err := sharded.Retrieve(bg, textidx.DocID(id))
			if err != nil {
				t.Fatalf("n=%d id=%d: %v", n, id, err)
			}
			if got.ExtID != want.ExtID {
				t.Fatalf("n=%d id=%d: got %s, want %s", n, id, got.ExtID, want.ExtID)
			}
		}
		if _, err := sharded.Retrieve(bg, textidx.DocID(ix.NumDocs())); err == nil {
			t.Fatalf("n=%d: out-of-range retrieve accepted", n)
		}
		if _, err := sharded.Retrieve(bg, -1); err == nil {
			t.Fatalf("n=%d: negative retrieve accepted", n)
		}
	}
}

// TestMetadata: collection size sums, term limit is the minimum, short
// fields must agree.
func TestMetadata(t *testing.T) {
	ix := fixture(t)
	sharded := cluster(t, ix, 3)
	if n, err := sharded.NumDocs(); err != nil || n != ix.NumDocs() {
		t.Fatalf("NumDocs = %d, %v; want %d", n, err, ix.NumDocs())
	}
	if sharded.MaxTerms() != texservice.DefaultMaxTerms {
		t.Fatalf("MaxTerms = %d", sharded.MaxTerms())
	}
	if got := sharded.ShortFields(); len(got) != 3 {
		t.Fatalf("ShortFields = %v", got)
	}

	// Mismatched short fields across shards are rejected.
	parts, err := ix.Partition(2)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := texservice.NewLocal(parts[0], texservice.WithShortFields("title"))
	b, _ := texservice.NewLocal(parts[1], texservice.WithShortFields("author"))
	if _, err := New([]texservice.Service{a, b}); err == nil {
		t.Fatal("mismatched short fields accepted")
	}
	if _, err := New(nil); err == nil {
		t.Fatal("empty federation accepted")
	}

	// The smallest shard term limit governs.
	c, _ := texservice.NewLocal(parts[0], texservice.WithMaxTerms(5))
	d, _ := texservice.NewLocal(parts[1], texservice.WithMaxTerms(9))
	s, err := New([]texservice.Service{c, d})
	if err != nil {
		t.Fatal(err)
	}
	if s.MaxTerms() != 5 {
		t.Fatalf("MaxTerms = %d, want 5", s.MaxTerms())
	}
	big := make(textidx.And, 0, 6)
	for _, w := range []string{"a", "b", "c", "d", "e", "f"} {
		big = append(big, textidx.Term{Field: "title", Word: w})
	}
	if _, err := s.Search(bg, big, texservice.FormShort); err == nil ||
		!strings.Contains(err.Error(), "limit") {
		t.Fatalf("term limit not enforced: %v", err)
	}
}

// TestScatterUsage: an N-way fan-out charges N invocations per logical
// search (total cost grows) while the critical path charges only the
// most expensive shard (elapsed cost shrinks towards 1/N).
func TestScatterUsage(t *testing.T) {
	ix := fixture(t)
	single := localService(t, ix)
	q := textidx.Term{Field: "title", Word: "text"}
	if _, err := single.Search(bg, q, texservice.FormShort); err != nil {
		t.Fatal(err)
	}
	base := single.Meter().Snapshot()
	if base.CritCost != base.Cost {
		t.Fatalf("unsharded CritCost %v != Cost %v", base.CritCost, base.Cost)
	}

	const n = 4
	sharded, meters := meteredCluster(t, ix, n, nil)
	if _, err := sharded.Search(bg, q, texservice.FormShort); err != nil {
		t.Fatal(err)
	}
	u := sharded.Meter().Snapshot()
	if u.Searches != n {
		t.Fatalf("sharded searches = %d, want %d (one invocation per shard)", u.Searches, n)
	}
	costs := sharded.Meter().Costs()
	wantExtra := float64(n-1) * costs.CI
	if diff := u.Cost - base.Cost; diff < wantExtra-1e-9 {
		t.Fatalf("total cost grew by %v, want at least (N-1)*c_i = %v", diff, wantExtra)
	}
	if u.CritCost >= u.Cost {
		t.Fatalf("critical path %v not below total %v", u.CritCost, u.Cost)
	}
	if u.CritCost >= base.Cost {
		t.Fatalf("critical path %v not below unsharded cost %v", u.CritCost, base.Cost)
	}

	// Per-shard meters sum to at least the root meter's searches.
	if perShard := sumUsage(meters).Searches; perShard < u.Searches {
		t.Fatalf("per-shard searches %d < root %d", perShard, u.Searches)
	}
}

// rendezvous is a shard decorator whose Search first calls enter, which
// may hold the call or fail it.
type rendezvous struct {
	texservice.Service
	enter func() error
}

func (r rendezvous) Search(ctx context.Context, e textidx.Expr, form texservice.Form) (*texservice.Result, error) {
	if err := r.enter(); err != nil {
		return nil, err
	}
	return r.Service.Search(ctx, e, form)
}

// TestScatterLegsRunConcurrently: every shard's Search is held until all
// four legs have entered it, so the federated search completes only if
// the legs run at the same time. Legs run one after another would never
// get past the first; each then fails after the 5 s deadline. No
// wall-clock threshold is involved.
func TestScatterLegsRunConcurrently(t *testing.T) {
	const n = 4
	ix := fixture(t)
	deadline, cancel := context.WithTimeout(bg, 5*time.Second)
	defer cancel()
	var entered atomic.Int32
	all := make(chan struct{})
	hold := func(k int, svc texservice.Service) texservice.Service {
		return rendezvous{Service: svc, enter: func() error {
			if entered.Add(1) == n {
				close(all)
			}
			select {
			case <-all:
				return nil
			case <-deadline.Done():
				return fmt.Errorf("shard %d: %d of %d legs entered Search within 5s", k, entered.Load(), n)
			}
		}}
	}
	sharded, err := NewLocalCluster(ix, n,
		[]texservice.LocalOption{texservice.WithShortFields("title", "author", "year")}, hold)
	if err != nil {
		t.Fatal(err)
	}
	q := textidx.Term{Field: "title", Word: "text"}
	got, err := sharded.Search(bg, q, texservice.FormShort)
	if err != nil {
		t.Fatalf("scatter legs did not run concurrently: %v", err)
	}
	want, err := localService(t, ix).Search(bg, q, texservice.FormShort)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Hits) != len(want.Hits) {
		t.Fatalf("federation returned %d hits, unsharded %d", len(got.Hits), len(want.Hits))
	}
}

// TestStrictVsBestEffort: with one shard permanently down, strict mode
// fails the search, naming the shard; best-effort drops that shard's
// documents and marks the result partial.
func TestStrictVsBestEffort(t *testing.T) {
	ix := fixture(t)
	q := textidx.Term{Field: "title", Word: "text"}
	broken := func(k int, svc texservice.Service) texservice.Service {
		if k == 1 {
			return texservice.NewFaulty(svc, texservice.FaultConfig{
				ErrorEvery: 1, Permanent: true,
			})
		}
		return svc
	}
	newCluster := func(opts ...Option) *Sharded {
		s, err := NewLocalCluster(ix, 3,
			[]texservice.LocalOption{texservice.WithShortFields("title", "author", "year")},
			broken, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	strict := newCluster()
	if _, err := strict.Search(bg, q, texservice.FormShort); err == nil {
		t.Fatal("strict mode swallowed a shard failure")
	} else if !strings.Contains(err.Error(), "shard 1/3") {
		t.Fatalf("strict error does not name the failed shard: %v", err)
	}

	besteffort := newCluster(WithBestEffort())
	res, err := besteffort.Search(bg, q, texservice.FormShort)
	if err != nil {
		t.Fatalf("best-effort failed: %v", err)
	}
	if !res.Partial {
		t.Fatal("degraded result not marked partial")
	}
	// The surviving shards' documents are exactly the non-shard-1 subset
	// of the unsharded result.
	want, err := localService(t, ix).Search(bg, q, texservice.FormShort)
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := map[textidx.DocID]bool{}
	for _, h := range want.Hits {
		if textidx.ShardOf(h.ID, 3) != 1 {
			wantIDs[h.ID] = true
		}
	}
	if len(res.Hits) != len(wantIDs) {
		t.Fatalf("best-effort returned %d hits, want %d", len(res.Hits), len(wantIDs))
	}
	for _, h := range res.Hits {
		if !wantIDs[h.ID] {
			t.Fatalf("best-effort returned doc %d owned by the dead shard", h.ID)
		}
	}

	// All shards down: even best-effort must fail.
	allBroken, err := NewLocalCluster(ix, 2,
		[]texservice.LocalOption{texservice.WithShortFields("title", "author", "year")},
		func(k int, svc texservice.Service) texservice.Service {
			return texservice.NewFaulty(svc, texservice.FaultConfig{ErrorEvery: 1, Permanent: true})
		}, WithBestEffort())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := allBroken.Search(bg, q, texservice.FormShort); err == nil {
		t.Fatal("best-effort succeeded with every shard down")
	}
}

// TestBestEffortPartialNotCached: a best-effort search that lost a shard
// is returned Partial but never stored by the caches above it, so the
// same search after the shard recovers returns every hit.
func TestBestEffortPartialNotCached(t *testing.T) {
	ix := fixture(t)
	q := textidx.Term{Field: "title", Word: "text"}
	for _, form := range []texservice.Form{texservice.FormShort, texservice.FormLong} {
		want, err := localService(t, ix).Search(bg, q, form)
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := NewLocalCluster(ix, 3,
			[]texservice.LocalOption{texservice.WithShortFields("title", "author", "year")},
			func(k int, svc texservice.Service) texservice.Service {
				if k == 1 {
					// Seed 11's first draw is below the rate and its second
					// above: the shard fails its first call only.
					return texservice.NewFaulty(svc, texservice.FaultConfig{ErrorRate: 0.5, Seed: 11})
				}
				return svc
			}, WithBestEffort())
		if err != nil {
			t.Fatal(err)
		}
		svc := texservice.NewProbeCache(texservice.NewCached(sharded, 16), 16)
		first, err := svc.Search(bg, q, form)
		if err != nil {
			t.Fatal(err)
		}
		if !first.Partial {
			t.Fatalf("%v: first search not partial; the fault did not fire", form)
		}
		second, err := svc.Search(bg, q, form)
		if err != nil {
			t.Fatal(err)
		}
		if second.Partial || len(second.Hits) != len(want.Hits) {
			t.Fatalf("%v: after recovery got %d hits (partial=%v), want all %d",
				form, len(second.Hits), second.Partial, len(want.Hits))
		}
	}
}

// TestStrictErrorNamesRootCause: when one shard fails and strict mode
// cancels the slower shards, the returned error must carry the failing
// shard's fault, not a victim's "context canceled".
func TestStrictErrorNamesRootCause(t *testing.T) {
	ix := fixture(t)
	sharded, err := NewLocalCluster(ix, 3,
		[]texservice.LocalOption{texservice.WithShortFields("title", "author", "year")},
		func(k int, svc texservice.Service) texservice.Service {
			if k == 1 {
				return texservice.NewFaulty(svc, texservice.FaultConfig{
					ErrorEvery: 1, Permanent: true,
				})
			}
			// The healthy shards are slow, so the fast failure cancels them.
			return texservice.NewFaulty(svc, texservice.FaultConfig{
				Latency: 200 * time.Millisecond,
			})
		})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sharded.Search(bg, textidx.Term{Field: "title", Word: "text"}, texservice.FormShort)
	if err == nil {
		t.Fatal("strict search with a dead shard succeeded")
	}
	if strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("cancellation masked the root cause: %v", err)
	}
	if !strings.Contains(err.Error(), "shard 1/3") {
		t.Fatalf("error does not name the failing shard: %v", err)
	}
}

// TestShardedRetry: transient per-shard faults are retried per shard by a
// Retrying wrapper around each backend, so the federation search still
// succeeds and matches.
func TestShardedRetry(t *testing.T) {
	ix := fixture(t)
	q := textidx.Term{Field: "title", Word: "text"}
	sharded, meters := meteredCluster(t, ix, 3,
		func(k int, svc texservice.Service) texservice.Service {
			return texservice.NewRetrying(
				texservice.NewFaulty(svc, texservice.FaultConfig{ErrorRate: 0.4, Seed: int64(k + 1)}),
				texservice.RetryPolicy{MaxAttempts: 30, BaseDelay: 1, MaxDelay: 10, Seed: texservice.DeriveSeed(0, k)})
		})
	want, err := localService(t, ix).Search(bg, q, texservice.FormShort)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		got, err := sharded.Search(bg, q, texservice.FormShort)
		if err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
		if len(got.Hits) != len(want.Hits) {
			t.Fatalf("search %d: %d hits, want %d", i, len(got.Hits), len(want.Hits))
		}
	}
	if sumUsage(meters).Retries == 0 {
		t.Fatal("no retries metered despite 40% fault rate")
	}
}

// TestBatchSearchMatches: the batched capability distributes over the
// partition, one invocation per shard for the whole batch.
func TestBatchSearchMatches(t *testing.T) {
	ix := fixture(t)
	single := localService(t, ix)
	exprs := []textidx.Expr{
		textidx.Term{Field: "title", Word: "text"},
		textidx.Term{Field: "author", Word: "kao"},
		textidx.Term{Field: "title", Word: "zebra"},
	}
	want, err := single.BatchSearch(bg, exprs, texservice.FormShort)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 4} {
		sharded := cluster(t, ix, n)
		got, err := sharded.BatchSearch(bg, exprs, texservice.FormShort)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d results", n, len(got))
		}
		for i := range want {
			if len(got[i].Hits) != len(want[i].Hits) {
				t.Fatalf("n=%d expr %d: %d hits, want %d", n, i, len(got[i].Hits), len(want[i].Hits))
			}
			for j := range want[i].Hits {
				if got[i].Hits[j].ID != want[i].Hits[j].ID {
					t.Fatalf("n=%d expr %d hit %d: id %d, want %d",
						n, i, j, got[i].Hits[j].ID, want[i].Hits[j].ID)
				}
			}
		}
		if u := sharded.Meter().Snapshot(); u.Searches != n {
			t.Fatalf("n=%d: batch charged %d invocations, want %d", n, u.Searches, n)
		}
	}
}

// TestTermDocFrequency: document frequency sums exactly over the
// partition.
func TestTermDocFrequency(t *testing.T) {
	ix := fixture(t)
	single := localService(t, ix)
	for _, n := range []int{1, 2, 3} {
		sharded := cluster(t, ix, n)
		for _, term := range []string{"text", "belief", "kao", "zebra"} {
			for _, field := range []string{"title", "author"} {
				want, err := single.TermDocFrequency(bg, field, term)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sharded.TermDocFrequency(bg, field, term)
				if err != nil {
					t.Fatalf("n=%d %s.%s: %v", n, field, term, err)
				}
				if got != want {
					t.Fatalf("n=%d %s.%s: df %d, want %d", n, field, term, got, want)
				}
			}
		}
	}
}

// TestPartitionInvariant: the arithmetic of the modulo partition is
// self-inverse.
func TestPartitionInvariant(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7} {
		for g := textidx.DocID(0); g < 100; g++ {
			k := textidx.ShardOf(g, n)
			l := textidx.LocalID(g, n)
			if back := textidx.GlobalID(k, l, n); back != g {
				t.Fatalf("n=%d: GlobalID(%d,%d) = %d, want %d", n, k, l, back, g)
			}
		}
	}
}

// TestMergeUnevenFields: when the shards' long-form answers name
// different fields (each is the union of its own documents' fields), the
// merged answer carries their sorted union, with "" where a hit's shard
// lacked a field — the answer the unsharded collection gives. When the
// shards agree, the merged answer shares their field list.
func TestMergeUnevenFields(t *testing.T) {
	ix := textidx.NewIndex()
	for i := 0; i < 6; i++ {
		fields := map[string]string{"title": fmt.Sprintf("text %d", i)}
		if i%2 == 0 {
			fields["author"] = fmt.Sprintf("a%d", i) // shard 0 of 2
		} else {
			fields["abstract"] = fmt.Sprintf("about %d", i) // shard 1 of 2
		}
		ix.MustAdd(textidx.Document{ExtID: fmt.Sprint("d", i), Fields: fields})
	}
	ix.Freeze()
	single := localService(t, ix)
	sharded := cluster(t, ix, 2)
	q := textidx.Term{Field: "title", Word: "text"}
	for _, form := range []texservice.Form{texservice.FormShort, texservice.FormLong} {
		want, err := single.Search(bg, q, form)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sharded.Search(bg, q, form)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Fields) != fmt.Sprint(want.Fields) || len(got.Hits) != len(want.Hits) {
			t.Fatalf("%s: fields %v, %d hits; want %v, %d hits", form, got.Fields, len(got.Hits), want.Fields, len(want.Hits))
		}
		for i, w := range want.Hits {
			g := got.Hits[i]
			if g.ID != w.ID || g.ExtID != w.ExtID || fmt.Sprintf("%q", g.Values) != fmt.Sprintf("%q", w.Values) {
				t.Fatalf("%s hit %d: got %+v, want %+v", form, i, g, w)
			}
		}
	}
}
