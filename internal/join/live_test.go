package join

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"textjoin/internal/ingest"
	"textjoin/internal/shard"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

// Live-ingest equivalence: every join method (and its batched variants)
// must see an acknowledged write immediately, and produce exactly the
// rows the naive oracle produces over the mutated corpus — standalone
// and as a 2- and 4-shard federation of live stores.

// liveMutations is the write batch applied over the base corpus: a new
// joining document, an update that narrows a join, an update that removes
// one, a delete, and an unrelated insert.
func liveMutations() []texservice.IngestOp {
	return []texservice.IngestOp{
		{Kind: texservice.IngestPut, ExtID: "r6", Fields: map[string]string{
			"title": "Belief Update Strategies", "author": "Radhika", "year": "1996"}},
		{Kind: texservice.IngestPut, ExtID: "r1", Fields: map[string]string{
			"title": "The PWS Project Overview Second Edition", "author": "Gravano", "year": "1996"}},
		{Kind: texservice.IngestDelete, ExtID: "r2"},
		{Kind: texservice.IngestPut, ExtID: "x1", Fields: map[string]string{
			"title": "Unrelated Topic", "author": "Nobody", "year": "1990"}},
	}
}

// mutatedCorpus rebuilds the post-write collection from scratch — the
// trivially correct image the layered store must be equivalent to.
func mutatedCorpus(t testing.TB) *textidx.Index {
	t.Helper()
	base := corpus(t)
	docs := map[string]textidx.Document{}
	var order []string
	for i := 0; i < base.NumDocs(); i++ {
		d, err := base.Doc(textidx.DocID(i))
		if err != nil {
			t.Fatal(err)
		}
		docs[d.ExtID] = d
		order = append(order, d.ExtID)
	}
	for _, op := range liveMutations() {
		switch op.Kind {
		case texservice.IngestPut:
			if _, ok := docs[op.ExtID]; !ok {
				order = append(order, op.ExtID)
			}
			docs[op.ExtID] = textidx.Document{ExtID: op.ExtID, Fields: op.Fields}
		case texservice.IngestDelete:
			delete(docs, op.ExtID)
		}
	}
	ix := textidx.NewIndex()
	for _, ext := range order {
		if d, ok := docs[ext]; ok {
			ix.MustAdd(d)
		}
	}
	ix.Freeze()
	return ix
}

// liveFederation builds n live stores over the partitioned base corpus
// and composes them: a single Live service for n=1, a Sharded federation
// otherwise.
func liveFederation(t testing.TB, n int) (texservice.Service, []*ingest.Store) {
	t.Helper()
	base := corpus(t)
	parts := []*textidx.Index{base}
	if n > 1 {
		var err error
		parts, err = base.Partition(n)
		if err != nil {
			t.Fatal(err)
		}
	}
	stores := make([]*ingest.Store, n)
	services := make([]texservice.Service, n)
	for k := 0; k < n; k++ {
		st, err := ingest.Open(parts[k], ingest.Options{ShardIndex: k, ShardCount: n})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		stores[k] = st
		services[k] = ingest.NewLive(st, ingest.WithShortFields("title", "author", "year"))
	}
	if n == 1 {
		return services[0], stores
	}
	fed, err := shard.New(services)
	if err != nil {
		t.Fatal(err)
	}
	return fed, stores
}

// liveMethods is every §3 method plus the batched variants. RTP needs a
// text selection, so it only joins the list when the spec carries one.
func liveMethods(withSel bool) []Method {
	ms := []Method{
		TS{},
		TS{Batched: true},
		SJRTP{},
		PTS{ProbeColumns: []string{"name"}},
		PTS{ProbeColumns: []string{"member"}},
		PTS{ProbeColumns: []string{"name"}, Batched: true},
		PRTP{ProbeColumns: []string{"name"}},
		PRTP{ProbeColumns: []string{"member"}},
		PRTP{ProbeColumns: []string{"member"}, Batched: true},
	}
	if withSel {
		ms = append(ms, RTP{})
	}
	return ms
}

func TestLiveIngestAllMethodsAgreeWithNaive(t *testing.T) {
	mutated := mutatedCorpus(t)
	for _, longForm := range []bool{false, true} {
		for _, withSel := range []bool{false, true} {
			spec := q3Spec(t, longForm)
			if withSel {
				// The mutations touch year=1994 docs (r1 updated away
				// from it, r2 deleted), so the selected join changes too.
				spec.TextSel = textidx.Term{Field: "year", Word: "1994"}
			}
			want, err := NaiveJoin(spec, mutated)
			if err != nil {
				t.Fatal(err)
			}
			// The mutations must actually change the result, or the test
			// proves nothing about freshness.
			base, err := NaiveJoin(spec, corpus(t))
			if err != nil {
				t.Fatal(err)
			}
			if base.Cardinality() == 0 && want.Cardinality() == 0 {
				t.Fatal("fixture produces an empty join; test would be vacuous")
			}
			if SameRows(base, want) {
				t.Fatal("mutations do not change the join result; fixture is vacuous")
			}

			for _, n := range []int{1, 2, 4} {
				svc, stores := liveFederation(t, n)
				if _, err := svc.Ingest(bg, liveMutations()); err != nil {
					t.Fatalf("n=%d: ingest: %v", n, err)
				}
				for _, m := range liveMethods(withSel) {
					res, err := m.Execute(bg, spec, svc)
					if err != nil {
						t.Fatalf("longForm=%v sel=%v n=%d %s: %v", longForm, withSel, n, m.Name(), err)
					}
					if !SameRows(res.Table, want) {
						t.Errorf("longForm=%v sel=%v n=%d %s: %d rows, naive over mutated corpus has %d",
							longForm, withSel, n, m.Name(), res.Table.Cardinality(), want.Cardinality())
					}
				}
				// Folding the delta into a new base segment must not change
				// any answer.
				for _, st := range stores {
					if err := st.Compact(bg); err != nil {
						t.Fatalf("n=%d compact: %v", n, err)
					}
				}
				res, err := SJRTP{}.Execute(bg, spec, svc)
				if err != nil {
					t.Fatalf("longForm=%v sel=%v n=%d post-compaction: %v", longForm, withSel, n, err)
				}
				if !SameRows(res.Table, want) {
					t.Errorf("longForm=%v sel=%v n=%d: compaction changed the join result", longForm, withSel, n)
				}
			}
		}
	}
}

// TestLiveIngestThroughDecoratedStack runs the same equivalence through
// the engine's full decorator stack (probe cache over search cache over
// the live federation), with queries issued both before and after the
// write — the end-to-end check that no cache layer serves pre-write
// answers.
func TestLiveIngestThroughDecoratedStack(t *testing.T) {
	mutated := mutatedCorpus(t)
	spec := q3Spec(t, false)
	want, err := NaiveJoin(spec, mutated)
	if err != nil {
		t.Fatal(err)
	}
	preWant, err := NaiveJoin(spec, corpus(t))
	if err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{1, 2} {
		inner, _ := liveFederation(t, n)
		stack := texservice.NewProbeCache(texservice.NewCached(inner, 128), 128)

		// Warm the caches with pre-write queries.
		pre, err := SJRTP{}.Execute(bg, spec, stack)
		if err != nil {
			t.Fatal(err)
		}
		if !SameRows(pre.Table, preWant) {
			t.Fatalf("n=%d: pre-write result wrong", n)
		}
		if _, err := stack.Ingest(bg, liveMutations()); err != nil {
			t.Fatalf("n=%d: ingest through stack: %v", n, err)
		}
		for _, m := range []Method{SJRTP{}, PTS{ProbeColumns: []string{"name"}}, PRTP{ProbeColumns: []string{"member"}, Batched: true}} {
			res, err := m.Execute(bg, spec, stack)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, m.Name(), err)
			}
			if !SameRows(res.Table, want) {
				t.Errorf("n=%d %s through warmed caches: stale rows (%d rows, want %d)",
					n, m.Name(), res.Table.Cardinality(), want.Cardinality())
			}
		}
	}
}

// TestLiveIngestVersionSum checks the federation's version surface: the
// sum of shard versions advances with every broadcast batch.
func TestLiveIngestVersionSum(t *testing.T) {
	svc, _ := liveFederation(t, 2)
	v0, err := svc.IndexVersion(bg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Ingest(bg, liveMutations()); err != nil {
		t.Fatal(err)
	}
	v1, err := svc.IndexVersion(bg)
	if err != nil {
		t.Fatal(err)
	}
	if v1 <= v0 {
		t.Fatalf("version did not advance: %d → %d", v0, v1)
	}
	// Every shard saw the whole batch: 4 ops × 2 shards.
	if v1-v0 != uint64(len(liveMutations())*2) {
		t.Fatalf("version advanced by %d, want %d", v1-v0, len(liveMutations())*2)
	}
}

// TestLiveIngestShardedPinsPerShardAtFirstRead: a federation pin is one
// lazy pin per shard, and each shard's view is captured at that shard's
// own first read — a write that lands after shard 0 was read but before
// shard 1 was is invisible on shard 0 and visible on shard 1 (the
// per-shard consistency Sharded.PinSnapshot documents).
func TestLiveIngestShardedPinsPerShardAtFirstRead(t *testing.T) {
	fed, stores := liveFederation(t, 2)
	// A second Live over shard 0's store shares the store's pin: reading
	// through it is "the query reads shard 0 only".
	shard0 := ingest.NewLive(stores[0], ingest.WithShortFields("title", "author", "year"))

	var owned [2][]string // ext ids by owning shard
	for i := 0; len(owned[0]) < 2 || len(owned[1]) < 1; i++ {
		ext := fmt.Sprintf("z%d", i)
		k := ingest.OwnerShard(ext, 2)
		owned[k] = append(owned[k], ext)
	}
	a1, a2, b1 := owned[0][0], owned[0][1], owned[1][0]
	zebrafish := func(ext string) texservice.IngestOp {
		return texservice.IngestOp{Kind: texservice.IngestPut, ExtID: ext, Fields: map[string]string{
			"title": "Zebrafish Genomics", "author": "Nobody", "year": "1997"}}
	}
	e := textidx.Term{Field: "title", Word: "zebrafish"}
	exts := func(ctx context.Context, svc texservice.Service) []string {
		t.Helper()
		res, err := svc.Search(ctx, e, texservice.FormShort)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, h := range res.Hits {
			out = append(out, h.ExtID)
		}
		sort.Strings(out)
		return out
	}

	pinned := fed.PinSnapshot(bg)
	if _, err := fed.Ingest(bg, []texservice.IngestOp{zebrafish(a1)}); err != nil {
		t.Fatal(err)
	}
	if got := exts(pinned, shard0); !reflect.DeepEqual(got, []string{a1}) {
		t.Fatalf("shard 0 first read sees %v, want [%s] (acked before the read)", got, a1)
	}
	if _, err := fed.Ingest(bg, []texservice.IngestOp{zebrafish(a2), zebrafish(b1)}); err != nil {
		t.Fatal(err)
	}
	want := []string{a1, b1}
	sort.Strings(want)
	if got := exts(pinned, fed); !reflect.DeepEqual(got, want) {
		t.Fatalf("pinned federation search sees %v, want %v (shard 0 held to its first read, shard 1 pinned now)", got, want)
	}
	all := []string{a1, a2, b1}
	sort.Strings(all)
	if got := exts(bg, fed); !reflect.DeepEqual(got, all) {
		t.Fatalf("unpinned federation search sees %v, want %v", got, all)
	}
	// Both shards are resolved now: nothing moves on a repeat.
	if _, err := fed.Ingest(bg, []texservice.IngestOp{zebrafish("z-late")}); err != nil {
		t.Fatal(err)
	}
	if got := exts(pinned, fed); !reflect.DeepEqual(got, want) {
		t.Fatalf("resolved federation pin moved: %v, want %v", got, want)
	}
}
