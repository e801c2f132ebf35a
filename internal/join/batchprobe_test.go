package join

import (
	"errors"
	"fmt"
	"testing"

	"textjoin/internal/relation"
	"textjoin/internal/shard"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
	"textjoin/internal/value"
)

// Term-limit edge tests for batched probe pushdown: batching must always
// split the probe set so that no search exceeds the service's limit —
// including exactly at the boundary (M−1, M, M+1 distinct bindings of one
// term each), against federations whose shards disagree on their limits
// (the smallest shard limit governs), and with a text selection occupying
// part of every batch.

// limitCorpus builds n single-word documents w00…, each carrying its word
// in title and author.
func limitCorpus(t *testing.T, n int) *textidx.Index {
	t.Helper()
	ix := textidx.NewIndex()
	for i := 0; i < n; i++ {
		w := fmt.Sprintf("w%02d", i)
		ix.MustAdd(textidx.Document{ExtID: "d" + w, Fields: map[string]string{
			"title": w, "author": w, "year": "1995",
		}})
	}
	ix.Freeze()
	return ix
}

// limitRelation builds a one-column relation with the given distinct
// single-word values.
func limitRelation(t *testing.T, n int) *relation.Table {
	t.Helper()
	tbl := relation.NewTable("r", relation.MustSchema(
		relation.Column{Name: "c0", Kind: value.KindString}))
	for i := 0; i < n; i++ {
		tbl.MustInsert(relation.Tuple{value.String(fmt.Sprintf("w%02d", i))})
	}
	return tbl
}

// TestBatchProbeTermLimitBoundary: with M = 10 and probe sets of M−1, M
// and M+1 one-term bindings, OR packing fills each batch exactly to the
// limit — ⌈bindings/M⌉ round trips, never a TermLimitError, and exactly
// the per-tuple survivors.
func TestBatchProbeTermLimitBoundary(t *testing.T) {
	const m = 10
	ix := limitCorpus(t, 12)
	for _, bindings := range []int{m - 1, m, m + 1} {
		svc, err := texservice.NewLocal(ix,
			texservice.WithShortFields("title", "author", "year"),
			texservice.WithMaxTerms(m))
		if err != nil {
			t.Fatal(err)
		}
		spec := &Spec{Relation: limitRelation(t, bindings),
			Preds: []Pred{{Column: "c0", Field: "title"}}}
		out, st, err := ProbeReduce(bg, spec, []string{"c0"}, svc, true)
		if err != nil {
			t.Fatalf("bindings=%d: %v", bindings, err)
		}
		if out.Cardinality() != bindings {
			t.Errorf("bindings=%d: kept %d tuples, want all %d", bindings, out.Cardinality(), bindings)
		}
		wantRounds := (bindings + m - 1) / m
		if st.Probes != wantRounds {
			t.Errorf("bindings=%d: %d round trips, want %d", bindings, st.Probes, wantRounds)
		}
	}
}

// TestBatchProbeSelectionOccupiesBatch: the selection's terms ride in
// every batch, shrinking the per-batch room — with M = 10 and a 2-term
// selection phrase, 8 bindings fit per batch.
func TestBatchProbeSelectionOccupiesBatch(t *testing.T) {
	const m = 10
	ix := limitCorpus(t, 16)
	svc, err := texservice.NewLocal(ix,
		texservice.WithShortFields("title", "author", "year"),
		texservice.WithMaxTerms(m))
	if err != nil {
		t.Fatal(err)
	}
	spec := &Spec{Relation: limitRelation(t, 16),
		Preds:   []Pred{{Column: "c0", Field: "title"}},
		TextSel: textidx.And{textidx.Term{Field: "year", Word: "1995"}, textidx.Term{Field: "author", Word: "w00"}}}
	out, st, err := ProbeReduce(bg, spec, []string{"c0"}, svc, true)
	if err != nil {
		t.Fatal(err)
	}
	// Selection matches only d-w00, so a single tuple survives.
	if out.Cardinality() != 1 {
		t.Errorf("kept %d tuples, want 1", out.Cardinality())
	}
	if want := 2; st.Probes != want { // ⌈16/(10−2)⌉
		t.Errorf("%d round trips, want %d", st.Probes, want)
	}
}

// TestBatchProbeHeterogeneousShardLimits: a federation's term limit is the
// smallest shard's (shard.New's rule); batching against it must respect
// that limit — no shard ever sees a TermLimitError — and keep exactly the
// per-tuple survivors.
func TestBatchProbeHeterogeneousShardLimits(t *testing.T) {
	ix := limitCorpus(t, 12)
	parts, err := ix.Partition(2)
	if err != nil {
		t.Fatal(err)
	}
	a, err := texservice.NewLocal(parts[0],
		texservice.WithShortFields("title", "author", "year"), texservice.WithMaxTerms(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := texservice.NewLocal(parts[1],
		texservice.WithShortFields("title", "author", "year"), texservice.WithMaxTerms(9))
	if err != nil {
		t.Fatal(err)
	}
	fed, err := shard.New([]texservice.Service{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if fed.MaxTerms() != 5 {
		t.Fatalf("federation term limit %d, want the smallest shard's 5", fed.MaxTerms())
	}
	spec := &Spec{Relation: limitRelation(t, 12),
		Preds: []Pred{{Column: "c0", Field: "title"}}}
	out, st, err := ProbeReduce(bg, spec, []string{"c0"}, fed, true)
	if err != nil {
		var tle *texservice.TermLimitError
		if errors.As(err, &tle) {
			t.Fatalf("TermLimitError surfaced despite batching: %v", err)
		}
		t.Fatal(err)
	}
	if out.Cardinality() != 12 {
		t.Errorf("kept %d tuples, want all 12", out.Cardinality())
	}
	if want := 3; st.Probes != want { // ⌈12/5⌉
		t.Errorf("%d round trips, want %d", st.Probes, want)
	}
}

// TestBatchProbeOversizeBindingFallsBack: a binding whose own conjunct
// cannot fit any batch is probed individually, exactly like per-tuple
// probing — same rows, same error behavior.
func TestBatchProbeOversizeBindingFallsBack(t *testing.T) {
	ix := textidx.NewIndex()
	ix.MustAdd(textidx.Document{ExtID: "d0", Fields: map[string]string{
		"title": "one two three four", "author": "x", "year": "1995"}})
	ix.MustAdd(textidx.Document{ExtID: "d1", Fields: map[string]string{
		"title": "five", "author": "x", "year": "1995"}})
	ix.Freeze()
	svc, err := texservice.NewLocal(ix,
		texservice.WithShortFields("title", "author", "year"),
		texservice.WithMaxTerms(3))
	if err != nil {
		t.Fatal(err)
	}
	tbl := relation.NewTable("r", relation.MustSchema(
		relation.Column{Name: "c0", Kind: value.KindString}))
	tbl.MustInsert(relation.Tuple{value.String("one two three four")}) // 4 terms > M
	tbl.MustInsert(relation.Tuple{value.String("five")})
	spec := &Spec{Relation: tbl, Preds: []Pred{{Column: "c0", Field: "title"}}}

	_, _, batchErr := ProbeReduce(bg, spec, []string{"c0"}, svc, true)
	_, _, plainErr := ProbeReduce(bg, spec, []string{"c0"}, svc, false)
	if (batchErr == nil) != (plainErr == nil) {
		t.Fatalf("batched err %v, per-tuple err %v — disciplines disagree", batchErr, plainErr)
	}
}

// TestBatchedMethodsAtTermBoundary: the full probing methods (not just the
// reducer) stay equivalent to the naive oracle when the probe set lands
// exactly on the term limit.
func TestBatchedMethodsAtTermBoundary(t *testing.T) {
	const m = 4
	ix := limitCorpus(t, 8)
	tbl := relation.NewTable("r", relation.MustSchema(
		relation.Column{Name: "c0", Kind: value.KindString},
		relation.Column{Name: "c1", Kind: value.KindString}))
	for i := 0; i < 8; i++ {
		w := fmt.Sprintf("w%02d", i)
		tbl.MustInsert(relation.Tuple{value.String(w), value.String(w)})
	}
	spec := &Spec{Relation: tbl, Preds: []Pred{
		{Column: "c0", Field: "title"}, {Column: "c1", Field: "author"}}}
	want, err := NaiveJoin(spec, ix)
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range []Method{
		PTS{ProbeColumns: []string{"c0"}, Batched: true},
		PRTP{ProbeColumns: []string{"c0"}, Batched: true},
	} {
		svc, err := texservice.NewLocal(ix,
			texservice.WithShortFields("title", "author", "year"),
			texservice.WithMaxTerms(m))
		if err != nil {
			t.Fatal(err)
		}
		res, err := mk.Execute(bg, spec, svc)
		if err != nil {
			t.Fatalf("%s: %v", mk.Name(), err)
		}
		if !SameRows(res.Table, want) {
			t.Errorf("%s: %d rows, naive %d rows", mk.Name(), res.Table.Cardinality(), want.Cardinality())
		}
		if res.Stats.BatchRounds == 0 {
			t.Errorf("%s: no batched round trips despite Batched", mk.Name())
		}
	}
}
