package ingest_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"textjoin/internal/ingest"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
	"textjoin/internal/workload"
)

// TestLiveEqualsLocal: Live is texservice.Local over a store's views, so
// over a store with an empty delta it answers, charges and describes
// itself exactly as NewLocal over the same frozen index does, and after
// random puts and deletes folded by Compact exactly as NewLocal over the
// snapshot the store persisted (the oracle of the benchmark's
// mixed_ingest gate).
func TestLiveEqualsLocal(t *testing.T) {
	ctx := context.Background()
	c := workload.NewCorpus(workload.CorpusConfig{Docs: 400, Seed: 3})
	topic := textidx.Tokenize(c.Topics[0])
	authors := make(textidx.Or, 6)
	for i := range authors {
		authors[i] = textidx.Term{Field: "author", Word: c.Authors[i*7]}
	}
	// Every expression needs a document with a word to match: a compacted
	// snapshot keeps deleted docids as empty placeholders, which a bare Not
	// would match on the frozen index and Live hides.
	exprs := []textidx.Expr{
		textidx.Term{Field: "title", Word: topic[0]},
		textidx.Phrase{Field: "title", Words: topic},
		textidx.Prefix{Field: "title", Stem: topic[0][:3]},
		authors,
		textidx.And{textidx.Term{Field: "title", Word: topic[0]}, textidx.Not{E: textidx.Term{Field: "year", Word: c.Years[0]}}},
		textidx.Near{Field: "title", A: topic[0], B: topic[1], Dist: 3},
		textidx.Term{Field: "author", Word: "liveauthor"},
		textidx.Term{Field: "title", Word: "absent"},
	}
	freqs := [][2]string{
		{"title", topic[0]}, {"title", c.Topics[1]}, {"author", c.Authors[3]},
		{"author", "liveauthor"}, {"title", "live report"}, {"year", c.Years[1]}, {"title", "absent"},
	}
	opts := []texservice.LocalOption{texservice.WithShortFields("title", "author"), texservice.WithMaxTerms(12)}

	dir := t.TempDir()
	store, err := ingest.Open(c.Index, ingest.Options{Dir: dir, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	live := ingest.NewLive(store, opts...)
	local, err := texservice.NewLocal(c.Index, opts...)
	if err != nil {
		t.Fatal(err)
	}
	checkSame(t, "empty delta", live, local, exprs, freqs)
	if n, _ := live.NumDocs(); n != c.Index.NumDocs() {
		t.Fatalf("empty delta: Live NumDocs = %d, the index holds %d", n, c.Index.NumDocs())
	}

	rng := rand.New(rand.NewSource(5))
	for b := 0; b < 40; b++ {
		ops := make([]texservice.IngestOp, 8)
		for k := range ops {
			switch r := rng.Intn(10); {
			case r < 3: // delete a base or an earlier live document
				ext := fmt.Sprintf("LIVE-%d", rng.Intn(b*8+1))
				if r == 0 {
					doc, _ := c.Index.Doc(textidx.DocID(rng.Intn(c.Docs)))
					ext = doc.ExtID
				}
				ops[k] = texservice.IngestOp{Kind: texservice.IngestDelete, ExtID: ext}
			default: // put a new document or replace an earlier one
				ops[k] = texservice.IngestOp{Kind: texservice.IngestPut, ExtID: fmt.Sprintf("LIVE-%d", rng.Intn(b*8+8)),
					Fields: map[string]string{
						"title":  fmt.Sprintf("live report on %s", c.Topics[rng.Intn(len(c.Topics))]),
						"author": fmt.Sprintf("liveauthor %s", c.Authors[rng.Intn(len(c.Authors))]),
						"year":   c.Years[rng.Intn(len(c.Years))],
					}}
			}
		}
		if _, err := live.Ingest(ctx, ops); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	man, ok, err := ingest.LoadManifest(dir)
	if err != nil || !ok || man.Seq != store.Version() {
		t.Fatalf("manifest %+v, %v, %v; want one at version %d", man, ok, err, store.Version())
	}
	snap, err := textidx.LoadFile(filepath.Join(dir, man.Snapshot))
	if err != nil {
		t.Fatal(err)
	}
	local, err = texservice.NewLocal(snap, opts...)
	if err != nil {
		t.Fatal(err)
	}
	checkSame(t, "compacted", live, local, exprs, freqs)
	visible := 0
	for id := 0; id < snap.NumDocs(); id++ {
		if doc, _ := snap.Doc(textidx.DocID(id)); doc.ExtID != "" {
			visible++
		}
	}
	if n, _ := live.NumDocs(); n != visible {
		t.Fatalf("compacted: Live NumDocs = %d, the snapshot holds %d documents besides placeholders", n, visible)
	}
}

// checkSame runs the same calls against both services, in the same order,
// and requires equal answers, errors and meter usage.
func checkSame(t *testing.T, step string, live *ingest.Live, local *texservice.Local, exprs []textidx.Expr, freqs [][2]string) {
	t.Helper()
	ctx := context.Background()
	same := func(what string, a, b any) {
		t.Helper()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: %s: Live %+v, Local %+v", step, what, a, b)
		}
		if lu, ou := live.Meter().Snapshot(), local.Meter().Snapshot(); lu != ou {
			t.Fatalf("%s: after %s: Live usage %+v, Local usage %+v", step, what, lu, ou)
		}
	}
	live.Meter().Reset()
	local.Meter().Reset()
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for _, form := range []texservice.Form{texservice.FormShort, texservice.FormLong} {
		for _, e := range exprs {
			lr, lerr := live.Search(ctx, e, form)
			or, oerr := local.Search(ctx, e, form)
			same(fmt.Sprintf("Search(%s, %s)", e, form), []any{lr, errText(lerr)}, []any{or, errText(oerr)})
			if lerr != nil {
				continue
			}
			for _, h := range lr.Hits {
				ld, lerr := live.Retrieve(ctx, h.ID)
				od, oerr := local.Retrieve(ctx, h.ID)
				same(fmt.Sprintf("Retrieve(%d)", h.ID), []any{ld, errText(lerr)}, []any{od, errText(oerr)})
			}
		}
		// The first batch fits the term limit, the whole list does not.
		for _, batch := range [][]textidx.Expr{exprs[:3], exprs} {
			lr, lerr := live.BatchSearch(ctx, batch, form)
			or, oerr := local.BatchSearch(ctx, batch, form)
			same(fmt.Sprintf("BatchSearch(%d exprs, %s)", len(batch), form), []any{lr, errText(lerr)}, []any{or, errText(oerr)})
		}
	}
	absent := textidx.DocID(1 << 20)
	_, lerr := live.Retrieve(ctx, absent)
	_, oerr := local.Retrieve(ctx, absent)
	if lerr == nil || errText(lerr) != errText(oerr) {
		t.Fatalf("%s: Retrieve of an absent id: Live %v, Local %v", step, lerr, oerr)
	}
	for _, f := range freqs {
		ln, lerr := live.TermDocFrequency(ctx, f[0], f[1])
		on, oerr := local.TermDocFrequency(ctx, f[0], f[1])
		same(fmt.Sprintf("TermDocFrequency(%s, %q)", f[0], f[1]), []any{ln, lerr}, []any{on, oerr})
	}
	same("MaxTerms", live.MaxTerms(), local.MaxTerms())
	same("ShortFields", live.ShortFields(), local.ShortFields())
	if u := live.Meter().Snapshot(); u.Searches == 0 || u.Retrieves == 0 {
		t.Fatalf("%s: the calls charged %+v; the comparison saw no work", step, u)
	}
}
