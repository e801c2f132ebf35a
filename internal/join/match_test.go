package join

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"textjoin/internal/relation"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
	"textjoin/internal/value"
)

// pairwiseMatches is the reference attribution: the tuples × hits nested
// loop testing every predicate with textidx.TermOccursIn, which
// re-tokenizes both sides per pair. It returns the matching (tuple, hit)
// index pairs in emission order.
func pairwiseMatches(spec *Spec, tuples []relation.Tuple, res *texservice.Result, preds []Pred) [][2]int {
	var out [][2]int
	for ti, tuple := range tuples {
	hits:
		for hi, hit := range res.Hits {
			for _, p := range preds {
				if !textidx.TermOccursIn(tuple[spec.offset(p.Column)].Text(), hit.Value(res.Column(p.Field))) {
					continue hits
				}
			}
			out = append(out, [2]int{ti, hi})
		}
	}
	return out
}

// matcherPairs runs a fresh matcher over res and returns its (tuple, hit)
// pairs in emission order.
func matcherPairs(spec *Spec, tuples []relation.Tuple, res *texservice.Result, preds []Pred) [][2]int {
	var got [][2]int
	m := newHitMatcher(spec, res, preds)
	for ti, tuple := range tuples {
		for _, h := range m.match(tuple) {
			got = append(got, [2]int{ti, int(h)})
		}
	}
	return got
}

// TestHitMatcherEquivalentToPairwise checks the build/probe matcher
// against the nested-loop reference on random results and tuples: one-word
// and phrase values, words repeated within a field, punctuation, digits,
// non-ASCII letters and mixed case, empty fields, values with no words,
// results that lack a predicate's field altogether (as a long-form union
// of uneven documents can, with "" in the documents that lack a field it
// has), and 0–3 predicates including several on one field. The pairs must
// agree exactly, order included.
//
// Every matcher over one result reads the result's shared token index, so
// each result serves several random tuple sets in turn and four at once,
// from four goroutines (on half the trials before any sequential use, so
// that the goroutines race to build the index).
func TestHitMatcherEquivalentToPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1995))
	vocab := []string{"belief", "Update", "text", "x86", "1994", "café", "Straße",
		"ΩMEGA", "naïve", "kao", "gravano", "o'brien", "re-entry"}
	seps := []string{" ", "  ", ", ", "-", "!? ", " — ", "/"}
	predFields := []string{"title", "author"}
	allFields := []string{"abstract", "author", "title"}
	words := func(n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			if i > 0 {
				sb.WriteString(seps[rng.Intn(len(seps))])
			}
			sb.WriteString(vocab[rng.Intn(len(vocab))])
		}
		return sb.String()
	}
	// binding draws a value: mostly one word or a phrase from the
	// vocabulary (so values repeat across tuples), sometimes a span cut
	// from a hit value (so phrases match), sometimes nothing searchable.
	binding := func(res *texservice.Result) string {
		switch rng.Intn(8) {
		case 0:
			return []string{"", "--", "!! ?", " "}[rng.Intn(4)]
		case 1, 2:
			return words(2 + rng.Intn(2))
		case 3:
			if len(res.Hits) > 0 && len(res.Fields) > 0 {
				hit := res.Hits[rng.Intn(len(res.Hits))]
				toks := textidx.Tokenize(hit.Values[rng.Intn(len(hit.Values))])
				if len(toks) > 0 {
					i := rng.Intn(len(toks))
					j := i + 1 + rng.Intn(len(toks)-i)
					return strings.ToUpper(strings.Join(toks[i:j], " "))
				}
			}
			return words(1)
		default:
			return words(1)
		}
	}
	schema := relation.MustSchema(
		relation.Column{Name: "c0", Kind: value.KindString},
		relation.Column{Name: "c1", Kind: value.KindString},
		relation.Column{Name: "c2", Kind: value.KindString},
	)
	// probe is one tuple set and predicate list over a result, with the
	// reference answer.
	type probe struct {
		spec   *Spec
		tuples []relation.Tuple
		preds  []Pred
		want   [][2]int
	}
	newProbe := func(res *texservice.Result) probe {
		tbl := relation.NewTable("r", schema)
		tuples := make([]relation.Tuple, rng.Intn(10))
		for i := range tuples {
			tuples[i] = relation.Tuple{value.String(binding(res)), value.String(binding(res)), value.String(binding(res))}
			tbl.MustInsert(tuples[i])
		}
		spec := &Spec{Relation: tbl, Preds: []Pred{{Column: "c0", Field: "title"}}}
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		preds := make([]Pred, rng.Intn(4))
		for i := range preds {
			preds[i] = Pred{Column: schema.Cols[rng.Intn(3)].Name, Field: predFields[rng.Intn(len(predFields))]}
		}
		return probe{spec, tuples, preds, pairwiseMatches(spec, tuples, res, preds)}
	}

	nonEmpty := 0
	for trial := 0; trial < 400; trial++ {
		// The result's fields: a random subset of allFields in a random
		// order, so a predicate's field may be missing from every hit.
		var fields []string
		for _, i := range rng.Perm(len(allFields)) {
			if rng.Intn(5) > 0 {
				fields = append(fields, allFields[i])
			}
		}
		res := &texservice.Result{Fields: fields, Hits: make([]texservice.Hit, rng.Intn(12))}
		for h := range res.Hits {
			vals := make([]string, len(fields))
			for f := range vals {
				switch rng.Intn(6) {
				case 0: // the document lacks this field of the union
				case 1:
					vals[f] = []string{"...", "§", " "}[rng.Intn(3)]
				default:
					vals[f] = words(1 + rng.Intn(6))
				}
			}
			res.Hits[h] = texservice.Hit{ID: textidx.DocID(h), ExtID: fmt.Sprint("d", h), Values: vals}
		}

		check := func(phase string, p probe) {
			if got := matcherPairs(p.spec, p.tuples, res, p.preds); fmt.Sprint(got) != fmt.Sprint(p.want) {
				t.Errorf("trial %d (%s): fields %v preds %v\ntuples %v\nhits %v\nmatcher  %v\npairwise %v",
					trial, phase, fields, p.preds, p.tuples, res.Hits, got, p.want)
			}
		}
		concurrent := func() {
			probes := make([]probe, 4)
			for i := range probes {
				probes[i] = newProbe(res)
			}
			var wg sync.WaitGroup
			for _, p := range probes {
				wg.Add(1)
				go func() {
					defer wg.Done()
					check("concurrent", p)
				}()
			}
			wg.Wait()
		}
		if trial%2 == 0 {
			concurrent()
		}
		for round := 0; round < 3; round++ {
			p := newProbe(res)
			check(fmt.Sprint("round ", round), p)
			if len(p.want) > 0 && len(p.preds) > 1 {
				nonEmpty++
			}
		}
		if trial%2 == 1 {
			concurrent()
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	if nonEmpty < 60 {
		t.Fatalf("only %d conjunctive probes matched anything; the generator is too sparse", nonEmpty)
	}
}

// matchFixture builds an attribution workload the shape of one SJ+RTP
// batch: n tuples over (name, member), about a quarter of the names
// phrases, joined on name in title and member in author against h
// short-form hits, each hit built around one tuple's binding (as an OR
// search of the bindings returns) plus a random name and author.
func matchFixture(tb testing.TB, n, h int) (*Spec, *texservice.Result) {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(n*7919 + h)))
	name := func(i int) string {
		if i%4 == 0 {
			return fmt.Sprintf("belief update %d", i)
		}
		return fmt.Sprintf("proj%d", i)
	}
	tbl := relation.NewTable("r", relation.MustSchema(
		relation.Column{Name: "name", Kind: value.KindString},
		relation.Column{Name: "member", Kind: value.KindString},
	))
	for i := 0; i < n; i++ {
		tbl.MustInsert(relation.Tuple{value.String(name(rng.Intn(n))), value.String(fmt.Sprintf("author%d", rng.Intn(n)))})
	}
	res := &texservice.Result{Fields: []string{"author", "title", "year"}, Hits: make([]texservice.Hit, h)}
	for i := range res.Hits {
		t := tbl.Rows[rng.Intn(n)]
		title := fmt.Sprintf("Notes on %s and %s, revisited", t[0].Text(), name(rng.Intn(n)))
		author := fmt.Sprintf("%s, author%d", t[1].Text(), rng.Intn(n))
		res.Hits[i] = texservice.Hit{ID: textidx.DocID(i), ExtID: fmt.Sprint("d", i), Values: []string{author, title, "1994"}}
	}
	spec := &Spec{Relation: tbl, Preds: []Pred{
		{Column: "name", Field: "title"},
		{Column: "member", Field: "author"},
	}}
	if err := spec.Validate(); err != nil {
		tb.Fatal(err)
	}
	return spec, res
}

// BenchmarkMatchHits measures relational attribution of h short-form hits
// to n tuples (probe and emission). The tuples=/hits= cases match a new
// result every iteration, so they include building its token index, as a
// search the caches have not seen does. match/shared_result matches 64
// tuples against one 4 000-hit result over and over, as the queries a
// cached result answers do: after the first iteration the index is
// built. The committed before/after pair is BENCH_rtp.json.
func BenchmarkMatchHits(b *testing.B) {
	run := func(b *testing.B, spec *Spec, next func() *texservice.Result) {
		rows := make([]int, spec.Relation.Cardinality())
		for i := range rows {
			rows[i] = i
		}
		ex := &execution{ctx: bg, spec: spec, out: relation.NewTable("r⋈text", spec.OutputSchema())}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ex.out.Rows = ex.out.Rows[:0]
			if err := ex.emitMatches(newHitMatcher(spec, next(), spec.Preds), rows); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(ex.out.Rows)), "rows")
	}
	for _, size := range [][2]int{{64, 64}, {512, 128}, {2048, 256}} {
		spec, res := matchFixture(b, size[0], size[1])
		b.Run(fmt.Sprintf("tuples=%d/hits=%d", size[0], size[1]), func(b *testing.B) {
			run(b, spec, func() *texservice.Result { return &texservice.Result{Fields: res.Fields, Hits: res.Hits} })
		})
	}
	spec, res := matchFixture(b, 64, 4000)
	b.Run("shared_result", func(b *testing.B) {
		run(b, spec, func() *texservice.Result { return res })
	})
}

// TestRTPAllocsIndependentOfCachedHits: once a search result is cached,
// an RTP join against it reads the result's token index instead of
// tokenizing its hits again, so matching the same 64 tuples against a
// cached 1 000-hit and a cached 8 000-hit result allocates the same. Each
// tuple matches one document, in both results.
func TestRTPAllocsIndependentOfCachedHits(t *testing.T) {
	ix := textidx.NewIndex()
	for i := 0; i < 8000; i++ {
		title, author := "common", fmt.Sprintf("other%04d", i)
		if i < 1000 {
			title = "common small"
		}
		if i < 64 {
			author = fmt.Sprintf("member%02d", i)
		}
		ix.MustAdd(textidx.Document{ExtID: fmt.Sprint("d", i), Fields: map[string]string{"title": title, "author": author}})
	}
	ix.Freeze()
	local, err := texservice.NewLocal(ix, texservice.WithShortFields("title", "author"))
	if err != nil {
		t.Fatal(err)
	}
	svc := texservice.NewCached(local, 4)
	tbl := relation.NewTable("r", relation.MustSchema(relation.Column{Name: "name", Kind: value.KindString}))
	for i := 0; i < 64; i++ {
		tbl.MustInsert(relation.Tuple{value.String(fmt.Sprintf("member%02d", i))})
	}
	allocs := map[string]float64{}
	for _, sel := range []string{"small", "common"} {
		spec := &Spec{Relation: tbl, Preds: []Pred{{Column: "name", Field: "author"}},
			TextSel: textidx.Term{Field: "title", Word: sel}}
		run := func() {
			res, err := RTP{}.Execute(bg, spec, svc)
			if err != nil {
				t.Fatal(err)
			}
			if n := res.Table.Cardinality(); n != 64 {
				t.Fatalf("selection %q: %d rows, want 64", sel, n)
			}
		}
		run() // fills the cache and builds the author index
		allocs[sel] = testing.AllocsPerRun(10, run)
	}
	small, large := allocs["small"], allocs["common"]
	if large != small {
		t.Fatalf("allocations per run grow with the cached result: %.0f against 1 000 hits, %.0f against 8 000", small, large)
	}
	t.Logf("allocations per run: %.0f against 1 000 and 8 000 cached hits", small)
}
