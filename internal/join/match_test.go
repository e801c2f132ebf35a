package join

import (
	"fmt"
	"math/rand"
	"strings"
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
func pairwiseMatches(spec *Spec, tuples []relation.Tuple, hits []texservice.Hit, preds []Pred) [][2]int {
	var out [][2]int
	for ti, tuple := range tuples {
	hits:
		for hi, hit := range hits {
			for _, p := range preds {
				if !textidx.TermOccursIn(tuple[spec.offset(p.Column)].Text(), hit.Fields[p.Field]) {
					continue hits
				}
			}
			out = append(out, [2]int{ti, hi})
		}
	}
	return out
}

// TestHitMatcherEquivalentToPairwise checks the build/probe matcher
// against the nested-loop reference on random hits and tuples: one-word
// and phrase values, words repeated within a field, punctuation, digits,
// non-ASCII letters and mixed case, empty and missing fields, values with
// no words, and 0–3 predicates including several on one field. The pairs
// must agree exactly, order included.
func TestHitMatcherEquivalentToPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1995))
	vocab := []string{"belief", "Update", "text", "x86", "1994", "café", "Straße",
		"ΩMEGA", "naïve", "kao", "gravano", "o'brien", "re-entry"}
	seps := []string{" ", "  ", ", ", "-", "!? ", " — ", "/"}
	fields := []string{"title", "author"}
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
	// from a hit field (so phrases match), sometimes nothing searchable.
	binding := func(hits []texservice.Hit) string {
		switch rng.Intn(8) {
		case 0:
			return []string{"", "--", "!! ?", " "}[rng.Intn(4)]
		case 1, 2:
			return words(2 + rng.Intn(2))
		case 3:
			if len(hits) > 0 {
				toks := textidx.Tokenize(hits[rng.Intn(len(hits))].Fields[fields[rng.Intn(len(fields))]])
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

	nonEmpty := 0
	for trial := 0; trial < 400; trial++ {
		hits := make([]texservice.Hit, rng.Intn(12))
		for h := range hits {
			hits[h] = texservice.Hit{ID: textidx.DocID(h), ExtID: fmt.Sprint("d", h), Fields: map[string]string{}}
			for _, f := range fields {
				switch rng.Intn(6) {
				case 0: // field missing
				case 1:
					hits[h].Fields[f] = []string{"", "...", "§"}[rng.Intn(3)]
				default:
					hits[h].Fields[f] = words(1 + rng.Intn(6))
				}
			}
		}

		schema := relation.MustSchema(
			relation.Column{Name: "c0", Kind: value.KindString},
			relation.Column{Name: "c1", Kind: value.KindString},
			relation.Column{Name: "c2", Kind: value.KindString},
		)
		tbl := relation.NewTable("r", schema)
		tuples := make([]relation.Tuple, rng.Intn(10))
		for i := range tuples {
			tuples[i] = relation.Tuple{value.String(binding(hits)), value.String(binding(hits)), value.String(binding(hits))}
			tbl.MustInsert(tuples[i])
		}
		spec := &Spec{Relation: tbl, Preds: []Pred{{Column: "c0", Field: "title"}}}
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		preds := make([]Pred, rng.Intn(4))
		for i := range preds {
			preds[i] = Pred{Column: schema.Cols[rng.Intn(3)].Name, Field: fields[rng.Intn(len(fields))]}
		}

		want := pairwiseMatches(spec, tuples, hits, preds)
		var got [][2]int
		m := newHitMatcher(spec, hits, preds)
		for ti, tuple := range tuples {
			for _, h := range m.match(tuple) {
				got = append(got, [2]int{ti, h})
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: preds %v\ntuples %v\nhits %v\nmatcher  %v\npairwise %v",
				trial, preds, tuples, hits, got, want)
		}
		if len(want) > 0 && len(preds) > 1 {
			nonEmpty++
		}
	}
	if nonEmpty < 20 {
		t.Fatalf("only %d conjunctive trials matched anything; the generator is too sparse", nonEmpty)
	}
}

// matchFixture builds an attribution workload the shape of one SJ+RTP
// batch: n tuples over (name, member), about a quarter of the names
// phrases, joined on name in title and member in author against h
// short-form hits, each hit built around one tuple's binding (as an OR
// search of the bindings returns) plus a random name and author.
func matchFixture(tb testing.TB, n, h int) (*Spec, []texservice.Hit) {
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
	hits := make([]texservice.Hit, h)
	for i := range hits {
		t := tbl.Rows[rng.Intn(n)]
		hits[i] = texservice.Hit{ID: textidx.DocID(i), ExtID: fmt.Sprint("d", i), Fields: map[string]string{
			"title":  fmt.Sprintf("Notes on %s and %s, revisited", t[0].Text(), name(rng.Intn(n))),
			"author": fmt.Sprintf("%s, author%d", t[1].Text(), rng.Intn(n)),
			"year":   "1994",
		}}
	}
	spec := &Spec{Relation: tbl, Preds: []Pred{
		{Column: "name", Field: "title"},
		{Column: "member", Field: "author"},
	}}
	if err := spec.Validate(); err != nil {
		tb.Fatal(err)
	}
	return spec, hits
}

// BenchmarkMatchHits measures relational attribution of h short-form hits
// to n tuples (matcher build, probe and emission). The committed
// before/after pair is BENCH_rtp.json.
func BenchmarkMatchHits(b *testing.B) {
	for _, size := range [][2]int{{64, 64}, {512, 128}, {2048, 256}} {
		spec, hits := matchFixture(b, size[0], size[1])
		rows := make([]int, size[0])
		for i := range rows {
			rows[i] = i
		}
		b.Run(fmt.Sprintf("tuples=%d/hits=%d", size[0], size[1]), func(b *testing.B) {
			ex := &execution{ctx: bg, spec: spec, out: relation.NewTable("r⋈text", spec.OutputSchema())}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ex.out.Rows = ex.out.Rows[:0]
				if err := ex.emitMatches(newHitMatcher(spec, hits, spec.Preds), rows); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(ex.out.Rows)), "rows")
		})
	}
}
