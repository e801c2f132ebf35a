package textidx

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// randomCorpus builds a small random corpus over a tiny vocabulary so terms
// collide frequently.
func randomCorpus(rng *rand.Rand, nDocs int) *Index {
	ix := NewIndex()
	for i := 0; i < nDocs; i++ {
		ix.MustAdd(randomDoc(rng))
	}
	ix.Freeze()
	return ix
}

// randomDoc draws one document of randomCorpus: a title and an author of
// 0-5 words each from the tiny vocabulary.
func randomDoc(rng *rand.Rand) Document {
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"}
	d := Document{Fields: map[string]string{}}
	for _, f := range []string{"title", "author"} {
		words := make([]string, rng.Intn(6))
		for j := range words {
			words[j] = vocab[rng.Intn(len(vocab))]
		}
		d.Fields[f] = strings.Join(words, " ")
	}
	return d
}

// randomExpr builds a random search expression of bounded depth: And and
// Or of 2-6 children, Not, and leaves of every kind, scoped to a field or
// unscoped. Words come from the corpus vocabulary plus "omega", which no
// document holds, so an And's docid-only children often come out empty
// beside positional children that would match on their own. Phrases have
// 1-3 words and often repeat one ("alpha alpha").
func randomExpr(rng *rand.Rand, depth int) Expr {
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "omega"}
	fields := []string{"title", "author", ""}
	word := func() string { return vocab[rng.Intn(len(vocab))] }
	field := func() string { return fields[rng.Intn(len(fields))] }
	children := func() []Expr {
		kids := make([]Expr, 2+rng.Intn(5))
		for i := range kids {
			kids[i] = randomExpr(rng, depth-1)
		}
		return kids
	}
	if depth > 0 {
		switch rng.Intn(4) {
		case 0:
			return And(children())
		case 1:
			return Or(children())
		case 2:
			return Not{E: randomExpr(rng, depth-1)}
		}
	}
	switch rng.Intn(4) {
	case 0:
		return Term{Field: field(), Word: word()}
	case 1:
		words := make([]string, 1+rng.Intn(3))
		for i := range words {
			if i > 0 && rng.Intn(3) == 0 {
				words[i] = words[i-1]
			} else {
				words[i] = word()
			}
		}
		return Phrase{Field: field(), Words: words}
	case 2:
		return Prefix{Field: field(), Stem: word()[:2]}
	default:
		return Near{Field: field(), A: word(), B: word(), Dist: 1 + rng.Intn(3)}
	}
}

// checkEval evaluates e over ix and holds the result to both oracles: the
// documents to a MatchesDoc scan, and the documents and the Postings
// charge to the reference evaluator.
func checkEval(ix *Index, e Expr) error {
	res, err := ix.Eval(e)
	if err != nil {
		return fmt.Errorf("Eval(%s): %v", e, err)
	}
	var scan []DocID
	for id := 0; id < ix.NumDocs(); id++ {
		d, _ := ix.Doc(DocID(id))
		if MatchesDoc(e, d) {
			scan = append(scan, DocID(id))
		}
	}
	if !sameIDs(res.Docs, scan) {
		return fmt.Errorf("%s\n  index: %v\n  scan:  %v", e, res.Docs, scan)
	}
	ref, err := ix.refEval(e)
	if err != nil {
		return fmt.Errorf("refEval(%s): %v", e, err)
	}
	if !sameIDs(res.Docs, ref.Docs) || res.Postings != ref.Postings {
		return fmt.Errorf("%s\n  index:     %v, %d postings\n  reference: %v, %d postings",
			e, res.Docs, res.Postings, ref.Docs, ref.Postings)
	}
	if !sort.SliceIsSorted(res.Docs, func(i, j int) bool { return res.Docs[i] < res.Docs[j] }) {
		return fmt.Errorf("%s: result not sorted: %v", e, res.Docs)
	}
	return nil
}

// TestIndexMatchesNaiveScan is the semantics property test: for random
// corpora and random Boolean expressions, index evaluation returns exactly
// the documents the per-document oracle accepts, and the same documents
// and charge as the reference evaluator.
func TestIndexMatchesNaiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 1000; trial++ {
		ix := randomCorpus(rng, 1+rng.Intn(30))
		if err := checkEval(ix, randomExpr(rng, rng.Intn(4))); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// checkEvalFirst holds EvalFirst(e, n) over grow, an index that may hold
// more than n documents and need not be frozen, to Eval(e) over prefix, a
// frozen index of grow's first n documents: the same documents and the
// same Postings charge.
func checkEvalFirst(grow, prefix *Index, e Expr) error {
	n := prefix.NumDocs()
	got, err := grow.EvalFirst(e, n)
	if err != nil {
		return fmt.Errorf("EvalFirst(%s, %d): %v", e, n, err)
	}
	want, err := prefix.Eval(e)
	if err != nil {
		return fmt.Errorf("Eval(%s): %v", e, err)
	}
	if !sameIDs(got.Docs, want.Docs) || got.Postings != want.Postings {
		return fmt.Errorf("%s over the first %d of %d documents\n  EvalFirst: %v, %d postings\n  Eval:      %v, %d postings",
			e, n, grow.NumDocs(), got.Docs, got.Postings, want.Docs, want.Postings)
	}
	return nil
}

// TestEvalFirstOnGrowingIndex is the property test of EvalFirst over an
// index that is still being added to: for random n and random
// expressions, it answers and charges as Eval over a frozen index of the
// first n documents, and the Adds that follow leave a second evaluation
// at the same n unchanged. A list cut that reads past n fails this once
// a later document holds a word the expression names.
func TestEvalFirstOnGrowingIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		grow := NewIndex()
		var docs []Document
		add := func(k int) {
			for i := 0; i < k; i++ {
				d := randomDoc(rng)
				docs = append(docs, d)
				grow.MustAdd(d)
			}
		}
		add(rng.Intn(20))
		for round := 0; round < 4; round++ {
			n := rng.Intn(len(docs) + 1)
			prefix := NewIndex()
			for _, d := range docs[:n] {
				prefix.MustAdd(d)
			}
			prefix.Freeze()
			e := randomExpr(rng, rng.Intn(4))
			if err := checkEvalFirst(grow, prefix, e); err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
			add(1 + rng.Intn(8))
			if err := checkEvalFirst(grow, prefix, e); err != nil {
				t.Fatalf("trial %d round %d, after more Adds: %v", trial, round, err)
			}
		}
	}
}

// TestEvalFirstBounds: n outside [0, NumDocs] is an error, not a panic.
func TestEvalFirstBounds(t *testing.T) {
	ix := NewIndex()
	ix.MustAdd(Document{Fields: map[string]string{"title": "alpha"}})
	for _, n := range []int{-1, 2} {
		if _, err := ix.EvalFirst(Term{Word: "alpha"}, n); err == nil {
			t.Errorf("EvalFirst over %d of 1 documents: no error", n)
		}
	}
}

// TestParsedQueriesMatchNaiveScan exercises the parser together with the
// evaluator on hand-written queries.
func TestParsedQueriesMatchNaiveScan(t *testing.T) {
	ix := sampleIndex(t)
	queries := []string{
		"TI='belief update'",
		"TI='update' and AU='garcia'",
		"TI='update' or AU='kao'",
		"not TI='update'",
		"AB='in?'",
		"AB='information' near3 'filtering'",
		"(TI='update' or TI='text') and not AU='garcia'",
	}
	for _, q := range queries {
		e, err := Parse(q, MercuryAliases)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		res, err := ix.Eval(e)
		if err != nil {
			t.Fatalf("Eval(%q): %v", q, err)
		}
		var want []DocID
		for id := 0; id < ix.NumDocs(); id++ {
			d, _ := ix.Doc(DocID(id))
			if MatchesDoc(e, d) {
				want = append(want, DocID(id))
			}
		}
		if !reflect.DeepEqual(res.Docs, want) {
			t.Errorf("%q: index %v, naive %v", q, res.Docs, want)
		}
	}
}

func TestSetOps(t *testing.T) {
	a := []DocID{1, 3, 5, 7}
	b := []DocID{3, 4, 5, 8}
	if got := intersectIDs(a, b); !reflect.DeepEqual(got, []DocID{3, 5}) {
		t.Errorf("intersect = %v", got)
	}
	if got := unionIDs(a, b); !reflect.DeepEqual(got, []DocID{1, 3, 4, 5, 7, 8}) {
		t.Errorf("union = %v", got)
	}
	if got := diffIDs(a, b); !reflect.DeepEqual(got, []DocID{1, 7}) {
		t.Errorf("diff = %v", got)
	}
	if got := intersectIDs(nil, b); len(got) != 0 {
		t.Errorf("intersect with empty = %v", got)
	}
	if got := unionIDs(nil, b); !reflect.DeepEqual(got, b) {
		t.Errorf("union with empty = %v", got)
	}
	if got := diffIDs(a, nil); !reflect.DeepEqual(got, a) {
		t.Errorf("diff with empty = %v", got)
	}
}

// TestSetOpsAgainstMaps validates the merges against map-based set
// arithmetic on random inputs.
func TestSetOpsAgainstMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randSet := func() []DocID {
		n := rng.Intn(20)
		seen := map[DocID]bool{}
		for i := 0; i < n; i++ {
			seen[DocID(rng.Intn(30))] = true
		}
		var out []DocID
		for id := range seen {
			out = append(out, id)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	toMap := func(s []DocID) map[DocID]bool {
		m := map[DocID]bool{}
		for _, id := range s {
			m[id] = true
		}
		return m
	}
	fromMap := func(m map[DocID]bool) []DocID {
		var out []DocID
		for id, ok := range m {
			if ok {
				out = append(out, id)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	for trial := 0; trial < 500; trial++ {
		a, b := randSet(), randSet()
		ma, mb := toMap(a), toMap(b)

		wantI := map[DocID]bool{}
		for id := range ma {
			if mb[id] {
				wantI[id] = true
			}
		}
		wantU := map[DocID]bool{}
		for id := range ma {
			wantU[id] = true
		}
		for id := range mb {
			wantU[id] = true
		}
		wantD := map[DocID]bool{}
		for id := range ma {
			if !mb[id] {
				wantD[id] = true
			}
		}
		if got := intersectIDs(a, b); !sameIDs(got, fromMap(wantI)) {
			t.Fatalf("intersect(%v, %v) = %v", a, b, got)
		}
		if got := unionIDs(a, b); !sameIDs(got, fromMap(wantU)) {
			t.Fatalf("union(%v, %v) = %v", a, b, got)
		}
		if got := diffIDs(a, b); !sameIDs(got, fromMap(wantD)) {
			t.Fatalf("diff(%v, %v) = %v", a, b, got)
		}
		c, d := randSet(), randSet()
		wantAll := map[DocID]bool{}
		for _, s := range [][]DocID{a, b, c, d} {
			for _, id := range s {
				wantAll[id] = true
			}
		}
		if got := unionAll([][]DocID{a, nil, b, c, d}); !sameIDs(got, fromMap(wantAll)) {
			t.Fatalf("unionAll(%v, %v, %v, %v) = %v", a, b, c, d, got)
		}
	}
}

func sameIDs(a, b []DocID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
