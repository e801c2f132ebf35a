package textidx

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// fuzzDocs is FuzzEval's fixed corpus: 48 documents over the fields and
// words the paper's Q1-Q4 searches name, drawn from a fixed seed. Titles
// are "<tag> <topic> <filler>", so topic phrases, repeated words and the
// unselective "text" all occur.
func fuzzDocs() []Document {
	rng := rand.New(rand.NewSource(5))
	topics := []string{"belief update", "text retrieval", "information filtering", "query optimization", "update belief"}
	filler := []string{"text", "text", "model", "systems", "belief", "data"}
	pick := func(ws []string) string { return ws[rng.Intn(len(ws))] }
	docs := make([]Document, 48)
	for i := range docs {
		authors := fmt.Sprintf("author%02d", rng.Intn(12))
		if rng.Intn(3) == 0 {
			authors += fmt.Sprintf(" author%02d", rng.Intn(12))
		}
		docs[i] = Document{ExtID: fmt.Sprintf("CSTR-%d", i), Fields: map[string]string{
			"title":    strings.Join([]string{fmt.Sprintf("tag%02d", rng.Intn(16)), pick(topics), pick(filler)}, " "),
			"author":   authors,
			"abstract": strings.Join([]string{pick(filler), pick(topics), pick(filler), pick(filler)}, " "),
			"year":     fmt.Sprint(1990 + rng.Intn(6)),
		}}
	}
	return docs
}

// FuzzEval: whatever Parse accepts, Eval over a fixed corpus returns the
// documents a MatchesDoc scan accepts, and the same documents and Postings
// charge as the reference evaluator. EvalFirst over the corpus's first n
// documents, on an index that is not frozen, answers and charges as Eval
// over a frozen index of those documents alone.
func FuzzEval(f *testing.F) {
	for i, q := range []string{
		"TI='belief update' and AU='author03'",                                     // Q1's substituted search (P+TS)
		"TI='text' and YR='1994' and AU='author07'",                                // Q2
		"YR='1995' and TI='tag04' and AU='author02'",                               // Q3
		"TI='query optimization' and AU='author01' and AU='author05'",              // Q4
		"TI='belief update' and (AU='author01' or AU='author02' or AU='author03')", // an SJ+RTP pack
		"TI='text' and not AU='author01'",
		"'update' near2 'belief' or AB='inform?'",
		"not TI='text retrieval' and not YR='1990'",
		"'information filtering' and (TI='text' or YR='1994')",
		"TI='update belief update' and AU='author04'",
	} {
		f.Add(q, uint8(5*i))
	}
	docs := fuzzDocs()
	grow := NewIndex()
	prefixes := make([]*Index, len(docs)+1) // prefixes[n]: the first n documents, frozen
	for n := range prefixes {
		prefixes[n] = NewIndex()
		for _, d := range docs[:n] {
			prefixes[n].MustAdd(d)
		}
		prefixes[n].Freeze()
		if n < len(docs) {
			grow.MustAdd(docs[n])
		}
	}
	ix := prefixes[len(docs)]
	f.Fuzz(func(t *testing.T, q string, n uint8) {
		e, err := Parse(q, MercuryAliases)
		if err != nil {
			return
		}
		if err := checkEval(ix, e); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if err := checkEvalFirst(grow, prefixes[int(n)%len(prefixes)], e); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
	})
}
