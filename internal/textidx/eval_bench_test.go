package textidx_test

import (
	"testing"

	"textjoin/internal/textidx"
	"textjoin/internal/workload"
)

// BenchmarkEval measures Eval over the 20 000-document cold corpus on the
// shapes cold queries send. "query optimization" is a weight-100 topic,
// so its phrase list holds about a fifth of the corpus; an author holds
// two documents. BENCH_textidx.json records a before/after pair.
func BenchmarkEval(b *testing.B) {
	c := workload.NewCorpus(workload.CorpusConfig{Docs: 20000})
	hot := textidx.Phrase{Field: "title", Words: []string{"query", "optimization"}}
	pack := make(textidx.Or, 35)
	for i := range pack {
		pack[i] = textidx.Term{Field: "author", Word: c.Authors[7*i]}
	}
	cases := []struct {
		name string
		e    textidx.Expr
	}{
		{"term", textidx.Term{Field: "title", Word: "text"}},
		{"hot_phrase", hot},
		{"hot_phrase_and_author", textidx.And{hot, textidx.Term{Field: "author", Word: c.Authors[3]}}},
		{"hot_phrase_and_or35", textidx.And{hot, pack}},
		{"not", textidx.And{hot, textidx.Not{E: textidx.Term{Field: "year", Word: "1994"}}}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Index.Eval(tc.e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
