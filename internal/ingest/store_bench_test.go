package ingest_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"textjoin/internal/ingest"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
	"textjoin/internal/workload"
)

// BenchmarkStoreSearch measures a search of a store's view (View.Eval,
// then View.Doc for every hit) over an 8 000-document base (the
// mixed_ingest corpus size) with 0, 512 and 2 048 delta documents shaped
// like the mixed_ingest writer's puts: a batch-unique author beside a
// corpus author, a topic title and a repeated abstract, 16 puts to a
// batch. The searches are an Or of 64 authors (an SJ+RTP pack: 62 names
// no document holds, one base author and one delta author), a topic
// phrase, a title prefix, and a topic term and not a year.
// BENCH_ingest.json records a before/after pair.
func BenchmarkStoreSearch(b *testing.B) {
	c := workload.NewCorpus(workload.CorpusConfig{Docs: 8000})
	topic := textidx.Tokenize(c.Topics[0])
	pack := make(textidx.Or, 64)
	for i := range pack {
		pack[i] = textidx.Term{Field: "author", Word: fmt.Sprintf("zzzname%02d", i)}
	}
	pack[20] = textidx.Term{Field: "author", Word: c.Authors[20]}
	pack[40] = textidx.Term{Field: "author", Word: "liveauthor00003"}
	cases := []struct {
		name string
		e    textidx.Expr
	}{
		{"or64", pack},
		{"phrase", textidx.Phrase{Field: "title", Words: topic}},
		{"prefix", textidx.Prefix{Field: "title", Stem: topic[0][:3]}},
		{"not", textidx.And{textidx.Term{Field: "title", Word: topic[0]}, textidx.Not{E: textidx.Term{Field: "year", Word: c.Years[0]}}}},
	}
	for _, delta := range []int{0, 512, 2048} {
		s, err := ingest.Open(c.Index, ingest.Options{CompactThreshold: -1})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		for batch := 0; batch*16 < delta; batch++ {
			ops := make([]texservice.IngestOp, 16)
			for k := range ops {
				ops[k] = texservice.IngestOp{
					Kind:  texservice.IngestPut,
					ExtID: fmt.Sprintf("LIVE-%05d-%02d", batch, k),
					Fields: map[string]string{
						"title":    fmt.Sprintf("live%05d %s report", batch, c.Topics[rng.Intn(len(c.Topics))]),
						"author":   fmt.Sprintf("liveauthor%05d %s", batch, c.Authors[rng.Intn(len(c.Authors))]),
						"abstract": strings.Repeat("ingested text ", 6),
						"year":     c.Years[rng.Intn(len(c.Years))],
					},
				}
			}
			if _, err := s.Apply(context.Background(), ops); err != nil {
				b.Fatal(err)
			}
		}
		v := s.CurrentView()
		for _, tc := range cases {
			b.Run(fmt.Sprintf("delta%d/%s", delta, tc.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := v.Eval(tc.e)
					if err != nil {
						b.Fatal(err)
					}
					for _, id := range res.Docs {
						if _, err := v.Doc(id); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
