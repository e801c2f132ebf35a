package workload

import (
	"fmt"
	"math/rand"

	"textjoin/internal/relation"
	"textjoin/internal/value"
)

// Repeated is the repeated-shape serving workload — the repository
// benchmark's warm_repeat at a chosen size: a fact table whose name
// column cycles through 64 values (one of them a real corpus author, so
// results stay small), a dim table an eighth its size that gives the hash
// join a fanout of 8, and four SQL shapes whose relational selection is a
// range over the unique fact.id. Nothing but the table sizes changes with
// the row count, which is what makes it the yardstick for optimize cost
// as a function of cardinality.
type Repeated struct {
	Corpus    *Corpus
	Fact, Dim *relation.Table
	// Queries are the four shapes: scan+filter then text join, the same
	// with a text selection, then both again under the hash join.
	Queries []string
}

const repeatedNames = 64

// NewRepeated builds the workload with the given number of fact rows (a
// multiple of 64) over a 2 000-document corpus.
func NewRepeated(factRows int, seed int64) *Repeated {
	corpus := NewCorpus(CorpusConfig{Docs: 2000, Seed: seed})
	rng := rand.New(rand.NewSource(seed + 1))
	names := make([]string, repeatedNames)
	for i := range names {
		names[i] = fmt.Sprintf("zzzname%02d", i)
	}
	names[rng.Intn(len(names))] = corpus.Authors[rng.Intn(len(corpus.Authors))]

	dimRows, groups := factRows/8, factRows/repeatedNames
	table := func(name string, rows int, grpOf func(i int) int) *relation.Table {
		t := relation.NewTable(name, relation.MustSchema(
			relation.Column{Name: "id", Kind: value.KindInt},
			relation.Column{Name: "grp", Kind: value.KindString},
			relation.Column{Name: "name", Kind: value.KindString},
			relation.Column{Name: "pad", Kind: value.KindString},
		))
		for i := 0; i < rows; i++ {
			t.MustInsert(relation.Tuple{
				value.Int(int64(i)),
				value.String(fmt.Sprintf("g%d", grpOf(i))),
				value.String(names[i%len(names)]),
				value.String("padding payload column"),
			})
		}
		return t
	}
	r := &Repeated{
		Corpus: corpus,
		// fact: grp advances once per cycle of names, so every name x grp
		// pair occurs equally often; dim: 8 rows per group.
		Fact: table("fact", factRows, func(i int) int { return i / repeatedNames % groups }),
		Dim:  table("dim", dimRows, func(i int) int { return i % groups }),
	}
	lo, hi, year := factRows/2, factRows, corpus.Years[0]
	r.Queries = []string{
		fmt.Sprintf(`select fact.id, mercury.docid from fact, mercury where fact.id > %d and fact.id < %d and fact.name in mercury.author`, lo, hi),
		fmt.Sprintf(`select fact.id, mercury.docid from fact, mercury where fact.id > %d and fact.id < %d and '%s' in mercury.year and fact.name in mercury.author`, lo, hi, year),
		fmt.Sprintf(`select fact.id, mercury.docid from fact, dim, mercury where fact.grp = dim.grp and fact.id > %d and fact.id < %d and fact.name in mercury.author`, lo, hi),
		fmt.Sprintf(`select fact.id, dim.id, mercury.docid from fact, dim, mercury where fact.grp = dim.grp and fact.id > %d and fact.id < %d and dim.id < %d and '%s' in mercury.year and fact.name in mercury.author`, lo, hi, dimRows/2, year),
	}
	return r
}
