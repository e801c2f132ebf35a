package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"textjoin/internal/relation"
	"textjoin/internal/texservice"
	"textjoin/internal/value"
	"textjoin/internal/workload"
)

// spec is one benchmark workload: how its data is generated from the
// seed, what serves the text source, and the query stream the clients
// draw from. The sizes are part of the benchmark's definition and the
// same on every commit.
type spec struct {
	name string
	why  string
	kind textKind
	// data generates the corpus and tables from the seed.
	data func(sz sizes, seed int64) (*dataset, error)
	// queries returns the seeded query stream over ds, and how many of
	// its queries the warm-up runs.
	queries func(sz sizes, ds *dataset, seed int64) (s *stream, warmup int)
	// writer is set for the workload with a paced ingest writer.
	writer bool
}

// repeated sizes the dataset of the repeated-shape workloads.
type repeated struct {
	docs     int // corpus
	factRows int
	dimRows  int
	grpDom   int // dim rows per group = dimRows/grpDom = 8, the hash-join fanout
	namePool int // distinct text-join bindings
	vals     int // values of the numeric constant per SQL shape
}

// sizes are the data and schedule sizes of the workloads. They are part
// of the benchmark's definition: fullSizes is the same on every commit,
// and tinySizes exists only so `go test` can run every workload's code
// path in a few seconds.
type sizes struct {
	warm repeated // warm_repeat
	// mixed_ingest: smaller tables than warm_repeat's, so that the one
	// reader a 2-core box leaves beside the writer completes well over
	// 1 000 queries in the measured phase.
	live repeated

	coldDocs    int // cold_* corpus
	studentRows int
	projectRows int
	coldSelect  int // the relational selection keeps 1/coldSelect of a relation
	coldNames   int // distinct join values per relation
	coldWarmup  int // warm-up queries before the measured phase

	ingestBatchOps int
	compactEvery   int // ingest.Options.CompactThreshold
	rywRows        int // batches the read-your-writes table can name
}

var fullSizes = sizes{
	warm:     repeated{docs: 2000, factRows: 16384, dimRows: 2048, grpDom: 256, namePool: 64, vals: 8},
	live:     repeated{docs: 8000, factRows: 4096, dimRows: 512, grpDom: 64, namePool: 64, vals: 8},
	coldDocs: 20000, studentRows: 4096, projectRows: 2048, coldSelect: 64, coldNames: 2048, coldWarmup: 64,
	ingestBatchOps: 16, compactEvery: 2048, rywRows: 4096,
}

var tinySizes = sizes{
	warm:     repeated{docs: 400, factRows: 512, dimRows: 128, grpDom: 16, namePool: 16, vals: 2},
	live:     repeated{docs: 400, factRows: 512, dimRows: 128, grpDom: 16, namePool: 16, vals: 2},
	coldDocs: 1200, studentRows: 256, projectRows: 128, coldSelect: 8, coldNames: 128, coldWarmup: 8,
	ingestBatchOps: 16, compactEvery: 64, rywRows: 512,
}

const (
	ingestEvery     = 8  // an ingest batch falls due after this many completed queries
	ingestDeleteOne = 8  // one ingest op in this many is a delete
	liveSlots       = 64 // batches before the puts' external ids repeat
	rywEvery        = 16 // every this-many-th ack is followed by a read-your-writes query
)

var specs = []spec{
	{
		name:    "warm_repeat",
		why:     "32 repeated SQL texts over 64 bindings, every search a cache hit: parse, optimize and relational exec do all the work",
		kind:    textLocal,
		data:    func(sz sizes, seed int64) (*dataset, error) { return warmData(sz.warm, seed, 0) },
		queries: func(sz sizes, ds *dataset, _ int64) (*stream, int) { return warmQueries(sz.warm, ds) },
	},
	{
		name:    "cold_local",
		why:     "Q1-Q4 shapes with seeded constants, nearly every search new to the 256-entry caches: join methods and textidx dominate",
		kind:    textLocal,
		data:    coldData,
		queries: coldQueries,
	},
	{
		name:    "cold_fleet",
		why:     "cold_local's stream against 2 partitions x 2 replicas over loopback TCP: adds wire JSON, scatter merge, replica routing",
		kind:    textFleet,
		data:    coldData,
		queries: coldQueries,
	},
	{
		name:    "mixed_ingest",
		why:     "repeated shapes on a live WAL-backed index while a writer invalidates the caches after every 8th query, about 20 times a second",
		kind:    textLive,
		data:    func(sz sizes, seed int64) (*dataset, error) { return warmData(sz.live, seed, sz.rywRows) },
		queries: func(sz sizes, ds *dataset, _ int64) (*stream, int) { return warmQueries(sz.live, ds) },
		writer:  true,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// stream hands out queries in a deterministic order: query i is a
// function of the seed and i alone, whichever client draws it.
type stream struct {
	mu  sync.Mutex
	rng *rand.Rand // nil when gen draws nothing
	n   int
	gen func(rng *rand.Rand, i int) string
	// narrow generates the i-th query of the correctness sample: the same
	// shapes with constants that keep exec.NaiveQuery's cross products
	// small. Nil when the stream's own queries are already narrow.
	narrow func(rng *rand.Rand, i int) string
}

func (s *stream) next() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.gen(s.rng, s.n)
	s.n++
	return q
}

// sample returns n queries for the correctness gate, drawn from an
// independent seeded generator so the measured stream is not advanced.
func (s *stream) sample(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed5a3b1e))
	gen := s.narrow
	if gen == nil {
		gen = s.gen
	}
	out := make([]string, n)
	for i := range out {
		out[i] = gen(rng, i)
	}
	return out
}

// benchTable builds a fact/dim-style table with no randomness in it, so
// that every seed's queries select and join the same number of rows: id
// counts up, name cycles through names, and grp is grpOf(id).
func benchTable(name string, rows int, names []string, grpOf func(i int) int) *relation.Table {
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

// warmData is the repeated-shape dataset (PR 7's gateway point): a fact
// table whose name column takes namePool distinct values, one of them a
// real corpus author (drawn by the seed) so results stay small, and a dim
// table giving the hash join a fanout of 8. With rywRows it adds the
// table the read-your-writes queries select from.
func warmData(rs repeated, seed int64, rywRows int) (*dataset, error) {
	corpus := workload.NewCorpus(workload.CorpusConfig{Docs: rs.docs, Seed: seed})
	rng := rand.New(rand.NewSource(seed + 1))
	names := make([]string, rs.namePool)
	for i := range names {
		names[i] = fmt.Sprintf("zzzname%02d", i)
	}
	names[rng.Intn(len(names))] = corpus.Authors[rng.Intn(len(corpus.Authors))]
	ds := &dataset{corpus: corpus, tables: []*relation.Table{
		// fact: grp advances once per cycle of names, so every name x grp
		// pair occurs equally often; dim: dimRows/grpDom rows per group.
		benchTable("fact", rs.factRows, names, func(i int) int { return i / len(names) % rs.grpDom }),
		benchTable("dim", rs.dimRows, names, func(i int) int { return i % rs.grpDom }),
	}}
	if rywRows > 0 {
		rw := relation.NewTable("rw", relation.MustSchema(
			relation.Column{Name: "b", Kind: value.KindInt},
			relation.Column{Name: "name", Kind: value.KindString},
		))
		for b := 0; b < rywRows; b++ {
			rw.MustInsert(relation.Tuple{value.Int(int64(b)), value.String(batchAuthor(b))})
		}
		ds.tables = append(ds.tables, rw)
	}
	return ds, nil
}

// The four repeated SQL shapes: scan+filter then text join, the same
// with a text selection, then both again under the fanout-8 hash join.
// %[1]d and %[2]d bound fact.id, %[3]d is half the dim table, %[4]s a
// year (every author has exactly one document per year, so the
// selection's effect does not depend on the seed).
var warmShapes = []string{
	`select fact.id, mercury.docid from fact, mercury where fact.id > %[1]d and fact.id < %[2]d and fact.name in mercury.author`,
	`select fact.id, mercury.docid from fact, mercury where fact.id > %[1]d and fact.id < %[2]d and '%[4]s' in mercury.year and fact.name in mercury.author`,
	`select fact.id, mercury.docid from fact, dim, mercury where fact.grp = dim.grp and fact.id > %[1]d and fact.id < %[2]d and fact.name in mercury.author`,
	`select fact.id, dim.id, mercury.docid from fact, dim, mercury where fact.grp = dim.grp and fact.id > %[1]d and fact.id < %[2]d and dim.id < %[3]d and '%[4]s' in mercury.year and fact.name in mercury.author`,
}

// warmQueries cycles through the shapes x values SQL texts, shape by
// shape then value by value; the warm-up runs each once. The order is
// fixed, not seeded, so that on mixed_ingest every run of eight queries
// between two invalidations holds the same shapes. The measured bounds
// select the top half to quarter of fact (the upper bound excludes
// nothing). The correctness sample's select an 8-row window around a row
// that carries the real author, because exec.NaiveQuery matches every
// joined tuple against every document.
func warmQueries(rs repeated, ds *dataset) (*stream, int) {
	years := ds.corpus.Years
	step := rs.factRows / 4 / rs.vals
	var texts []string
	for v := 0; v < rs.vals; v++ {
		for _, shape := range warmShapes {
			texts = append(texts, fmt.Sprintf(shape, rs.factRows/2+v*step, rs.factRows, rs.dimRows/2, years[v%len(years)]))
		}
	}
	var realRows []int
	for i, row := range ds.tables[0].Rows {
		if !strings.HasPrefix(row[2].Text(), "zzzname") {
			realRows = append(realRows, i)
		}
	}
	return &stream{
		gen: func(_ *rand.Rand, i int) string { return texts[i%len(texts)] },
		narrow: func(rng *rand.Rand, i int) string {
			lo := realRows[rng.Intn(len(realRows))] - 1 - rng.Intn(8)
			return fmt.Sprintf(warmShapes[i%len(warmShapes)], lo, lo+9, rs.dimRows/2, years[rng.Intn(len(years))])
		},
	}, len(texts)
}

// coldData is the paper-shaped dataset: a 20 000-document corpus and the
// student and project relations, about 2k distinct join values each.
// workload.BuildRelation generates the first join column (half its
// values occur in the corpus). The second join column is derived from
// the first so that the two-predicate shapes have answers, as the paper's
// Q3 and Q4 do: in the generated corpus tag i titles the documents of
// author i, and author i writes with author i+1. Column k numbers the
// rows; the relational selection picks a window of it.
func coldData(sz sizes, seed int64) (*dataset, error) {
	corpus := workload.NewCorpus(workload.CorpusConfig{Docs: sz.coldDocs, Seed: seed})
	authors := corpus.Authors
	partner := func(pool []string, offset int) func(row int, first string) string {
		index := make(map[string]int, len(pool))
		for i, v := range pool {
			index[v] = i
		}
		return func(row int, first string) string {
			i, real := index[first]
			if real && row%2 == 0 {
				return authors[(i+offset)%len(authors)]
			}
			return authors[(row*7+3)%len(authors)]
		}
	}
	student, err := correlated("student", sz.studentRows, seed+1,
		workload.ColumnSpec{Name: "name", Distinct: sz.coldNames, MatchFrac: 0.5, Pool: authors},
		"advisor", partner(authors, 1))
	if err != nil {
		return nil, err
	}
	project, err := correlated("project", sz.projectRows, seed+2,
		workload.ColumnSpec{Name: "pname", Distinct: sz.coldNames, MatchFrac: 0.5, Pool: corpus.Tags},
		"member", partner(corpus.Tags, 0))
	if err != nil {
		return nil, err
	}
	return &dataset{corpus: corpus, tables: []*relation.Table{student, project}}, nil
}

// correlated builds (first, second, k): first by workload.BuildRelation,
// second as a function of the row and its first value, k the row number.
func correlated(name string, rows int, seed int64, first workload.ColumnSpec,
	second string, derive func(row int, first string) string) (*relation.Table, error) {
	base, err := workload.BuildRelation(name, rows, seed, first)
	if err != nil {
		return nil, err
	}
	t := relation.NewTable(name, relation.MustSchema(
		relation.Column{Name: first.Name, Kind: value.KindString},
		relation.Column{Name: second, Kind: value.KindString},
		relation.Column{Name: "k", Kind: value.KindInt},
	))
	for i, row := range base.Rows {
		t.MustInsert(relation.Tuple{row[0], value.String(derive(i, row[0].Text())), value.Int(int64(i))})
	}
	return t, nil
}

// coldShapes are the paper's Q1-Q4 shapes. %[1]d and %[2]d bound the
// relational selection's window of k, %[3]s is a topic phrase, %[4]s a
// year.
var coldShapes = []struct {
	sql   string
	table int // index into dataset.tables of the relation selected on
}{
	// Q1: selection + one foreign predicate, whole documents.
	{`select * from student, mercury where student.k >= %[1]d and student.k < %[2]d and '%[3]s' in mercury.title and student.name in mercury.author`, 0},
	// Q2: unselective title word + year, docids only.
	{`select docid from student, mercury where student.k >= %[1]d and student.k < %[2]d and 'text' in mercury.title and '%[4]s' in mercury.year and student.name in mercury.author`, 0},
	// Q3: two foreign predicates, a year.
	{`select docid from project, mercury where project.k >= %[1]d and project.k < %[2]d and '%[4]s' in mercury.year and project.pname in mercury.title and project.member in mercury.author`, 1},
	// Q4: two foreign predicates on the same field.
	{`select student.name, mercury.docid, mercury.title from student, mercury where student.k >= %[1]d and student.k < %[2]d and '%[3]s' in mercury.title and student.advisor in mercury.author and student.name in mercury.author`, 0},
}

// coldQueries cycles shape, topic and year in a fixed order, so every run
// executes the same mix whatever the seed, and draws each query's window
// from the seeded generator, so nearly every query's search expressions
// (its window's names x topic x year) are new to the 256-entry caches.
// The measured window is a coldSelect-th of the relation; the
// correctness sample's is 8 rows, because exec.NaiveQuery matches every
// tuple against every document.
func coldQueries(sz sizes, ds *dataset, seed int64) (*stream, int) {
	topics, years := ds.corpus.Topics, ds.corpus.Years
	gen := func(width func(rows int) int) func(rng *rand.Rand, i int) string {
		return func(rng *rand.Rand, i int) string {
			sh := coldShapes[i%len(coldShapes)]
			i /= len(coldShapes)
			rows := ds.tables[sh.table].Cardinality()
			w := width(rows)
			lo := rng.Intn(rows - w + 1)
			return fmt.Sprintf(sh.sql, lo, lo+w, topics[i%len(topics)], years[i/len(topics)%len(years)])
		}
	}
	return &stream{
		rng:    rand.New(rand.NewSource(seed + 3)),
		gen:    gen(func(rows int) int { return rows / sz.coldSelect }),
		narrow: gen(func(int) int { return 8 }),
	}, sz.coldWarmup
}

// batchAuthor is the author name unique to ingest batch b; the rw table
// lists them so a read-your-writes query can join on it.
func batchAuthor(b int) string { return fmt.Sprintf("liveauthor%05d", b) }

const rywShape = `select rw.b, mercury.docid from rw, mercury where rw.b = %d and rw.name in mercury.author`

// batchGen generates the writer's batches: documents carrying the
// batch's unique author, and one delete in ingestDeleteOne ops, each of a
// distinct base document. The puts' external ids repeat every liveSlots
// batches, so from then on each put replaces an older document and the
// live corpus — and with it the heap the run ends with — stops growing
// with the number of batches a run happened to send.
type batchGen struct {
	ds          *dataset
	sz          sizes
	rng         *rand.Rand
	next        int   // next batch number
	deleteOrder []int // base documents in the order they are deleted
	deleted     int
}

func newBatchGen(sz sizes, ds *dataset, seed int64) *batchGen {
	rng := rand.New(rand.NewSource(seed + 4))
	return &batchGen{ds: ds, sz: sz, rng: rng, deleteOrder: rng.Perm(ds.corpus.Docs)}
}

// batch returns the next batch, its number, and how many puts it holds.
func (g *batchGen) batch() (ops []texservice.IngestOp, b, puts int) {
	b = g.next
	g.next++
	c := g.ds.corpus
	for k := 0; k < g.sz.ingestBatchOps; k++ {
		if k%ingestDeleteOne == ingestDeleteOne-1 && g.deleted < len(g.deleteOrder) {
			ops = append(ops, texservice.IngestOp{
				Kind:  texservice.IngestDelete,
				ExtID: fmt.Sprintf("CSTR-%05d", g.deleteOrder[g.deleted]),
			})
			g.deleted++
			continue
		}
		ops = append(ops, texservice.IngestOp{
			Kind:  texservice.IngestPut,
			ExtID: fmt.Sprintf("LIVE-%03d-%02d", b%liveSlots, k),
			Fields: map[string]string{
				"title":    fmt.Sprintf("live%05d %s report", b, c.Topics[g.rng.Intn(len(c.Topics))]),
				"author":   batchAuthor(b) + " " + c.Authors[g.rng.Intn(len(c.Authors))],
				"abstract": strings.Repeat("ingested text ", 6),
				"year":     c.Years[g.rng.Intn(len(c.Years))],
			},
		})
		puts++
	}
	return ops, b, puts
}
