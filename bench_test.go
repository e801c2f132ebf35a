// Package textjoin_test holds the repository-level benchmarks: one
// benchmark per table/figure of the paper's evaluation (§7), measuring
// real wall time of the same executions whose simulated costs benchrun
// reports, plus throughput benchmarks for the substrates.
//
//	go test -bench=. -benchmem
package textjoin_test

import (
	"fmt"
	"math/rand"
	"testing"

	"textjoin/internal/bench"
	"textjoin/internal/core"
	"textjoin/internal/cost"
	"textjoin/internal/exec"
	"textjoin/internal/join"
	"textjoin/internal/optimizer"
	"textjoin/internal/relation"
	"textjoin/internal/sqlparse"
	"textjoin/internal/stats"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
	"textjoin/internal/value"
	"textjoin/internal/workload"
)

var benchCorpus = workload.NewCorpus(workload.CorpusConfig{Docs: 2000, Seed: 42})

// BenchmarkTable2 measures each join method on each paper query — the
// wall-clock counterpart of Table 2.
func BenchmarkTable2(b *testing.B) {
	scenarios, err := workload.PaperOperatingPoints(benchCorpus)
	if err != nil {
		b.Fatal(err)
	}
	for _, sc := range scenarios {
		estSvc, err := sc.Service()
		if err != nil {
			b.Fatal(err)
		}
		est := stats.New(estSvc, stats.WithSampleSize(10000))
		params, err := est.BuildParams(sc.Spec, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range cost.AllMethods {
			if !params.Applicable(m) {
				continue
			}
			method, err := stats.InstantiateMethod(sc.Spec, params, m)
			if err != nil {
				b.Fatal(err)
			}
			svc, err := sc.Service()
			if err != nil {
				b.Fatal(err)
			}
			if err := method.Applicable(sc.Spec, svc); err != nil {
				continue
			}
			b.Run(fmt.Sprintf("%s/%s", sc.Name, m), func(b *testing.B) {
				var simCost float64
				for i := 0; i < b.N; i++ {
					svc.Meter().Reset()
					res, err := method.Execute(bg, sc.Spec, svc)
					if err != nil {
						b.Fatal(err)
					}
					simCost = res.Stats.Usage.Cost
				}
				b.ReportMetric(simCost, "simsec")
			})
		}
	}
}

// BenchmarkFigure1A regenerates the Figure 1(A) cost curves.
func BenchmarkFigure1A(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure1A(benchCorpus, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1B regenerates the Figure 1(B) cost curves.
func BenchmarkFigure1B(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure1B(benchCorpus, 60, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 regenerates the Figure 2 winner map.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure2(benchCorpus, 20, 40); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiJoinQ5 measures optimizing + executing Q5 per optimizer
// mode — the wall-clock counterpart of the §6 experiment.
func BenchmarkMultiJoinQ5(b *testing.B) {
	w, err := workload.Q5(workload.DefaultQ5())
	if err != nil {
		b.Fatal(err)
	}
	q, err := sqlparse.Parse(w.Query)
	if err != nil {
		b.Fatal(err)
	}
	a, err := sqlparse.Analyze(q, w.Catalog)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []optimizer.Mode{
		optimizer.ModeTraditional, optimizer.ModePrLGreedy, optimizer.ModePrL,
	} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				svc, err := w.Service()
				if err != nil {
					b.Fatal(err)
				}
				est := stats.New(svc, stats.WithSampleSize(10000))
				opts := optimizer.DefaultOptions()
				opts.Mode = mode
				o, err := optimizer.New(a, w.Catalog, svc, est, opts)
				if err != nil {
					b.Fatal(err)
				}
				res, err := o.Optimize()
				if err != nil {
					b.Fatal(err)
				}
				ex := &exec.Executor{Cat: w.Catalog, Svc: svc}
				if _, _, err := ex.Run(bg, res.Plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOptimizerOverhead measures enumeration effort as the relation
// count grows (§6's complexity discussion).
func BenchmarkOptimizerOverhead(b *testing.B) {
	for _, n := range []int{2, 4, 6, 8} {
		w, err := workload.Chain(workload.ChainConfig{Relations: n, RowsEach: 30, Docs: 40, Seed: int64(n)})
		if err != nil {
			b.Fatal(err)
		}
		q, err := sqlparse.Parse(w.Query)
		if err != nil {
			b.Fatal(err)
		}
		a, err := sqlparse.Analyze(q, w.Catalog)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []optimizer.Mode{optimizer.ModeTraditional, optimizer.ModePrL} {
			svc, err := w.Service()
			if err != nil {
				b.Fatal(err)
			}
			est := stats.New(svc, stats.WithSampleSize(10000))
			b.Run(fmt.Sprintf("n=%d/%s", n, mode), func(b *testing.B) {
				var tasks int
				for i := 0; i < b.N; i++ {
					opts := optimizer.DefaultOptions()
					opts.Mode = mode
					o, err := optimizer.New(a, w.Catalog, svc, est, opts)
					if err != nil {
						b.Fatal(err)
					}
					res, err := o.Optimize()
					if err != nil {
						b.Fatal(err)
					}
					tasks = res.JoinTasks
				}
				b.ReportMetric(float64(tasks), "jointasks")
			})
		}
	}
}

// BenchmarkPrepare measures parse → analyze → optimize → prune of the
// repeated serving shapes (the repository benchmark's warm_repeat) as the
// fact table grows, after one warm-up per shape, on an engine configured
// like queryd. Optimize is meant to be O(1) in table size: the three
// sizes should report the same ns/op, B/op and allocs/op. The committed
// before/after pair is BENCH_optimizer.json.
func BenchmarkPrepare(b *testing.B) {
	for _, factRows := range []int{1 << 10, 1 << 14, 1 << 17} {
		eng, w, err := bench.RepeatedEngine(factRows, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range w.Queries {
			if _, err := eng.Prepare(q); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("fact=%d", factRows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Prepare(w.Queries[i%len(w.Queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWarmQuery measures one warm query in process — Engine.Query's
// parse → optimize → execute, every search a cache hit — over the repeated
// serving shapes at 16 384 fact rows, cycling through the four shapes: the
// in-process core of the repository benchmark's warm_repeat. The
// committed before/after pair is BENCH_rtp.json.
func BenchmarkWarmQuery(b *testing.B) {
	eng, w, err := bench.RepeatedEngine(1<<14, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range w.Queries {
		if _, err := eng.Query(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(w.Queries[i%len(w.Queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdQuery measures one cold in-process query: Engine.Query's
// parse → optimize → execute of the paper's Q1–Q4 shapes over a
// 20 000-document corpus, on an engine configured like queryd (PrL
// optimizer with batched probes, both caches at 256 entries). It rebuilds
// the repository benchmark's cold_local stream from program packages:
// query i has shape i mod 4, a fixed topic × year cycle, and a seeded
// window of 1/64 of its relation, so the join searches are nearly all
// new to the caches, while the 12 topic and year selections that RTP
// sends repeat. The committed before/after pair is BENCH_rtp.json.
//
//	go test -run '^$' -bench ColdQuery -cpuprofile cpu.out .
func BenchmarkColdQuery(b *testing.B) {
	eng, next, err := coldEngine(20000, 11)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := eng.Query(next()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(next()); err != nil {
			b.Fatal(err)
		}
	}
}

// coldShapes are the paper's Q1–Q4. %[1]d and %[2]d bound the relational
// selection's window of k, %[3]s is a topic phrase, %[4]s a year.
var coldShapes = []struct {
	sql   string
	table string
}{
	// Q1: selection + one foreign predicate, whole documents.
	{`select * from student, mercury where student.k >= %[1]d and student.k < %[2]d and '%[3]s' in mercury.title and student.name in mercury.author`, "student"},
	// Q2: unselective title word + year, docids only.
	{`select docid from student, mercury where student.k >= %[1]d and student.k < %[2]d and 'text' in mercury.title and '%[4]s' in mercury.year and student.name in mercury.author`, "student"},
	// Q3: two foreign predicates, a year.
	{`select docid from project, mercury where project.k >= %[1]d and project.k < %[2]d and '%[4]s' in mercury.year and project.pname in mercury.title and project.member in mercury.author`, "project"},
	// Q4: two foreign predicates on the same field.
	{`select student.name, mercury.docid, mercury.title from student, mercury where student.k >= %[1]d and student.k < %[2]d and '%[3]s' in mercury.title and student.advisor in mercury.author and student.name in mercury.author`, "student"},
}

// coldEngine builds the cold stream's corpus, its student (name, advisor,
// k) and project (pname, member, k) relations, 4 096 and 2 048 rows with
// 2 048 distinct first-column values, half of them in the corpus, and an
// engine serving them. The second join column follows the generated
// corpus's layout, so the two-predicate shapes have answers: tag i titles
// author i's documents, and author i writes with author i+1. next returns
// the stream's queries in order.
func coldEngine(docs int, seed int64) (*core.Engine, func() string, error) {
	corpus := workload.NewCorpus(workload.CorpusConfig{Docs: docs, Seed: seed})
	authors := corpus.Authors
	partner := func(pool []string, offset int) func(row int, first string) string {
		index := make(map[string]int, len(pool))
		for i, v := range pool {
			index[v] = i
		}
		return func(row int, first string) string {
			if i, real := index[first]; real && row%2 == 0 {
				return authors[(i+offset)%len(authors)]
			}
			return authors[(row*7+3)%len(authors)]
		}
	}
	relations := []struct {
		name   string
		rows   int
		first  workload.ColumnSpec
		second string
		derive func(row int, first string) string
	}{
		{"student", 4096, workload.ColumnSpec{Name: "name", Distinct: 2048, MatchFrac: 0.5, Pool: authors}, "advisor", partner(authors, 1)},
		{"project", 2048, workload.ColumnSpec{Name: "pname", Distinct: 2048, MatchFrac: 0.5, Pool: corpus.Tags}, "member", partner(corpus.Tags, 0)},
	}
	opts := core.DefaultOptions()
	opts.Optimizer.BatchProbe = true
	opts.SearchCache, opts.ProbeCache = 256, 256
	eng := core.NewEngineWith(opts)
	sizes := map[string]int{}
	for i, r := range relations {
		base, err := workload.BuildRelation(r.name, r.rows, seed+int64(i)+1, r.first)
		if err != nil {
			return nil, nil, err
		}
		t := relation.NewTable(r.name, relation.MustSchema(
			relation.Column{Name: r.first.Name, Kind: value.KindString},
			relation.Column{Name: r.second, Kind: value.KindString},
			relation.Column{Name: "k", Kind: value.KindInt},
		))
		for row, tuple := range base.Rows {
			t.MustInsert(relation.Tuple{tuple[0], value.String(r.derive(row, tuple[0].Text())), value.Int(int64(row))})
		}
		if err := eng.RegisterTable(t); err != nil {
			return nil, nil, err
		}
		sizes[r.name] = t.Cardinality()
	}
	svc, err := texservice.NewLocal(corpus.Index, texservice.WithShortFields("title", "author", "year"))
	if err != nil {
		return nil, nil, err
	}
	if err := eng.RegisterTextSource("mercury", svc, corpus.Fields()...); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed + 3))
	i := 0
	next := func() string {
		sh, j := coldShapes[i%len(coldShapes)], i/len(coldShapes)
		i++
		rows := sizes[sh.table]
		w := rows / 64
		lo := rng.Intn(rows - w + 1)
		return fmt.Sprintf(sh.sql, lo, lo+w, corpus.Topics[j%len(corpus.Topics)], corpus.Years[j/len(corpus.Topics)%len(corpus.Years)])
	}
	return eng, next, nil
}

// BenchmarkIndexBuild measures inverted-index construction throughput.
func BenchmarkIndexBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		workload.NewCorpus(workload.CorpusConfig{Docs: 1000, Seed: int64(i + 1)})
	}
}

// BenchmarkSearch measures single-term and conjunctive search latency on
// the frozen index.
func BenchmarkSearch(b *testing.B) {
	svc, err := texservice.NewLocal(benchCorpus.Index,
		texservice.WithShortFields("title", "author", "year"))
	if err != nil {
		b.Fatal(err)
	}
	queries := map[string]textidx.Expr{
		"term": textidx.Term{Field: "title", Word: "text"},
		// The weight-1 topic: its phrase matches a few titles.
		"phrase": textidx.Phrase{Field: "title", Words: []string{"belief", "update"}},
		// A weight-100 topic: its phrase matches about a fifth of the titles.
		"hot_phrase": textidx.Phrase{Field: "title", Words: []string{"query", "optimization"}},
		"conjunction": textidx.And{
			textidx.Term{Field: "title", Word: "text"},
			textidx.Term{Field: "year", Word: "1994"},
		},
	}
	for name, q := range queries {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := svc.Search(bg, q, texservice.FormShort); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRemoteSearch measures the network round trip of the remote
// service — the physical counterpart of the invocation cost c_i.
func BenchmarkRemoteSearch(b *testing.B) {
	local, err := texservice.NewLocal(benchCorpus.Index,
		texservice.WithShortFields("title", "author", "year"))
	if err != nil {
		b.Fatal(err)
	}
	srv := texservice.NewServer(local)
	srv.Logf = b.Logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	remote, err := texservice.Dial(addr, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer remote.Close()
	q := textidx.Term{Field: "author", Word: benchCorpus.Authors[0]}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := remote.Search(bg, q, texservice.FormShort); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoinMethodsScaling measures how TS and SJ+RTP scale with the
// relation size on a fixed corpus.
func BenchmarkJoinMethodsScaling(b *testing.B) {
	for _, n := range []int{50, 200, 800} {
		sc, err := benchCorpus.Q2(workload.Q2Config{N: n, S1: 0.5, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range []join.Method{join.TS{}, join.SJRTP{}} {
			b.Run(fmt.Sprintf("%s/n=%d", m.Name(), n), func(b *testing.B) {
				svc, err := sc.Service()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := m.Execute(bg, sc.Spec, svc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
