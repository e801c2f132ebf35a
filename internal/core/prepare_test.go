package core_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"textjoin/internal/bench"
	"textjoin/internal/core"
	"textjoin/internal/relation"
	"textjoin/internal/value"
	"textjoin/internal/workload"
)

// repeatedEngine is bench.RepeatedEngine at seed 1: the repeated workload
// behind an engine configured like queryd's.
func repeatedEngine(t testing.TB, factRows int) (*core.Engine, *workload.Repeated) {
	t.Helper()
	eng, w, err := bench.RepeatedEngine(factRows, 1)
	if err != nil {
		t.Fatal(err)
	}
	return eng, w
}

// TestPrepareIndependentOfCardinality is the O(1)-optimize gate: once a
// shape has been prepared (which samples the text source and counts the
// columns' distinct values, both memoized), preparing it again costs the
// same number of allocations and bytes over a 1 k-row and a 64 k-row fact
// table. Any per-row work in parse → analyze → optimize → prune shows as a
// 64x difference here.
func TestPrepareIndependentOfCardinality(t *testing.T) {
	const runs = 50
	measure := func(factRows int) (mallocs, bytes []float64) {
		eng, w := repeatedEngine(t, factRows)
		for _, q := range w.Queries {
			if _, err := eng.Prepare(q); err != nil { // warm-up
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if _, err := eng.Prepare(q); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			mallocs = append(mallocs, float64(after.Mallocs-before.Mallocs)/runs)
			bytes = append(bytes, float64(after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return mallocs, bytes
	}
	smallN, smallB := measure(1 << 10)
	largeN, largeB := measure(1 << 16)
	for i := range smallN {
		t.Logf("shape %d: %.0f allocs / %.0f B at 1k rows, %.0f allocs / %.0f B at 64k rows",
			i, smallN[i], smallB[i], largeN[i], largeB[i])
		if math.Abs(largeN[i]-smallN[i]) > 0.05*smallN[i] || math.Abs(largeB[i]-smallB[i]) > 0.05*smallB[i] {
			t.Errorf("shape %d: Prepare cost depends on table size", i)
		}
	}
}

// fuzzEngine is the small fixed catalog FuzzPrepare plans against: the
// repeated workload's fact and dim, and student / faculty / project with
// every column the paper's Q1–Q5 and the benchmark's cold shapes name.
func fuzzEngine(t testing.TB) (*core.Engine, *workload.Repeated) {
	t.Helper()
	eng, w := repeatedEngine(t, 64)
	str, num := value.KindString, value.KindInt
	tables := []*relation.Table{
		relation.NewTable("student", relation.MustSchema(
			relation.Column{Name: "name", Kind: str}, relation.Column{Name: "area", Kind: str},
			relation.Column{Name: "year", Kind: num}, relation.Column{Name: "advisor", Kind: str},
			relation.Column{Name: "dept", Kind: str}, relation.Column{Name: "k", Kind: num})),
		relation.NewTable("faculty", relation.MustSchema(
			relation.Column{Name: "fname", Kind: str}, relation.Column{Name: "dept", Kind: str})),
		relation.NewTable("project", relation.MustSchema(
			relation.Column{Name: "pname", Kind: str}, relation.Column{Name: "member", Kind: str},
			relation.Column{Name: "sponsor", Kind: str}, relation.Column{Name: "k", Kind: num})),
	}
	authors, tags := w.Corpus.Authors, w.Corpus.Tags
	for i := 0; i < 16; i++ {
		s := func(format string, mod int) value.Value { return value.String(fmt.Sprintf(format, i%mod)) }
		tables[0].MustInsert(relation.Tuple{value.String(authors[i%len(authors)]), s("area%d", 3),
			value.Int(int64(1 + i%6)), value.String(authors[(i+1)%len(authors)]), s("dept%d", 2), value.Int(int64(i))})
		tables[1].MustInsert(relation.Tuple{value.String(authors[(i+1)%len(authors)]), s("dept%d", 3)})
		tables[2].MustInsert(relation.Tuple{value.String(tags[i%len(tags)]), value.String(authors[i%len(authors)]),
			s("sponsor%d", 2), value.Int(int64(i))})
	}
	for _, tbl := range tables {
		if err := eng.RegisterTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	return eng, w
}

// FuzzPrepare: arbitrary bytes through sqlparse.Parse → Analyze → the
// optimizer may be rejected with an error but must not panic or hang. The
// catalog is fixed and small, so a pathological input cannot buy itself
// more than five relations to enumerate over.
func FuzzPrepare(f *testing.F) {
	eng, w := fuzzEngine(f)
	seeds := append([]string{
		// The benchmark's cold shapes (the paper's Q1–Q4 over a window of k).
		`select * from student, mercury where student.k >= 2 and student.k < 10 and 'belief update' in mercury.title and student.name in mercury.author`,
		`select docid from student, mercury where student.k >= 2 and student.k < 10 and 'text' in mercury.title and '1994' in mercury.year and student.name in mercury.author`,
		`select docid from project, mercury where project.k >= 2 and project.k < 10 and '1994' in mercury.year and project.pname in mercury.title and project.member in mercury.author`,
		`select student.name, mercury.docid, mercury.title from student, mercury where student.k >= 2 and student.k < 10 and 'belief update' in mercury.title and student.advisor in mercury.author and student.name in mercury.author`,
		// The paper's Q1–Q5.
		`select * from student, mercury where student.area = 'AI' and 'belief update' in mercury.title and student.name in mercury.author`,
		`select docid from student, mercury where student.year > 3 and 'text' in mercury.title and student.name in mercury.author`,
		`select docid from project, mercury where project.sponsor = 'NSF' and project.pname in mercury.title and project.member in mercury.author`,
		`select * from student, mercury where student.advisor in mercury.author and student.name in mercury.author`,
		`select student.name, mercury.docid from student, faculty, mercury where student.name in mercury.author and faculty.fname in mercury.author and faculty.dept != student.dept and '1993' in mercury.year`,
	}, w.Queries...) // ... and its four repeated shapes
	for _, q := range seeds {
		if _, err := eng.Prepare(q); err != nil {
			f.Fatalf("seed does not prepare: %v\n%s", err, q)
		}
		f.Add([]byte(q))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		p, err := eng.Prepare(string(src))
		if err == nil && p.Plan() == nil {
			t.Fatalf("Prepare(%q) returned neither a plan nor an error", src)
		}
	})
}
