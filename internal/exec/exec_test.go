package exec

import (
	"fmt"
	"testing"

	"textjoin/internal/cost"
	"textjoin/internal/join"
	"textjoin/internal/plan"
	"textjoin/internal/relation"
	"textjoin/internal/sqlparse"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
	"textjoin/internal/value"
)

func fixture(t testing.TB) (*sqlparse.Catalog, *texservice.Local, *textidx.Index) {
	t.Helper()
	student := relation.NewTable("student", relation.MustSchema(
		relation.Column{Name: "name", Kind: value.KindString},
		relation.Column{Name: "dept", Kind: value.KindString},
		relation.Column{Name: "year", Kind: value.KindInt},
	))
	for _, r := range [][3]interface{}{
		{"alice", "cs", 4}, {"bob", "ee", 2}, {"carol", "cs", 5}, {"dave", "me", 4},
	} {
		student.MustInsert(relation.Tuple{
			value.String(r[0].(string)), value.String(r[1].(string)), value.Int(int64(r[2].(int)))})
	}
	faculty := relation.NewTable("faculty", relation.MustSchema(
		relation.Column{Name: "fname", Kind: value.KindString},
		relation.Column{Name: "dept", Kind: value.KindString},
	))
	faculty.MustInsert(relation.Tuple{value.String("garcia"), value.String("cs")})
	faculty.MustInsert(relation.Tuple{value.String("widom"), value.String("ee")})

	ix := textidx.NewIndex()
	docs := []textidx.Document{
		{ExtID: "d0", Fields: map[string]string{"title": "systems", "author": "alice garcia", "year": "1993"}},
		{ExtID: "d1", Fields: map[string]string{"title": "databases", "author": "carol widom", "year": "1993"}},
		{ExtID: "d2", Fields: map[string]string{"title": "networks", "author": "garcia", "year": "1994"}},
		{ExtID: "d3", Fields: map[string]string{"title": "systems", "author": "dave widom", "year": "1993"}},
	}
	for _, d := range docs {
		ix.MustAdd(d)
	}
	ix.Freeze()
	svc, err := texservice.NewLocal(ix, texservice.WithShortFields("title", "author", "year"))
	if err != nil {
		t.Fatal(err)
	}
	cat := &sqlparse.Catalog{
		Tables: map[string]*relation.Table{"student": student, "faculty": faculty},
		Text: map[string]*sqlparse.TextSourceInfo{
			"mercury": {Name: "mercury", Fields: []string{"title", "author", "year"}},
		},
	}
	return cat, svc, ix
}

func foreignPreds() []sqlparse.ForeignPred {
	return []sqlparse.ForeignPred{
		{Table: "student", Column: "student.name", Field: "author"},
		{Table: "faculty", Column: "faculty.fname", Field: "author"},
	}
}

// handPlan builds a full PrL tree by hand: scan(student) → probe →
// join(faculty) → text join → project.
func handPlan(method cost.Method, probeCols []string) plan.Node {
	scanS := &plan.Scan{Table: "student",
		Pred: relation.ColConst{Col: "student.year", Op: relation.OpGt, Const: value.Int(3)}}
	probe := &plan.Probe{Input: scanS,
		Preds: []sqlparse.ForeignPred{{Table: "student", Column: "student.name", Field: "author"}}}
	scanF := &plan.Scan{Table: "faculty", Pred: relation.True{}}
	j := &plan.Join{Left: probe, Right: scanF,
		Residual:  relation.ColCol{Left: "student.dept", Op: relation.OpNe, Right: "faculty.dept"},
		Algorithm: "nested-loop"}
	tj := &plan.TextJoin{Input: j, Source: "mercury",
		Method:       method,
		ProbeColumns: probeCols,
		Preds:        foreignPreds(),
		LongForm:     true,
		DocFields:    []string{"title"},
	}
	return &plan.Project{Input: tj,
		Columns: []string{"student.name", "mercury.docid", "mercury.title"}}
}

func TestRunHandPlanAllMethods(t *testing.T) {
	cat, _, ix := fixture(t)

	// Ground truth via NaiveQuery on an equivalent analyzed query.
	q, err := sqlparse.Parse(`select student.name, mercury.docid, mercury.title
		from student, faculty, mercury
		where student.year > 3 and student.dept != faculty.dept
		and student.name in mercury.author and faculty.fname in mercury.author`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sqlparse.Analyze(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NaiveQuery(a, cat, ix)
	if err != nil {
		t.Fatal(err)
	}
	if want.Cardinality() == 0 {
		t.Fatal("fixture yields empty result; test is vacuous")
	}

	cases := []struct {
		method    cost.Method
		probeCols []string
	}{
		{cost.MethodTS, nil},
		{cost.MethodSJRTP, nil},
		{cost.MethodPTS, []string{"student.name"}},
		{cost.MethodPRTP, []string{"faculty.fname"}},
	}
	for _, c := range cases {
		cat2, svc2, _ := fixture(t)
		ex := &Executor{Cat: cat2, Svc: svc2}
		got, st, err := ex.Run(bg, handPlan(c.method, c.probeCols))
		if err != nil {
			t.Fatalf("%v: %v", c.method, err)
		}
		if !join.SameRows(got, want) {
			t.Fatalf("%v: %d rows, want %d", c.method, got.Cardinality(), want.Cardinality())
		}
		if st.Usage.Searches == 0 {
			t.Fatalf("%v: no searches recorded", c.method)
		}
		if st.Probes == 0 {
			t.Fatalf("%v: plan probe node sent no probes", c.method)
		}
	}
}

func TestRunScanAndProject(t *testing.T) {
	cat, svc, _ := fixture(t)
	ex := &Executor{Cat: cat, Svc: svc}
	p := &plan.Project{
		Input: &plan.Scan{Table: "student",
			Pred: relation.ColConst{Col: "student.dept", Op: relation.OpEq, Const: value.String("cs")}},
		Columns: []string{"student.name"},
	}
	out, st, err := ex.Run(bg, p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cardinality() != 2 || out.Schema.Arity() != 1 {
		t.Fatalf("result: %v", out)
	}
	if st.Usage.Searches != 0 {
		t.Fatal("relational-only plan touched the text service")
	}
}

func TestRunHashJoin(t *testing.T) {
	cat, svc, _ := fixture(t)
	ex := &Executor{Cat: cat, Svc: svc}
	p := &plan.Join{
		Left:      &plan.Scan{Table: "student"},
		Right:     &plan.Scan{Table: "faculty"},
		Equi:      []relation.EquiJoinCond{{Left: "student.dept", Right: "faculty.dept"}},
		Algorithm: "hash",
	}
	out, _, err := ex.Run(bg, p)
	if err != nil {
		t.Fatal(err)
	}
	// cs: alice, carol × garcia; ee: bob × widom.
	if out.Cardinality() != 3 {
		t.Fatalf("hash join rows = %d", out.Cardinality())
	}
}

// TestZeroExecutorRunsBatchEngine: the zero-value Executor — what tests,
// examples and the paper experiments construct — runs scans, joins and
// projections on the batch engine, and EXPLAIN ANALYZE sees its batches.
func TestZeroExecutorRunsBatchEngine(t *testing.T) {
	cat, _, _ := fixture(t)
	left := &plan.Scan{Table: "student"}
	right := &plan.Scan{Table: "faculty"}
	j := &plan.Join{
		Left:      left,
		Right:     right,
		Equi:      []relation.EquiJoinCond{{Left: "student.dept", Right: "faculty.dept"}},
		Algorithm: "hash",
	}
	root := &plan.Project{Input: j, Columns: []string{"student.name", "faculty.fname"}}
	an := NewAnalysis()
	out, st, err := (&Executor{Cat: cat}).Run(WithAnalysis(bg, an), root)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cardinality() != 3 {
		t.Fatalf("rows = %d, want 3", out.Cardinality())
	}
	if st.Batches == 0 {
		t.Fatal("RunStats.Batches = 0: the relational operators did not run as batches")
	}
	for _, n := range []plan.Node{left, right, j, root} {
		act, ok := an.Actual(n)
		if !ok || act.Batches == 0 {
			t.Errorf("%s: recorded=%v batches=%d, want a nonzero batch count", n.Describe(), ok, act.Batches)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cat, svc, _ := fixture(t)
	ex := &Executor{Cat: cat, Svc: svc}
	if _, _, err := ex.Run(bg, &plan.Scan{Table: "nosuch"}); err == nil {
		t.Fatal("unknown table accepted")
	}
	if _, _, err := ex.Run(bg, &plan.TextJoin{
		Input: &plan.Scan{Table: "student"}, Method: cost.Method(99),
	}); err == nil {
		t.Fatal("unknown method accepted")
	}
	if _, _, err := ex.Run(bg, nil); err == nil {
		t.Fatal("nil plan accepted")
	}
}

func TestNaiveQueryPureRelational(t *testing.T) {
	cat, _, ix := fixture(t)
	q, err := sqlparse.Parse(`select student.name, faculty.fname from student, faculty
		where student.dept = faculty.dept`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sqlparse.Analyze(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	out, err := NaiveQuery(a, cat, ix)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cardinality() != 3 {
		t.Fatalf("rows = %d", out.Cardinality())
	}
}

func TestQualifyDocColumns(t *testing.T) {
	tbl := relation.NewTable("x", relation.MustSchema(
		relation.Column{Name: "a", Kind: value.KindString},
		relation.Column{Name: "docid", Kind: value.KindString},
		relation.Column{Name: "title", Kind: value.KindString},
	))
	out := qualifyDocColumns(tbl, 1, "mercury", []string{"title"})
	if out.Schema.ColumnIndex("mercury.docid") != 1 || out.Schema.ColumnIndex("mercury.title") != 2 {
		t.Fatalf("schema = %v", out.Schema)
	}
	if out.Schema.ColumnIndex("a") != 0 {
		t.Fatal("relational column renamed")
	}
	// Source table schema untouched.
	if tbl.Schema.ColumnIndex("docid") != 1 {
		t.Fatal("original schema mutated")
	}
}

func TestRunWithoutServiceFails(t *testing.T) {
	cat, _, _ := fixture(t)
	ex := &Executor{Cat: cat} // no Svc, no Services
	_, _, err := ex.Run(bg, &plan.TextJoin{
		Input:  &plan.Scan{Table: "student"},
		Source: "mercury",
		Method: cost.MethodTS,
		Preds:  foreignPreds()[:1],
	})
	if err == nil {
		t.Fatal("text join without a service accepted")
	}
	// Relational-only plans still work with no services at all.
	out, _, err := ex.Run(bg, &plan.Scan{Table: "student"})
	if err != nil || out.Cardinality() == 0 {
		t.Fatalf("relational plan without services: %v", err)
	}
}

// TestForeignJoinInputAllocsIndependentOfRows is the allocation gate for
// the boundary between the relational pipeline and the text join: an
// SJ+RTP text join over a scan of 1 k and of 64 k rows, both grouping
// into the same 64 bindings and matching no document, must allocate the
// same per run. The input rows live in the run's recycled arena and the
// bindings are found by typed key, so nothing is allocated per row.
func TestForeignJoinInputAllocsIndependentOfRows(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	ix := textidx.NewIndex()
	ix.MustAdd(textidx.Document{ExtID: "d0", Fields: map[string]string{"title": "systems", "author": "nobody"}})
	ix.Freeze()
	svc, err := texservice.NewLocal(ix, texservice.WithShortFields("title", "author"))
	if err != nil {
		t.Fatal(err)
	}
	allocs := map[int]float64{}
	for _, rows := range []int{1 << 10, 1 << 16} {
		fact := relation.NewTable("fact", relation.MustSchema(
			relation.Column{Name: "name", Kind: value.KindString},
			relation.Column{Name: "n", Kind: value.KindInt},
		))
		for i := 0; i < rows; i++ {
			fact.MustInsert(relation.Tuple{value.String(fmt.Sprintf("author%02d", i%64)), value.Int(int64(i))})
		}
		ex := &Executor{Cat: &sqlparse.Catalog{Tables: map[string]*relation.Table{"fact": fact}}, Svc: svc}
		p := &plan.TextJoin{
			Input:  &plan.Scan{Table: "fact", Cols: []string{"fact.name"}},
			Source: "mercury",
			Method: cost.MethodSJRTP,
			Preds:  []sqlparse.ForeignPred{{Table: "fact", Column: "fact.name", Field: "author"}},
		}
		run := func() {
			out, _, err := ex.Run(bg, p)
			if err != nil {
				t.Fatal(err)
			}
			if out.Cardinality() != 0 {
				t.Fatalf("%d rows: the join matched %d rows, want none", rows, out.Cardinality())
			}
		}
		run() // warm the pools
		allocs[rows] = testing.AllocsPerRun(5, run)
	}
	small, large := allocs[1<<10], allocs[1<<16]
	if large > small*1.05 {
		t.Fatalf("allocations per run grow with the input: %.0f at 1k rows, %.0f at 64k rows", small, large)
	}
	t.Logf("allocations per run: %.0f at 1k rows, %.0f at 64k rows", small, large)
}
