package core

import (
	"errors"
	"strings"
	"testing"

	"textjoin/internal/exec"
	"textjoin/internal/join"
	"textjoin/internal/optimizer"
	"textjoin/internal/relation"
	"textjoin/internal/texservice"
	"textjoin/internal/value"
	"textjoin/internal/workload"
)

func demoEngine(t *testing.T) (*Engine, *workload.Demo, *texservice.Local) {
	t.Helper()
	demo := workload.NewDemo(800, 3)
	svc, err := texservice.NewLocal(demo.Corpus.Index,
		texservice.WithShortFields("title", "author", "year"))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	for _, tbl := range demo.Catalog.Tables {
		if err := eng.RegisterTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.RegisterTextSource("mercury", svc, demo.Corpus.Fields()...); err != nil {
		t.Fatal(err)
	}
	return eng, demo, svc
}

func TestEngineEndToEnd(t *testing.T) {
	eng, demo, svc := demoEngine(t)
	src := `select student.name, mercury.docid from student, mercury
		where student.year > 1 and student.name in mercury.author`
	res, err := eng.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Schema.ColumnIndex("mercury.docid") < 0 {
		t.Fatalf("result schema: %v", res.Table.Schema)
	}
	if res.Usage.Searches == 0 {
		t.Fatal("no text searches recorded")
	}
	// Verify against the naive oracle.
	p, err := eng.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.NaiveQuery(p.Analyzed(), demo.Catalog, svc.Index())
	if err != nil {
		t.Fatal(err)
	}
	if !join.SameRows(res.Table, want) {
		t.Fatalf("engine result (%d rows) differs from naive (%d rows)",
			res.Table.Cardinality(), want.Cardinality())
	}
}

func TestEnginePrepareReuse(t *testing.T) {
	eng, _, _ := demoEngine(t)
	p, err := eng.Prepare(`select docid from student, mercury
		where 'belief update' in mercury.title and student.name in mercury.author`)
	if err != nil {
		t.Fatal(err)
	}
	if p.EstCost() <= 0 {
		t.Fatalf("estimate = %v", p.EstCost())
	}
	if !strings.Contains(p.Explain(), "TextJoin") {
		t.Fatalf("explain: %s", p.Explain())
	}
	r1, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !join.SameRows(r1.Table, r2.Table) {
		t.Fatal("repeated runs differ")
	}
	if r1.OptimizeTime <= 0 || r1.ExecuteTime <= 0 {
		t.Fatal("timings not recorded")
	}
}

func TestEnginePureRelational(t *testing.T) {
	eng, _, _ := demoEngine(t)
	res, err := eng.Query(`select student.name, faculty.fname from student, faculty
		where student.advisor = faculty.fname and student.year > 4`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Usage.Searches != 0 {
		t.Fatal("pure relational query touched the text service")
	}
	if res.Probes != 0 {
		t.Fatal("pure relational query probed")
	}
}

func TestEngineMultiJoin(t *testing.T) {
	eng, demo, svc := demoEngine(t)
	src := `select student.name, mercury.docid from student, faculty, mercury
		where student.advisor = faculty.fname
		and student.name in mercury.author
		and faculty.fname in mercury.author`
	res, err := eng.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := eng.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.NaiveQuery(p.Analyzed(), demo.Catalog, svc.Index())
	if err != nil {
		t.Fatal(err)
	}
	if !join.SameRows(res.Table, want) {
		t.Fatal("multi-join result differs from naive")
	}
}

func TestEngineRegistrationErrors(t *testing.T) {
	eng := NewEngine()
	tbl := relation.NewTable("t", relation.MustSchema(
		relation.Column{Name: "a", Kind: value.KindString}))
	if err := eng.RegisterTable(tbl); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterTable(tbl); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if err := eng.RegisterTable(nil); err == nil {
		t.Fatal("nil table accepted")
	}
	if err := eng.RegisterTable(relation.NewTable("", tbl.Schema)); err == nil {
		t.Fatal("unnamed table accepted")
	}

	demo := workload.NewDemo(50, 1)
	svc, err := texservice.NewLocal(demo.Corpus.Index)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterTextSource("", svc, "title"); err == nil {
		t.Fatal("unnamed source accepted")
	}
	if err := eng.RegisterTextSource("m", svc); err == nil {
		t.Fatal("fieldless source accepted")
	}
	if err := eng.RegisterTextSource("t", svc, "title"); err == nil {
		t.Fatal("source name colliding with table accepted")
	}
	if err := eng.RegisterTextSource("m", svc, "title"); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterTextSource("m", svc, "title"); err == nil {
		t.Fatal("duplicate source accepted")
	}
	if err := eng.RegisterTable(relation.NewTable("m", tbl.Schema)); err == nil {
		t.Fatal("table name colliding with source accepted")
	}
	if eng.Catalog() == nil {
		t.Fatal("catalog accessor nil")
	}
}

func TestEngineQueryErrors(t *testing.T) {
	eng, _, _ := demoEngine(t)
	bad := []string{
		"not sql",
		"select * from nosuch",
		"select nosuch from student",
	}
	for _, src := range bad {
		if _, err := eng.Query(src); err == nil {
			t.Errorf("Query(%q) succeeded", src)
		}
	}
}

func TestEngineModes(t *testing.T) {
	for _, mode := range []optimizer.Mode{
		optimizer.ModeTraditional, optimizer.ModePrL, optimizer.ModePrLGreedy,
	} {
		opts := DefaultOptions()
		opts.Optimizer.Mode = mode
		demo := workload.NewDemo(400, 5)
		svc, err := texservice.NewLocal(demo.Corpus.Index,
			texservice.WithShortFields("title", "author", "year"))
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngineWith(opts)
		for _, tbl := range demo.Catalog.Tables {
			if err := eng.RegisterTable(tbl); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.RegisterTextSource("mercury", svc, demo.Corpus.Fields()...); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Query(`select docid from project, mercury
			where project.pname in mercury.title and project.member in mercury.author`)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		want, err := join.NaiveJoin(&join.Spec{
			Relation: demo.Catalog.Tables["project"].Qualified(),
			Preds: []join.Pred{
				{Column: "project.pname", Field: "title"},
				{Column: "project.member", Field: "author"},
			},
		}, demo.Corpus.Index)
		if err != nil {
			t.Fatal(err)
		}
		if res.Table.Cardinality() != want.Cardinality() {
			t.Fatalf("%v: %d rows, naive %d", mode, res.Table.Cardinality(), want.Cardinality())
		}
	}
}

func TestInertService(t *testing.T) {
	var s inertService
	if _, err := s.Search(bg, nil, texservice.FormShort); err == nil {
		t.Fatal("inert search succeeded")
	}
	if _, err := s.Retrieve(bg, 0); err == nil {
		t.Fatal("inert retrieve succeeded")
	}
	if n, err := s.NumDocs(); err != nil || n != 0 {
		t.Fatal("inert NumDocs wrong")
	}
	if s.MaxTerms() != texservice.DefaultMaxTerms || s.ShortFields() != nil || s.Meter() == nil {
		t.Fatal("inert accessors wrong")
	}
	// Every optional capability is refused with its sentinel.
	if _, err := s.BatchSearch(bg, nil, texservice.FormShort); !errors.Is(err, texservice.ErrNoBatch) {
		t.Fatalf("inert batch search: %v", err)
	}
	if _, err := s.TermDocFrequency(bg, "title", "x"); !errors.Is(err, texservice.ErrNoStats) {
		t.Fatalf("inert docfreq: %v", err)
	}
	if _, err := s.Ingest(bg, nil); !errors.Is(err, texservice.ErrNoIngest) {
		t.Fatalf("inert ingest: %v", err)
	}
	if _, err := s.IndexVersion(bg); !errors.Is(err, texservice.ErrNoIngest) {
		t.Fatalf("inert version: %v", err)
	}
	if s.PinSnapshot(bg) != bg || s.SnapshotPinned(bg) {
		t.Fatal("inert service pins")
	}
}

func TestPreparedPlanAccessor(t *testing.T) {
	eng, _, _ := demoEngine(t)
	p, err := eng.Prepare(`select student.name from student, faculty
		where student.advisor = faculty.fname`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Plan() == nil {
		t.Fatal("Plan accessor nil")
	}
}
