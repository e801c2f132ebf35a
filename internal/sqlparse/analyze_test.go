package sqlparse

import (
	"sort"
	"strings"
	"testing"

	"textjoin/internal/relation"
	"textjoin/internal/textidx"
	"textjoin/internal/value"
)

func catalog(t *testing.T) *Catalog {
	t.Helper()
	student := relation.NewTable("student", relation.MustSchema(
		relation.Column{Name: "name", Kind: value.KindString},
		relation.Column{Name: "area", Kind: value.KindString},
		relation.Column{Name: "year", Kind: value.KindInt},
		relation.Column{Name: "advisor", Kind: value.KindString},
		relation.Column{Name: "dept", Kind: value.KindString},
	))
	faculty := relation.NewTable("faculty", relation.MustSchema(
		relation.Column{Name: "fname", Kind: value.KindString},
		relation.Column{Name: "dept", Kind: value.KindString},
	))
	return &Catalog{
		Tables: map[string]*relation.Table{"student": student, "faculty": faculty},
		Text: map[string]*TextSourceInfo{
			"mercury": {Name: "mercury", Fields: []string{"title", "author", "abstract", "year"}},
		},
	}
}

func analyze(t *testing.T, src string) (*Analyzed, error) {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return Analyze(q, catalog(t))
}

func TestAnalyzeQ1(t *testing.T) {
	a, err := analyze(t, `select * from student, mercury
		where student.area = 'AI' and student.year > 3
		and 'belief update' in mercury.title
		and student.name in mercury.author`)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Tables) != 1 || a.Tables[0] != "student" || len(a.Text) != 1 || a.Text[0].Source != "mercury" {
		t.Fatalf("tables = %v, text = %+v", a.Tables, a.Text)
	}
	sel := a.Selections["student"]
	and, ok := sel.(relation.And)
	if !ok || len(and) != 2 {
		t.Fatalf("student selections = %v", sel)
	}
	part := a.Part("mercury")
	if part == nil || part.Sel == nil {
		t.Fatal("text selection missing")
	}
	if ph, ok := part.Sel.(textidx.Phrase); !ok || ph.Field != "title" {
		t.Fatalf("text selection = %#v", part.Sel)
	}
	if len(a.Foreign) != 1 || a.Foreign[0].Column != "student.name" || a.Foreign[0].Field != "author" {
		t.Fatalf("foreign = %v", a.Foreign)
	}
	// Star output: student columns + docid + all text fields, long form.
	if !a.Part("mercury").LongForm {
		t.Error("star select should need long forms")
	}
	if len(a.OutputCols) != 5+1+4 {
		t.Errorf("output cols = %v", a.OutputCols)
	}
}

func TestAnalyzeQ5MultiJoin(t *testing.T) {
	a, err := analyze(t, `select student.name, mercury.docid
		from student, faculty, mercury
		where student.name in mercury.author
		and faculty.fname in mercury.author
		and faculty.dept != student.dept
		and '1993' in mercury.year`)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Tables) != 2 {
		t.Fatalf("tables = %v", a.Tables)
	}
	if len(a.Edges) != 1 {
		t.Fatalf("edges = %v", a.Edges)
	}
	e := a.Edges[0]
	if e.A != "faculty" || e.B != "student" || len(e.Equi) != 0 || len(e.Residual) != 1 {
		t.Fatalf("edge = %+v", e)
	}
	if len(a.Foreign) != 2 {
		t.Fatalf("foreign = %v", a.Foreign)
	}
	var ft []string
	for _, f := range a.Foreign {
		ft = append(ft, f.Table)
	}
	sort.Strings(ft)
	if len(ft) != 2 || ft[0] != "faculty" || ft[1] != "student" {
		t.Fatalf("foreign tables = %v", ft)
	}
	// docid-only output: no long forms.
	if p := a.Part("mercury"); p.LongForm || len(p.DocFields) != 0 {
		t.Errorf("docid-only query marked long form")
	}
	if a.OutputCols[1] != "mercury.docid" {
		t.Errorf("output cols = %v", a.OutputCols)
	}
	if !strings.Contains(a.String(), "foreign") {
		t.Errorf("summary = %q", a.String())
	}
}

func TestAnalyzeEquiJoin(t *testing.T) {
	a, err := analyze(t, `select * from student, faculty
		where student.advisor = faculty.fname and student.year >= faculty.year`)
	if err == nil {
		// faculty.year doesn't exist → must error; guard against silence.
		t.Fatalf("nonexistent column accepted: %v", a)
	}
	a, err = analyze(t, `select * from student, faculty
		where student.advisor = faculty.fname`)
	if err != nil {
		t.Fatal(err)
	}
	e := a.Edges[0]
	if len(e.Equi) != 1 {
		t.Fatalf("edge = %+v", e)
	}
	// Canonical direction: A="faculty" < B="student".
	if e.Equi[0].Left != "faculty.fname" || e.Equi[0].Right != "student.advisor" {
		t.Fatalf("equi cond = %+v", e.Equi[0])
	}
}

func TestAnalyzeFlipsInequalities(t *testing.T) {
	a, err := analyze(t, `select * from student, faculty
		where student.year > faculty.dept`) // silly but type-free comparison
	if err != nil {
		t.Fatal(err)
	}
	res := a.Edges[0].Residual[0].(relation.ColCol)
	// faculty < student, so the conjunct flips to faculty.dept < student.year.
	if res.Left != "faculty.dept" || res.Op != relation.OpLt || res.Right != "student.year" {
		t.Fatalf("flipped residual = %+v", res)
	}
}

func TestAnalyzeUnqualifiedColumns(t *testing.T) {
	a, err := analyze(t, `select name from student, mercury where name in author`)
	if err != nil {
		t.Fatal(err)
	}
	if a.Foreign[0].Column != "student.name" || a.Foreign[0].Field != "author" {
		t.Fatalf("foreign = %v", a.Foreign)
	}
	if a.OutputCols[0] != "student.name" {
		t.Fatalf("output = %v", a.OutputCols)
	}
	// "dept" is ambiguous between student and faculty.
	if _, err := analyze(t, "select dept from student, faculty"); err == nil {
		t.Fatal("ambiguous column accepted")
	}
}

func TestAnalyzeDocid(t *testing.T) {
	a, err := analyze(t, `select docid from student, mercury where student.name in mercury.author`)
	if err != nil {
		t.Fatal(err)
	}
	if a.OutputCols[0] != "mercury.docid" || a.Part("mercury").LongForm {
		t.Fatalf("docid output = %v, longform=%v", a.OutputCols, a.Part("mercury").LongForm)
	}
	// Selecting a text field forces long form.
	a, err = analyze(t, `select docid, mercury.title from student, mercury where student.name in mercury.author`)
	if err != nil {
		t.Fatal(err)
	}
	if p := a.Part("mercury"); !p.LongForm || len(p.DocFields) != 1 || p.DocFields[0] != "title" {
		t.Fatalf("long form detection: %v %v", p.LongForm, p.DocFields)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	bad := []string{
		"select * from nosuch",
		"select * from student, student",
		"select * from mercury",                                      // no relational table
		"select * from student where 'x' in mercury.title",           // text source not in from
		"select * from student, mercury where 'x' in mercury.nosuch", // unknown field
		"select * from student, mercury where 'x' in student.name",   // right side not text
		"select * from student, mercury where mercury.title = 'x'",   // comparison on text
		"select * from student, mercury where student.name = mercury.title",
		"select * from student, mercury where 'x' in mercury.docid", // docid not searchable
		"select nosuch from student",
		"select * from student where nosuch = 3",
		"select * from student, mercury where '??' in mercury.title", // unsearchable term
	}
	for _, src := range bad {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if _, err := Analyze(q, catalog(t)); err == nil {
			t.Errorf("Analyze(%q) succeeded", src)
		}
	}
}

func TestAnalyzePureRelational(t *testing.T) {
	a, err := analyze(t, `select student.name from student, faculty
		where student.advisor = faculty.fname and student.year > 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Text) != 0 || len(a.Foreign) != 0 {
		t.Fatalf("pure relational query misclassified: %+v", a)
	}
	if len(a.Edges) != 1 || len(a.Tables) != 2 {
		t.Fatalf("edges/tables: %v %v", a.Edges, a.Tables)
	}
}

func TestAnalyzeMultipleTextSelections(t *testing.T) {
	a, err := analyze(t, `select docid from student, mercury
		where 'text' in mercury.title and '1994' in mercury.year
		and student.name in mercury.author`)
	if err != nil {
		t.Fatal(err)
	}
	and, ok := a.Part("mercury").Sel.(textidx.And)
	if !ok || len(and) != 2 {
		t.Fatalf("text selection = %#v", a.Part("mercury").Sel)
	}
}

func TestAnalyzeSelectionsDefaultTrue(t *testing.T) {
	a, err := analyze(t, `select docid from student, mercury where student.name in mercury.author`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Selections["student"].(relation.True); !ok {
		t.Fatalf("selection default = %#v", a.Selections["student"])
	}
}
