package sqlparse

import (
	"testing"

	"textjoin/internal/relation"
	"textjoin/internal/value"
)

func TestParseQ1(t *testing.T) {
	q, err := Parse(`select * from student, mercury
		where student.area = 'AI' and student.year > 3
		and 'belief update' in mercury.title
		and student.name in mercury.author`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Star {
		t.Error("star not recognised")
	}
	if len(q.From) != 2 || q.From[0] != "student" || q.From[1] != "mercury" {
		t.Errorf("from = %v", q.From)
	}
	if len(q.Conjuncts) != 4 {
		t.Fatalf("conjuncts = %d", len(q.Conjuncts))
	}
	c0, ok := q.Conjuncts[0].(Comparison)
	if !ok || c0.Left.Qualified() != "student.area" || c0.Op != relation.OpEq ||
		!value.Equal(c0.RightLit, value.String("AI")) {
		t.Errorf("conjunct 0 = %#v", q.Conjuncts[0])
	}
	c1 := q.Conjuncts[1].(Comparison)
	if c1.Op != relation.OpGt || !value.Equal(c1.RightLit, value.Int(3)) {
		t.Errorf("conjunct 1 = %#v", c1)
	}
	c2, ok := q.Conjuncts[2].(TextPred)
	if !ok || !c2.IsConst || c2.ConstTerm != "belief update" || c2.Field.Qualified() != "mercury.title" {
		t.Errorf("conjunct 2 = %#v", q.Conjuncts[2])
	}
	c3, ok := q.Conjuncts[3].(TextPred)
	if !ok || c3.IsConst || c3.Col.Qualified() != "student.name" {
		t.Errorf("conjunct 3 = %#v", q.Conjuncts[3])
	}
}

func TestParseSelectList(t *testing.T) {
	q, err := Parse("select docid, student.name from student, mercury")
	if err != nil {
		t.Fatal(err)
	}
	if q.Star || len(q.Select) != 2 {
		t.Fatalf("select = %v", q.Select)
	}
	if q.Select[0].Table != "" || q.Select[0].Column != "docid" {
		t.Errorf("select[0] = %v", q.Select[0])
	}
	if q.Select[1].Qualified() != "student.name" {
		t.Errorf("select[1] = %v", q.Select[1])
	}
}

func TestParseOperators(t *testing.T) {
	ops := map[string]relation.CmpOp{
		"=": relation.OpEq, "!=": relation.OpNe, "<>": relation.OpNe,
		"<": relation.OpLt, "<=": relation.OpLe, ">": relation.OpGt, ">=": relation.OpGe,
	}
	for text, op := range ops {
		q, err := Parse("select * from r where r.a " + text + " 5")
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		c := q.Conjuncts[0].(Comparison)
		if c.Op != op {
			t.Errorf("%s parsed as %v", text, c.Op)
		}
	}
}

func TestParseLiterals(t *testing.T) {
	q, err := Parse("select * from r where r.a > 2.5 and r.b = -3 and r.c = 'x y'")
	if err != nil {
		t.Fatal(err)
	}
	if v := q.Conjuncts[0].(Comparison).RightLit; v.Kind() != value.KindFloat || v.AsFloat() != 2.5 {
		t.Errorf("float literal = %v", v)
	}
	if v := q.Conjuncts[1].(Comparison).RightLit; !value.Equal(v, value.Int(-3)) {
		t.Errorf("negative int literal = %v", v)
	}
	if v := q.Conjuncts[2].(Comparison).RightLit; !value.Equal(v, value.String("x y")) {
		t.Errorf("string literal = %v", v)
	}
}

func TestParseColumnComparison(t *testing.T) {
	q, err := Parse("select * from s, f where f.dept != s.dept")
	if err != nil {
		t.Fatal(err)
	}
	c := q.Conjuncts[0].(Comparison)
	if !c.RightIsCol || c.RightCol.Qualified() != "s.dept" {
		t.Errorf("column comparison = %#v", c)
	}
}

func TestParseNoWhere(t *testing.T) {
	q, err := Parse("select * from r")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Conjuncts) != 0 {
		t.Errorf("conjuncts = %v", q.Conjuncts)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"select",
		"select * r",
		"select * from",
		"select * from r where",
		"select * from r where r.a",
		"select * from r where r.a =",
		"select * from r where r.a = 'unterminated",
		"select * from r where 'x' = r.a",
		"select * from r where 'x' in",
		"select * from r where r.a ! 3",
		"select * from r extra",
		"select * from r where r.a = 3 and",
		"select *, from r",
		"select * from r where r.a = 1.2.3",
		"select * from r where r.. = 1",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	srcs := []string{
		"select * from student, mercury where student.area = 'AI' and 'belief update' in mercury.title",
		"select docid from student, mercury where student.name in mercury.author",
		"select student.name, mercury.docid from student, faculty, mercury where faculty.dept != student.dept",
	}
	for _, src := range srcs {
		q1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		q2, err := Parse(q1.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", q1.String(), err)
		}
		if q1.String() != q2.String() {
			t.Errorf("round trip changed:\n%s\n%s", q1, q2)
		}
	}
}

func TestCaseInsensitivity(t *testing.T) {
	q, err := Parse("SELECT * FROM Student WHERE Student.Area = 'AI' AND 'x' IN Mercury.Title")
	if err != nil {
		t.Fatal(err)
	}
	if q.From[0] != "student" {
		t.Errorf("table not lower-cased: %v", q.From)
	}
	c := q.Conjuncts[0].(Comparison)
	if c.Left.Qualified() != "student.area" {
		t.Errorf("column not lower-cased: %v", c.Left)
	}
	// String literal case preserved.
	if !value.Equal(c.RightLit, value.String("AI")) {
		t.Errorf("literal case changed: %v", c.RightLit)
	}
}
