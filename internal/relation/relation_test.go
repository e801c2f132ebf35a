package relation

import (
	"strings"
	"testing"

	"textjoin/internal/value"
)

func studentTable(t *testing.T) *Table {
	t.Helper()
	schema := MustSchema(
		Column{"name", value.KindString},
		Column{"area", value.KindString},
		Column{"year", value.KindInt},
		Column{"advisor", value.KindString},
	)
	tbl := NewTable("student", schema)
	rows := []Tuple{
		{value.String("Gravano"), value.String("AI"), value.Int(4), value.String("Garcia")},
		{value.String("Kao"), value.String("AI"), value.Int(2), value.String("Garcia")},
		{value.String("Radhika"), value.String("DB"), value.Int(5), value.String("Ullman")},
		{value.String("Pham"), value.String("AI"), value.Int(4), value.String("Garcia")},
		{value.String("Gravano"), value.String("DB"), value.Int(4), value.String("Ullman")},
	}
	for _, r := range rows {
		tbl.MustInsert(r)
	}
	return tbl
}

func TestNewSchemaRejectsDuplicates(t *testing.T) {
	_, err := NewSchema(Column{"a", value.KindInt}, Column{"a", value.KindString})
	if err == nil {
		t.Fatal("duplicate column accepted")
	}
	_, err = NewSchema(Column{"", value.KindInt})
	if err == nil {
		t.Fatal("empty column name accepted")
	}
}

func TestSchemaQualifyAndIndex(t *testing.T) {
	s := MustSchema(Column{"name", value.KindString}, Column{"year", value.KindInt})
	q := s.Qualify("student")
	if q.ColumnIndex("student.name") != 0 || q.ColumnIndex("student.year") != 1 {
		t.Fatalf("qualified schema wrong: %v", q)
	}
	// Qualifying twice must not double-prefix.
	qq := q.Qualify("x")
	if qq.ColumnIndex("student.name") != 0 {
		t.Fatal("re-qualification changed already-qualified names")
	}
	if s.ColumnIndex("name") != 0 {
		t.Fatal("original schema mutated by Qualify")
	}
	if s.ColumnIndex("nope") != -1 {
		t.Fatal("missing column should index -1")
	}
}

func TestInsertValidation(t *testing.T) {
	s := MustSchema(Column{"a", value.KindInt})
	tbl := NewTable("t", s)
	if err := tbl.Insert(Tuple{value.String("x")}); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	if err := tbl.Insert(Tuple{value.Int(1), value.Int(2)}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if err := tbl.Insert(Tuple{value.Null()}); err != nil {
		t.Fatalf("NULL rejected: %v", err)
	}
	if err := tbl.Insert(Tuple{value.Int(7)}); err != nil {
		t.Fatalf("valid row rejected: %v", err)
	}
	if tbl.Cardinality() != 2 {
		t.Fatalf("cardinality = %d, want 2", tbl.Cardinality())
	}
}

func TestColumnAndDistinct(t *testing.T) {
	tbl := studentTable(t)
	names, err := tbl.Column("name")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 5 || !value.Equal(names[0], value.String("Gravano")) {
		t.Fatalf("Column returned %v", names)
	}
	if _, err := tbl.Column("zzz"); err == nil {
		t.Fatal("missing column accepted")
	}

	n, err := tbl.DistinctCount("name")
	if err != nil || n != 4 {
		t.Fatalf("DistinctCount(name) = %d, %v; want 4", n, err)
	}
	n, err = tbl.DistinctCount("name", "area")
	if err != nil || n != 5 {
		t.Fatalf("DistinctCount(name, area) = %d, %v; want 5", n, err)
	}
	n, err = tbl.DistinctCount("advisor")
	if err != nil || n != 2 {
		t.Fatalf("DistinctCount(advisor) = %d, %v; want 2", n, err)
	}
	if _, err := tbl.DistinctCount("zzz"); err == nil {
		t.Fatal("missing column accepted")
	}
}

func TestGroupBy(t *testing.T) {
	tbl := studentTable(t)
	groups, err := tbl.GroupBy("advisor")
	if err != nil {
		t.Fatal(err)
	}
	// Garcia's rows first (first seen), then Ullman's, each ascending.
	if want := [][]int{{0, 1, 3}, {2, 4}}; !sameGroups(groups, want) {
		t.Fatalf("GroupBy(advisor) = %v, want %v", groups, want)
	}
	if _, err := tbl.GroupBy("zzz"); err == nil {
		t.Fatal("missing column accepted")
	}
}

func TestSelectProjectSort(t *testing.T) {
	tbl := studentTable(t)
	sel, err := tbl.Select(And{
		ColConst{"area", OpEq, value.String("AI")},
		ColConst{"year", OpGt, value.Int(3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Cardinality() != 2 {
		t.Fatalf("selection kept %d rows, want 2 (senior AI students)", sel.Cardinality())
	}

	proj, err := sel.Project("name")
	if err != nil {
		t.Fatal(err)
	}
	if proj.Schema.Arity() != 1 || proj.Cardinality() != 2 {
		t.Fatalf("projection wrong: %v", proj)
	}
	if _, err := sel.Project("zzz"); err == nil {
		t.Fatal("missing column accepted")
	}
}

func TestPredicates(t *testing.T) {
	s := MustSchema(Column{"a", value.KindInt}, Column{"b", value.KindInt}, Column{"t", value.KindString})
	row := Tuple{value.Int(3), value.Int(5), value.String("Information Filtering Systems")}

	cases := []struct {
		p    Predicate
		want bool
	}{
		{ColConst{"a", OpEq, value.Int(3)}, true},
		{ColConst{"a", OpNe, value.Int(3)}, false},
		{ColConst{"a", OpLt, value.Int(4)}, true},
		{ColConst{"a", OpLe, value.Int(3)}, true},
		{ColConst{"a", OpGt, value.Int(3)}, false},
		{ColConst{"a", OpGe, value.Int(3)}, true},
		{ColCol{"a", OpLt, "b"}, true},
		{ColCol{"a", OpEq, "b"}, false},
		{And{ColConst{"a", OpEq, value.Int(3)}, ColCol{"a", OpLt, "b"}}, true},
		{And{}, true},
		{Or{ColConst{"a", OpEq, value.Int(99)}, ColConst{"b", OpEq, value.Int(5)}}, true},
		{Or{}, false},
		{Not{ColConst{"a", OpEq, value.Int(3)}}, false},
		{True{}, true},
		{Contains{"t", "filtering"}, true},
		{Contains{"t", "FILTERING"}, true},
		{Contains{"t", "database"}, false},
	}
	for _, c := range cases {
		got, err := c.p.Eval(s, row)
		if err != nil {
			t.Fatalf("%s: %v", c.p, err)
		}
		if got != c.want {
			t.Errorf("%s = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPredicateErrors(t *testing.T) {
	s := MustSchema(Column{"a", value.KindInt})
	row := Tuple{value.Int(1)}
	bad := []Predicate{
		ColConst{"x", OpEq, value.Int(1)},
		ColCol{"x", OpEq, "a"},
		ColCol{"a", OpEq, "x"},
		Contains{"x", "y"},
		And{ColConst{"x", OpEq, value.Int(1)}},
		Or{ColConst{"x", OpEq, value.Int(1)}},
		Not{ColConst{"x", OpEq, value.Int(1)}},
	}
	for _, p := range bad {
		if _, err := p.Eval(s, row); err == nil {
			t.Errorf("%s: missing column not reported", p)
		}
	}
}

func TestContainsNull(t *testing.T) {
	s := MustSchema(Column{"t", value.KindString})
	got, err := Contains{"t", "x"}.Eval(s, Tuple{value.Null()})
	if err != nil || got {
		t.Fatalf("Contains on NULL = %v, %v; want false, nil", got, err)
	}
}

func TestPredicateStrings(t *testing.T) {
	p := And{
		ColConst{"area", OpEq, value.String("AI")},
		Or{ColCol{"a", OpNe, "b"}},
		Not{True{}},
	}
	s := p.String()
	for _, want := range []string{"area = 'AI'", "a != b", "not (TRUE)"} {
		if !strings.Contains(s, want) {
			t.Errorf("predicate rendering %q missing %q", s, want)
		}
	}
	if (And{}).String() != "TRUE" || (Or{}).String() != "FALSE" {
		t.Error("empty And/Or rendering wrong")
	}
}

func facultyTable(t *testing.T) *Table {
	t.Helper()
	schema := MustSchema(
		Column{"fname", value.KindString},
		Column{"dept", value.KindString},
	)
	tbl := NewTable("faculty", schema)
	for _, r := range []Tuple{
		{value.String("Garcia"), value.String("CS")},
		{value.String("Ullman"), value.String("CS")},
		{value.String("Widom"), value.String("EE")},
	} {
		tbl.MustInsert(r)
	}
	return tbl
}

func TestNestedLoopJoin(t *testing.T) {
	s := studentTable(t)
	f := facultyTable(t)
	out, err := NestedLoopJoin(s, f, ColCol{"advisor", OpEq, "fname"})
	if err != nil {
		t.Fatal(err)
	}
	if out.Cardinality() != 5 {
		t.Fatalf("join produced %d rows, want 5", out.Cardinality())
	}
	if out.Schema.Arity() != 6 {
		t.Fatalf("join schema arity = %d, want 6", out.Schema.Arity())
	}
}

func TestTupleCloneAndConcat(t *testing.T) {
	a := Tuple{value.Int(1), value.Int(2)}
	c := a.Clone()
	c[0] = value.Int(9)
	if !value.Equal(a[0], value.Int(1)) {
		t.Fatal("Clone is not a deep copy of the tuple slice")
	}
	ab := a.Concat(Tuple{value.Int(3)})
	if len(ab) != 3 || !value.Equal(ab[2], value.Int(3)) {
		t.Fatal("Concat wrong")
	}
}

func TestQualifiedView(t *testing.T) {
	tbl := studentTable(t)
	q := tbl.Qualified()
	if q.Schema.ColumnIndex("student.name") != 0 {
		t.Fatal("Qualified did not prefix columns")
	}
	if len(q.Rows) != len(tbl.Rows) {
		t.Fatal("Qualified must share rows")
	}
}

func TestStringRenderings(t *testing.T) {
	tbl := studentTable(t)
	s := tbl.String()
	if !strings.Contains(s, "student") || !strings.Contains(s, "5 rows") {
		t.Errorf("table rendering %q", s)
	}
	if !strings.Contains(tbl.Schema.String(), "name VARCHAR") {
		t.Errorf("schema rendering %q", tbl.Schema)
	}
	if OpGe.String() != ">=" || CmpOp(250).String() == "" {
		t.Error("operator rendering wrong")
	}
}
