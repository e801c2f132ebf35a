package optimizer

import (
	"math"
	"testing"

	"textjoin/internal/relation"
	"textjoin/internal/stats"
	"textjoin/internal/value"
)

func estimatorFixture(t *testing.T) *Optimizer {
	t.Helper()
	cat, svc := fixture(t, 20)
	a := mustAnalyze(t, cat, q5src)
	est := stats.New(svc, stats.WithSampleSize(1000))
	o, err := New(a, cat, svc, est, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestPredSelectivityBranches(t *testing.T) {
	o := estimatorFixture(t)
	table := "student"
	cases := []struct {
		pred relation.Predicate
		lo   float64
		hi   float64
	}{
		{nil, 1, 1},
		{relation.True{}, 1, 1},
		{relation.ColConst{Col: "student.dept", Op: relation.OpEq, Const: value.String("cs")}, 0, 1},
		{relation.ColConst{Col: "student.dept", Op: relation.OpNe, Const: value.String("cs")}, 0, 1},
		{relation.ColConst{Col: "student.year", Op: relation.OpGt, Const: value.Int(3)}, rangeSelectivity, rangeSelectivity},
		{relation.ColCol{Left: "student.name", Op: relation.OpEq, Right: "student.dept"}, colColSelectivity, colColSelectivity},
		{relation.ColCol{Left: "student.name", Op: relation.OpNe, Right: "student.dept"}, 1 - colColSelectivity, 1 - colColSelectivity},
		{relation.Contains{Col: "student.name", Needle: "x"}, containsSelectivity, containsSelectivity},
		{relation.And{relation.True{}, relation.ColConst{Col: "student.year", Op: relation.OpLt, Const: value.Int(2)}}, rangeSelectivity, rangeSelectivity},
		{relation.Or{relation.True{}, relation.True{}}, 1, 1},
		{relation.Not{P: relation.True{}}, 0, 0},
	}
	for i, c := range cases {
		got, err := o.predSelectivity(table, c.pred)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got < c.lo-1e-12 || got > c.hi+1e-12 {
			t.Errorf("case %d: selectivity %v not in [%v, %v]", i, got, c.lo, c.hi)
		}
	}
	// Eq/Ne are complementary.
	eq, _ := o.predSelectivity(table, relation.ColConst{Col: "student.dept", Op: relation.OpEq, Const: value.String("cs")})
	ne, _ := o.predSelectivity(table, relation.ColConst{Col: "student.dept", Op: relation.OpNe, Const: value.String("cs")})
	if math.Abs(eq+ne-1) > 1e-12 {
		t.Errorf("eq (%v) + ne (%v) != 1", eq, ne)
	}
	// Unknown columns error.
	if _, err := o.predSelectivity(table, relation.ColConst{Col: "student.zzz", Op: relation.OpEq, Const: value.Int(1)}); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestDistinctOfCachesAndErrors(t *testing.T) {
	o := estimatorFixture(t)
	d1, err := o.distinctOf("student", "student.dept")
	if err != nil || d1 < 1 {
		t.Fatalf("distinctOf = %d, %v", d1, err)
	}
	d2, err := o.distinctOf("student", "student.dept")
	if err != nil || d2 != d1 {
		t.Fatalf("cache miss: %d vs %d", d2, d1)
	}
	if _, err := o.distinctOf("nosuch", "nosuch.c"); err == nil {
		t.Error("unknown table accepted")
	}
	// A base column whose name already carries a dot keeps it under
	// Qualify, and resolves under that name.
	dotted := relation.NewTable("t", &relation.Schema{Cols: []relation.Column{{Name: "t.k", Kind: value.KindInt}}})
	dotted.MustInsert(relation.Tuple{value.Int(1)})
	dotted.MustInsert(relation.Tuple{value.Int(2)})
	o.cat.Tables["t"] = dotted
	if d, err := o.distinctOf("t", "t.k"); err != nil || d != 2 {
		t.Errorf("distinctOf on a dotted base column = %d, %v; want 2", d, err)
	}
}

func TestTableOfColumn(t *testing.T) {
	if tableOfColumn("student.name") != "student" || tableOfColumn("bare") != "bare" {
		t.Fatal("tableOfColumn wrong")
	}
	if unqualify("student.name") != "name" || unqualify("bare") != "bare" {
		t.Fatal("unqualify wrong")
	}
}

func TestMaskOf(t *testing.T) {
	o := estimatorFixture(t)
	c, err := o.scanCand("student")
	if err != nil {
		t.Fatal(err)
	}
	if o.maskOf(c.node) != o.tableBit["student"] {
		t.Fatal("scan mask wrong")
	}
	probes, err := o.probeCands(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(probes) == 0 {
		t.Fatal("no probe candidates for a table with foreign predicates")
	}
	if o.maskOf(probes[0].node) != o.tableBit["student"] {
		t.Fatal("probe mask wrong")
	}
}
