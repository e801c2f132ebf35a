package relation_test

import (
	"testing"
	"testing/quick"

	"textjoin/internal/relation"
	"textjoin/internal/value"
	"textjoin/internal/vec"
)

// hashJoin runs the batch hash join of internal/vec over two tables and
// materializes its output.
func hashJoin(left, right *relation.Table, conds []relation.EquiJoinCond) (*relation.Table, error) {
	ls, err := vec.NewTableScan(left, nil, nil)
	if err != nil {
		return nil, err
	}
	rs, err := vec.NewTableScan(right, nil, nil)
	if err != nil {
		return nil, err
	}
	join, err := vec.NewHashJoin(ls, rs, conds, nil)
	if err != nil {
		return nil, err
	}
	return vec.Materialize(left.Name+"⋈"+right.Name, join)
}

func TestHashJoinMatchesNestedLoop(t *testing.T) {
	s := relation.StudentTable(t)
	f := relation.FacultyTable(t)
	nl, err := relation.NestedLoopJoin(s, f, relation.ColCol{Left: "advisor", Op: relation.OpEq, Right: "fname"})
	if err != nil {
		t.Fatal(err)
	}
	hj, err := hashJoin(s, f, []relation.EquiJoinCond{{Left: "advisor", Right: "fname"}})
	if err != nil {
		t.Fatal(err)
	}
	if nl.Cardinality() != hj.Cardinality() {
		t.Fatalf("hash join %d rows, nested loop %d", hj.Cardinality(), nl.Cardinality())
	}
	for i := range nl.Rows {
		for j := range nl.Rows[i] {
			if !value.Equal(nl.Rows[i][j], hj.Rows[i][j]) {
				t.Fatalf("row %d differs between join algorithms", i)
			}
		}
	}
}

// TestHashJoinEqualsNestedLoop: on random tables, the hash join equals
// the nested-loop join with the equivalent predicate (quick).
func TestHashJoinEqualsNestedLoop(t *testing.T) {
	prop := func(seedL, seedR int64) bool {
		l := relation.RandTable(seedL, "l", 12)
		r := relation.RandTable(seedR, "r", 12)
		hj, err := hashJoin(l, r, []relation.EquiJoinCond{{Left: "l1", Right: "r1"}})
		if err != nil {
			return false
		}
		nl, err := relation.NestedLoopJoin(l, r, relation.ColCol{Left: "l1", Op: relation.OpEq, Right: "r1"})
		if err != nil {
			return false
		}
		return relation.SameMultiset(hj, nl)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
