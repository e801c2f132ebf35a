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
	return vec.Materialize(left.Name+"⋈"+right.Name, join, nil)
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

// TestHashJoinEqualsNestedLoopOnMixedKeys: on random two-column tuples
// mixing Int and integral Float, ±0, NULL, Bools and strings holding the
// 0x1f separator, the hash join on both columns equals the nested-loop
// join on both equalities, row for row. NaN is left out: Compare, and so
// the nested loop, equates it with every number.
func TestHashJoinEqualsNestedLoopOnMixedKeys(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		l := relation.KeyTable(2*seed, "l", 30, false)
		r := relation.KeyTable(2*seed+1, "r", 30, false)
		hj, err := hashJoin(l, r, []relation.EquiJoinCond{{Left: "l1", Right: "r1"}, {Left: "l2", Right: "r2"}})
		if err != nil {
			t.Fatal(err)
		}
		nl, err := relation.NestedLoopJoin(l, r, relation.And{
			relation.ColCol{Left: "l1", Op: relation.OpEq, Right: "r1"},
			relation.ColCol{Left: "l2", Op: relation.OpEq, Right: "r2"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if hj.Cardinality() != nl.Cardinality() {
			t.Fatalf("seed %d: hash join %d rows, nested loop %d", seed, hj.Cardinality(), nl.Cardinality())
		}
		for i := range nl.Rows {
			for j := range nl.Rows[i] {
				if !value.KeyEqual(nl.Rows[i][j], hj.Rows[i][j]) {
					t.Fatalf("seed %d: row %d differs: hash %v, nested loop %v", seed, i, hj.Rows[i], nl.Rows[i])
				}
			}
		}
	}
}
