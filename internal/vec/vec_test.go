package vec

import (
	"fmt"
	"math/rand"
	"testing"

	"textjoin/internal/relation"
	"textjoin/internal/value"
)

func testTable(name string, rows int, rng *rand.Rand) *relation.Table {
	schema := relation.MustSchema(
		relation.Column{Name: "id", Kind: value.KindInt},
		relation.Column{Name: "grp", Kind: value.KindInt},
		relation.Column{Name: "name", Kind: value.KindString},
		relation.Column{Name: "extra", Kind: value.KindString},
	)
	tbl := relation.NewTable(name, schema)
	for i := 0; i < rows; i++ {
		tbl.MustInsert(relation.Tuple{
			value.Int(int64(i)),
			value.Int(int64(rng.Intn(32))),
			value.String(fmt.Sprintf("name-%d", rng.Intn(50))),
			value.String("padding padding padding"),
		})
	}
	return tbl
}

// sameRows asserts exact equality of rows including order; the batch
// operators are specified to preserve the output order of relation's
// table-at-a-time Select, Project and NestedLoopJoin — the "row engine"
// the tests check them against.
func sameRows(t *testing.T, got, want *relation.Table) {
	t.Helper()
	if got.Schema.String() != want.Schema.String() {
		t.Fatalf("schema mismatch:\n got %s\nwant %s", got.Schema, want.Schema)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("row count mismatch: got %d, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		for j := range got.Rows[i] {
			if value.Compare(got.Rows[i][j], want.Rows[i][j]) != 0 {
				t.Fatalf("row %d col %d: got %v, want %v", i, j, got.Rows[i][j], want.Rows[i][j])
			}
		}
	}
}

func TestScanSelectProjectMatchesRowEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, rows := range []int{0, 1, 7, BatchSize, BatchSize + 1, 3*BatchSize + 17} {
		tbl := testTable("t", rows, rng)
		pred := relation.ColConst{Col: "grp", Op: relation.OpLt, Const: value.Int(9)}

		// The selection runs fused into the scan; the projection is a
		// separate operator over the filtered batches.
		scan, err := NewTableScan(tbl, nil, pred)
		if err != nil {
			t.Fatal(err)
		}
		proj, err := NewProject(scan, []string{"name", "id"})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Materialize("t", proj, nil)
		if err != nil {
			t.Fatal(err)
		}

		selected, err := tbl.Select(pred)
		if err != nil {
			t.Fatal(err)
		}
		want, err := selected.Project("name", "id")
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, got, want)
	}
}

func TestTableScanFusedFilterProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tbl := testTable("t", 2*BatchSize+5, rng)
	// The pushed-down filter references "grp", which the projection drops:
	// the scan must evaluate against the full source row.
	pred := relation.ColConst{Col: "grp", Op: relation.OpGe, Const: value.Int(20)}
	scan, err := NewTableScan(tbl, []string{"id", "name"}, pred)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Materialize("t", scan, nil)
	if err != nil {
		t.Fatal(err)
	}
	selected, err := tbl.Select(pred)
	if err != nil {
		t.Fatal(err)
	}
	want, err := selected.Project("id", "name")
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, got, want)
}

func TestSelectSkipsEmptyBatches(t *testing.T) {
	// A filter fused into the scan that rejects entire batch-sized
	// stretches must not surface them as empty batches.
	rng := rand.New(rand.NewSource(13))
	tbl := testTable("t", 4*BatchSize, rng)
	pred := relation.ColConst{Col: "id", Op: relation.OpGe, Const: value.Int(int64(3 * BatchSize))}
	scan, err := NewTableScan(tbl, nil, pred)
	if err != nil {
		t.Fatal(err)
	}
	rows, batches, err := Drain(scan)
	if err != nil {
		t.Fatal(err)
	}
	scan.Close()
	if rows != BatchSize {
		t.Fatalf("rows = %d, want %d", rows, BatchSize)
	}
	if batches != 1 {
		t.Fatalf("batches = %d, want 1 (empty batches must be skipped)", batches)
	}
}

// equiPred is the predicate form of an equi-join: the conjunction of the
// conditions' column equalities and the residual (nil for none).
func equiPred(conds []relation.EquiJoinCond, residual relation.Predicate) relation.Predicate {
	var conj relation.And
	for _, c := range conds {
		conj = append(conj, relation.ColCol{Left: c.Left, Op: relation.OpEq, Right: c.Right})
	}
	if residual != nil {
		conj = append(conj, residual)
	}
	return conj
}

// TestHashJoinMatchesRowEngine: the hash join equals relation's
// nested-loop join over the equivalent predicate, row for row and in order.
func TestHashJoinMatchesRowEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, rows := range []int{0, 3, BatchSize + 40} {
		left := testTable("t", rows, rng).Qualified()
		right := testTable("u", rows/2+1, rng).Qualified()
		conds := []relation.EquiJoinCond{{Left: "t.grp", Right: "u.grp"}}
		residual := relation.ColCol{Left: "t.id", Op: relation.OpNe, Right: "u.id"}

		ls, err := NewTableScan(left, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := NewTableScan(right, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		join, err := NewHashJoin(ls, rs, conds, residual)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Materialize("j", join, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := relation.NestedLoopJoin(left, right, equiPred(conds, residual))
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, got, want)
	}
}

func TestNestedLoopMatchesRowEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, rows := range []int{0, 5, 90} {
		left := testTable("t", rows, rng).Qualified()
		right := testTable("u", rows, rng).Qualified()
		pred := relation.ColCol{Left: "t.grp", Op: relation.OpNe, Right: "u.grp"}

		ls, err := NewTableScan(left, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := NewTableScan(right, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		join, err := NewNestedLoop(ls, rs, pred)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Materialize("j", join, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := relation.NestedLoopJoin(left, right, pred)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, got, want)
	}
}

// pairTable builds a two-column (id, grp) integer table.
func pairTable(name string, rows ...[2]int64) *relation.Table {
	tbl := relation.NewTable(name, relation.MustSchema(
		relation.Column{Name: "id", Kind: value.KindInt},
		relation.Column{Name: "grp", Kind: value.KindInt},
	))
	for _, r := range rows {
		tbl.MustInsert(relation.Tuple{value.Int(r[0]), value.Int(r[1])})
	}
	return tbl.Qualified()
}

// scans opens a TableScan over each table.
func scans(t *testing.T, tables ...*relation.Table) []Operator {
	t.Helper()
	ops := make([]Operator, len(tables))
	for i, tbl := range tables {
		op, err := NewTableScan(tbl, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ops[i] = op
	}
	return ops
}

func TestHashJoinErrors(t *testing.T) {
	left, right := pairTable("t"), pairTable("u")
	for _, conds := range [][]relation.EquiJoinCond{
		{{Left: "t.zzz", Right: "u.grp"}},
		{{Left: "t.grp", Right: "u.zzz"}},
		nil,
	} {
		ops := scans(t, left, right)
		if _, err := NewHashJoin(ops[0], ops[1], conds, nil); err == nil {
			t.Errorf("NewHashJoin accepted conds %v", conds)
		}
	}
}

func TestHashJoinResidual(t *testing.T) {
	left := pairTable("t", [2]int64{1, 1}, [2]int64{2, 1}, [2]int64{3, 2}, [2]int64{4, 2})
	right := pairTable("u", [2]int64{1, 1}, [2]int64{2, 2}, [2]int64{3, 2})
	conds := []relation.EquiJoinCond{{Left: "t.grp", Right: "u.grp"}}
	for _, c := range []struct {
		residual relation.Predicate
		want     int
	}{
		// grp 1: 2 x 1 pairs, grp 2: 2 x 2 pairs.
		{nil, 6},
		// Of those, only (1,1) and (3,3) also agree on id.
		{relation.ColCol{Left: "t.id", Op: relation.OpEq, Right: "u.id"}, 2},
	} {
		ops := scans(t, left, right)
		join, err := NewHashJoin(ops[0], ops[1], conds, c.residual)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Materialize("j", join, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cardinality() != c.want {
			t.Errorf("residual %v: %d rows, want %d", c.residual, got.Cardinality(), c.want)
		}
	}
}

func TestNestedLoopNilResidualIsCrossProduct(t *testing.T) {
	left := pairTable("t", [2]int64{1, 1}, [2]int64{2, 1}, [2]int64{3, 2})
	right := pairTable("u", [2]int64{1, 1}, [2]int64{2, 2})
	ops := scans(t, left, right)
	join, err := NewNestedLoop(ops[0], ops[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Materialize("j", join, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := relation.NestedLoopJoin(left, right, relation.True{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != left.Cardinality()*right.Cardinality() {
		t.Fatalf("%d rows, want %d", got.Cardinality(), left.Cardinality()*right.Cardinality())
	}
	sameRows(t, got, want)
}

// TestHashJoinKeysDoNotCollide: a two-column equi-join does not pair
// ('x\x1fsy', 'z') with ('x', 'y\x1fsz'), whose value.KeyOf strings
// coincide, and still pairs equal keys.
func TestHashJoinKeysDoNotCollide(t *testing.T) {
	pairs := func(name string, rows ...[2]string) *relation.Table {
		tbl := relation.NewTable(name, relation.MustSchema(
			relation.Column{Name: "a", Kind: value.KindString},
			relation.Column{Name: "b", Kind: value.KindString},
		))
		for _, r := range rows {
			tbl.MustInsert(relation.Tuple{value.String(r[0]), value.String(r[1])})
		}
		return tbl.Qualified()
	}
	left := pairs("t", [2]string{"x\x1fsy", "z"}, [2]string{"p", "q"})
	right := pairs("u", [2]string{"x", "y\x1fsz"}, [2]string{"p", "q"})
	if value.KeyOf(left.Rows[0]...) != value.KeyOf(right.Rows[0]...) {
		t.Fatal("fixture is vacuous: the rows no longer share a KeyOf")
	}
	ops := scans(t, left, right)
	join, err := NewHashJoin(ops[0], ops[1], []relation.EquiJoinCond{
		{Left: "t.a", Right: "u.a"}, {Left: "t.b", Right: "u.b"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Materialize("j", join, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != 1 || !value.Equal(got.Rows[0][0], value.String("p")) {
		t.Fatalf("join = %v, want only the (p, q) pair", got.Rows)
	}
}

// TestMaterializeIntoArena: rows materialized into an arena equal the
// heap's, stay apart when a row is appended to, and read NULL after
// Release.
func TestMaterializeIntoArena(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tbl := testTable("t", 2*BatchSize+3, rng)
	pred := relation.ColConst{Col: "grp", Op: relation.OpLt, Const: value.Int(16)}
	materialize := func(mem *Arena) *relation.Table {
		scan, err := NewTableScan(tbl, nil, pred)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Materialize("t", scan, mem)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := materialize(nil)
	var mem Arena
	got := materialize(&mem)
	sameRows(t, got, want)
	_ = append(got.Rows[0], value.Int(-1))
	sameRows(t, got, want)
	row := got.Rows[0]
	mem.Release()
	for j, v := range row {
		if !v.IsNull() {
			t.Fatalf("column %d of a released row reads %v, want NULL", j, v)
		}
	}
}

// TestSteadyStateAllocs is the allocation regression gate: once the
// operator tree is constructed and warmed, draining the filtering scan
// and the projection above it must not allocate at all.
func TestSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tbl := testTable("t", 4*BatchSize, rng)
	pred := relation.ColConst{Col: "grp", Op: relation.OpLt, Const: value.Int(20)}
	scan, err := NewTableScan(tbl, nil, pred)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := NewProject(scan, []string{"name", "id"})
	if err != nil {
		t.Fatal(err)
	}
	defer proj.Close()
	if _, _, err := Drain(proj); err != nil { // warm the path once
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		scan.Reset()
		if _, _, err := Drain(proj); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state scan/project drain allocated %.1f times per run, want 0", allocs)
	}
}

func BenchmarkScanSelectProject(b *testing.B) {
	rng := rand.New(rand.NewSource(18))
	tbl := testTable("t", 16*BatchSize, rng)
	pred := relation.ColConst{Col: "grp", Op: relation.OpLt, Const: value.Int(16)}

	b.Run("row", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			selected, err := tbl.Select(pred)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := selected.Project("name", "id"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("vec", func(b *testing.B) {
		scan, err := NewTableScan(tbl, nil, pred)
		if err != nil {
			b.Fatal(err)
		}
		proj, err := NewProject(scan, []string{"name", "id"})
		if err != nil {
			b.Fatal(err)
		}
		defer proj.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scan.Reset()
			if _, _, err := Drain(proj); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkVecHashJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	left := testTable("t", 8*BatchSize, rng).Qualified()
	right := testTable("u", 8*BatchSize, rng).Qualified()
	conds := []relation.EquiJoinCond{{Left: "t.id", Right: "u.id"}}

	b.Run("vec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ls, _ := NewTableScan(left, nil, nil)
			rs, _ := NewTableScan(right, nil, nil)
			join, err := NewHashJoin(ls, rs, conds, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := Drain(join); err != nil {
				b.Fatal(err)
			}
			join.Close()
		}
	})
	// Projection pruning: the same join carrying only the columns the
	// query references (2 of 8), as the planner produces after pruning.
	b.Run("vec-pruned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ls, _ := NewTableScan(left, []string{"t.id", "t.name"}, nil)
			rs, _ := NewTableScan(right, []string{"u.id"}, nil)
			join, err := NewHashJoin(ls, rs, conds, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := Drain(join); err != nil {
				b.Fatal(err)
			}
			join.Close()
		}
	})
}

func BenchmarkVecNestedLoop(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	left := testTable("t", 512, rng).Qualified()
	right := testTable("u", 512, rng).Qualified()
	pred := relation.ColCol{Left: "t.grp", Op: relation.OpEq, Right: "u.grp"}

	b.Run("row", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := relation.NestedLoopJoin(left, right, pred); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("vec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ls, _ := NewTableScan(left, nil, nil)
			rs, _ := NewTableScan(right, nil, nil)
			join, err := NewNestedLoop(ls, rs, pred)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := Drain(join); err != nil {
				b.Fatal(err)
			}
			join.Close()
		}
	})
}
