package relation

import (
	"fmt"
	"math/rand"
	"testing"

	"textjoin/internal/value"
)

// randPred builds a random predicate over the given schema, depth-bounded.
func randPred(rng *rand.Rand, s *Schema, depth int) Predicate {
	if depth > 0 && rng.Intn(2) == 0 {
		n := 1 + rng.Intn(3)
		kids := make([]Predicate, n)
		for i := range kids {
			kids[i] = randPred(rng, s, depth-1)
		}
		switch rng.Intn(3) {
		case 0:
			return And(kids)
		case 1:
			return Or(kids)
		default:
			return Not{P: kids[0]}
		}
	}
	col := s.Cols[rng.Intn(len(s.Cols))].Name
	op := CmpOp(rng.Intn(6))
	switch rng.Intn(3) {
	case 0:
		return ColConst{Col: col, Op: op, Const: value.Int(int64(rng.Intn(10)))}
	case 1:
		return ColCol{Left: col, Op: op, Right: s.Cols[rng.Intn(len(s.Cols))].Name}
	default:
		return Contains{Col: col, Needle: fmt.Sprintf("w%d", rng.Intn(5))}
	}
}

// TestCompiledEquivalence: a compiled predicate agrees with the
// interpreted evaluation on every row, for random predicates and tables.
func TestCompiledEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	schema := MustSchema(
		Column{Name: "a", Kind: value.KindInt},
		Column{Name: "b", Kind: value.KindInt},
		Column{Name: "s", Kind: value.KindString},
	)
	for trial := 0; trial < 200; trial++ {
		pred := randPred(rng, schema, 3)
		cp, err := Compile(pred, schema)
		if err != nil {
			t.Fatalf("trial %d: compile %s: %v", trial, pred, err)
		}
		for row := 0; row < 20; row++ {
			tuple := Tuple{
				value.Int(int64(rng.Intn(10))),
				value.Int(int64(rng.Intn(10))),
				value.String(fmt.Sprintf("w%d w%d", rng.Intn(5), rng.Intn(5))),
			}
			if rng.Intn(10) == 0 {
				tuple[rng.Intn(3)] = value.Null()
			}
			want, err := pred.Eval(schema, tuple)
			if err != nil {
				t.Fatalf("trial %d: interpreted: %v", trial, err)
			}
			got, err := cp.Eval(tuple)
			if err != nil {
				t.Fatalf("trial %d: compiled: %v", trial, err)
			}
			if got != want {
				t.Fatalf("trial %d: pred %s on %v: compiled=%v interpreted=%v",
					trial, pred, tuple, got, want)
			}
		}
	}
}

// TestCompileUnknownColumn: unknown columns fail at compile time with the
// interpreted path's error text.
func TestCompileUnknownColumn(t *testing.T) {
	schema := MustSchema(Column{Name: "a", Kind: value.KindInt})
	for _, pred := range []Predicate{
		ColConst{Col: "nope", Op: OpEq, Const: value.Int(1)},
		ColCol{Left: "a", Op: OpLt, Right: "nope"},
		Contains{Col: "nope", Needle: "x"},
		And{True{}, Not{P: ColConst{Col: "nope", Op: OpEq, Const: value.Int(1)}}},
	} {
		if _, err := Compile(pred, schema); err == nil {
			t.Errorf("Compile(%s) accepted an unknown column", pred)
		}
	}
}

// externalPred is a Predicate type the compiler does not know; it must be
// kept interpreted, not rejected.
type externalPred struct{}

func (externalPred) Eval(s *Schema, t Tuple) (bool, error) {
	return value.Compare(t[0], value.Int(5)) > 0, nil
}
func (externalPred) String() string { return "external" }

func TestCompileUnknownTypeFallsBack(t *testing.T) {
	schema := MustSchema(Column{Name: "a", Kind: value.KindInt})
	cp, err := Compile(And{externalPred{}}, schema)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := cp.Eval(Tuple{value.Int(7)})
	if err != nil || !ok {
		t.Fatalf("fallback eval = (%v, %v), want (true, nil)", ok, err)
	}
}

func TestPredicateColumns(t *testing.T) {
	p := And{
		ColConst{Col: "a", Op: OpGt, Const: value.Int(1)},
		Or{ColCol{Left: "b", Op: OpNe, Right: "c"}, Contains{Col: "a", Needle: "x"}},
		Not{P: True{}},
	}
	cols, ok := PredicateColumns(p)
	if !ok {
		t.Fatal("vocabulary predicate reported unknown")
	}
	want := []string{"a", "b", "c"}
	if len(cols) != len(want) {
		t.Fatalf("cols = %v, want %v", cols, want)
	}
	for i := range want {
		if cols[i] != want[i] {
			t.Fatalf("cols = %v, want %v", cols, want)
		}
	}
	if _, ok := PredicateColumns(And{externalPred{}}); ok {
		t.Error("unknown predicate type reported as statically known")
	}
}

// benchTable builds a table for the evaluation benchmarks. Column names
// are unqualified; callers join two Qualified() views of it.
func benchTable(name string, rows int) *Table {
	schema := MustSchema(
		Column{Name: "id", Kind: value.KindInt},
		Column{Name: "grp", Kind: value.KindInt},
		Column{Name: "name", Kind: value.KindString},
		Column{Name: "extra", Kind: value.KindString},
	)
	tbl := NewTable(name, schema)
	for i := 0; i < rows; i++ {
		tbl.MustInsert(Tuple{
			value.Int(int64(i)),
			value.Int(int64(i % 16)),
			value.String(fmt.Sprintf("name-%d", i%97)),
			value.String("padding padding padding"),
		})
	}
	return tbl
}

// BenchmarkPredicateEval compares the per-row interpreted path (name
// lookup per row) against the compiled path (offsets resolved once).
func BenchmarkPredicateEval(b *testing.B) {
	tbl := benchTable("t", 4096)
	pred := And{
		ColConst{Col: "grp", Op: OpEq, Const: value.Int(3)},
		ColCol{Left: "id", Op: OpNe, Right: "grp"},
	}
	b.Run("interpreted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range tbl.Rows {
				if _, err := pred.Eval(tbl.Schema, r); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		cp, err := Compile(pred, tbl.Schema)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range tbl.Rows {
				if _, err := cp.Eval(r); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// legacyNestedLoopJoin is the pre-scratch-row formulation, kept here only
// as the benchmark baseline: it concatenates a fresh row per candidate
// pair before evaluating the (interpreted) predicate, even on rejection.
func legacyNestedLoopJoin(left, right *Table, pred Predicate) (*Table, error) {
	schema := left.Schema.Concat(right.Schema)
	out := NewTable(left.Name+"⋈"+right.Name, schema)
	for _, lr := range left.Rows {
		for _, rr := range right.Rows {
			row := lr.Concat(rr)
			ok, err := pred.Eval(schema, row)
			if err != nil {
				return nil, err
			}
			if ok {
				out.Rows = append(out.Rows, row)
			}
		}
	}
	return out, nil
}

// BenchmarkNestedLoopJoin measures the scratch-row nested-loop join (the
// oracle's join) against the legacy concat-per-candidate-pair
// formulation it replaced; the delta is recorded in EXPERIMENTS.md.
func BenchmarkNestedLoopJoin(b *testing.B) {
	left := benchTable("t", 512).Qualified()
	right := benchTable("u", 512).Qualified()
	pred := ColCol{Left: "t.grp", Op: OpEq, Right: "u.grp"}
	for _, bc := range []struct {
		name string
		join func(l, r *Table, p Predicate) (*Table, error)
	}{
		{"legacy", legacyNestedLoopJoin},
		{"scratch", NestedLoopJoin},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := bc.join(left, right, pred)
				if err != nil {
					b.Fatal(err)
				}
				if out.Cardinality() == 0 {
					b.Fatal("empty join")
				}
			}
		})
	}
}
