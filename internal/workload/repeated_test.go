package workload

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"

	"textjoin/internal/relation"
)

// TestRepeatedMatchesBenchmark guards the copy: NewRepeated restates the
// table builder and the four SQL shapes of the repository benchmark's
// warm_repeat (benchmark/workloads.go, a main package that cannot be
// imported), and BenchmarkPrepare and the cardinality gate only measure
// the benchmark's workload while the two agree. The benchmark's shapes
// and sizes are read from its source and compared with what NewRepeated
// builds at the benchmark's fact-table size.
func TestRepeatedMatchesBenchmark(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "../../benchmark/workloads.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// var warmShapes = []string{...} and var fullSizes = sizes{warm: repeated{...}, ...}
	var shapes []string
	size := map[string]int{}
	ast.Inspect(file, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok || len(spec.Names) != 1 || len(spec.Values) != 1 {
			return true
		}
		lit, ok := spec.Values[0].(*ast.CompositeLit)
		if !ok {
			return true
		}
		switch spec.Names[0].Name {
		case "warmShapes":
			for _, e := range lit.Elts {
				s, err := strconv.Unquote(e.(*ast.BasicLit).Value)
				if err != nil {
					t.Fatal(err)
				}
				shapes = append(shapes, s)
			}
		case "fullSizes":
			for _, e := range lit.Elts {
				kv := e.(*ast.KeyValueExpr)
				if kv.Key.(*ast.Ident).Name != "warm" {
					continue
				}
				for _, f := range kv.Value.(*ast.CompositeLit).Elts {
					fkv := f.(*ast.KeyValueExpr)
					v, err := strconv.Atoi(fkv.Value.(*ast.BasicLit).Value)
					if err != nil {
						t.Fatal(err)
					}
					size[fkv.Key.(*ast.Ident).Name] = v
				}
			}
		}
		return true
	})
	if len(shapes) != 4 || size["factRows"] == 0 {
		t.Fatalf("benchmark/workloads.go no longer declares warmShapes / fullSizes.warm as literals (shapes %d, sizes %v); "+
			"re-point this test or build warm_repeat from NewRepeated", len(shapes), size)
	}

	w := NewRepeated(size["factRows"], 1)
	if len(w.Queries) != len(shapes) {
		t.Fatalf("%d queries, benchmark has %d shapes", len(w.Queries), len(shapes))
	}
	for i, shape := range shapes {
		// The benchmark's first value of each shape: fact.id in the top half.
		want := fmt.Sprintf(shape, size["factRows"]/2, size["factRows"], size["dimRows"]/2, w.Corpus.Years[0])
		if w.Queries[i] != want {
			t.Errorf("shape %d drifted from the benchmark:\n got %s\nwant %s", i, w.Queries[i], want)
		}
	}

	distinct := func(tbl *relation.Table, col string) int {
		d, err := tbl.DistinctCount(col)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	for _, c := range []struct {
		what      string
		got, want int
	}{
		{"corpus documents", w.Corpus.Index.NumDocs(), size["docs"]},
		{"fact rows", len(w.Fact.Rows), size["factRows"]},
		{"dim rows", len(w.Dim.Rows), size["dimRows"]},
		{"distinct fact.id", distinct(w.Fact, "id"), size["factRows"]},
		{"distinct fact.grp", distinct(w.Fact, "grp"), size["grpDom"]},
		{"distinct fact.name", distinct(w.Fact, "name"), size["namePool"]},
		{"distinct dim.grp", distinct(w.Dim, "grp"), size["grpDom"]},
		{"distinct dim.name", distinct(w.Dim, "name"), size["namePool"]},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, the benchmark's warm_repeat has %d", c.what, c.got, c.want)
		}
	}
}
