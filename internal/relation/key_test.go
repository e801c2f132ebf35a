package relation

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"textjoin/internal/value"
)

// keyValues are what the key tests draw from: numbers equal across kinds
// (Int, integral Float, ±0), NaN, NULL, Bools, and strings holding the
// 0x1f separator value.KeyOf joins values with — ("x\x1fsy", "z") and
// ("x", "y\x1fsz") share a KeyOf.
var keyValues = []value.Value{
	value.Int(0), value.Float(0), value.Float(math.Copysign(0, -1)),
	value.Int(3), value.Float(3), value.Float(3.5), value.Float(math.NaN()),
	value.Null(), value.Bool(false), value.Bool(true),
	value.String(""), value.String("x"), value.String("z"), value.String("i3"),
	value.String("x\x1fsy"), value.String("y\x1fsz"),
}

// keyTable returns a table of up to maxRows random rows of two columns
// drawn from keyValues, NaN only when nan is set. Rows are appended
// directly: the columns mix kinds on purpose.
func keyTable(seed int64, name string, maxRows int, nan bool) *Table {
	rng := rand.New(rand.NewSource(seed))
	t := NewTable(name, MustSchema(
		Column{Name: name + "1", Kind: value.KindString},
		Column{Name: name + "2", Kind: value.KindString},
	))
	draw := func() value.Value {
		for {
			v := keyValues[rng.Intn(len(keyValues))]
			if nan || v.Kind() != value.KindFloat || !math.IsNaN(v.AsFloat()) {
				return v
			}
		}
	}
	for n := rng.Intn(maxRows + 1); n > 0; n-- {
		t.Rows = append(t.Rows, Tuple{draw(), draw()})
	}
	return t
}

// refKey is value.KeyOf without its collision: each value's Key is
// length-prefixed instead of separator-terminated.
func refKey(vs ...value.Value) string {
	var b strings.Builder
	for _, v := range vs {
		k := v.Key()
		fmt.Fprintf(&b, "%d:%s", len(k), k)
	}
	return b.String()
}

// refGroups is the reference grouping: rows partitioned by refKey of the
// columns at idxs, groups in first-seen order.
func refGroups(t *Table, idxs ...int) [][]int {
	at := map[string]int{}
	var groups [][]int
	vals := make([]value.Value, len(idxs))
	for r, row := range t.Rows {
		for j, idx := range idxs {
			vals[j] = row[idx]
		}
		k := refKey(vals...)
		g, ok := at[k]
		if !ok {
			g = len(groups)
			at[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], r)
	}
	return groups
}

func sameGroups(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestGroupByValuesContainingSeparator: two rows whose KeyOf strings
// coincide are two groups and two distinct values.
func TestGroupByValuesContainingSeparator(t *testing.T) {
	tbl := NewTable("t", MustSchema(
		Column{Name: "a", Kind: value.KindString},
		Column{Name: "b", Kind: value.KindString},
	))
	tbl.MustInsert(Tuple{value.String("x\x1fsy"), value.String("z")})
	tbl.MustInsert(Tuple{value.String("x"), value.String("y\x1fsz")})
	if value.KeyOf(tbl.Rows[0]...) != value.KeyOf(tbl.Rows[1]...) {
		t.Fatal("fixture is vacuous: the rows no longer share a KeyOf")
	}
	groups, err := tbl.GroupBy("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int{{0}, {1}}; !sameGroups(groups, want) {
		t.Fatalf("GroupBy(a, b) = %v, want %v", groups, want)
	}
	if n, err := tbl.DistinctCount("a", "b"); err != nil || n != 2 {
		t.Fatalf("DistinctCount(a, b) = %d, %v; want 2", n, err)
	}
}

// TestGroupByMatchesReference: on random mixed-kind tuples, GroupBy has
// the reference grouping's groups in its first-seen order, and
// DistinctCount counts them, for each column and both together.
func TestGroupByMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		tbl := keyTable(seed, "t", 40, true)
		for _, cols := range [][]string{{"t1"}, {"t2"}, {"t1", "t2"}, {"t2", "t1"}} {
			idxs, err := tbl.columnIndexes(cols)
			if err != nil {
				t.Fatal(err)
			}
			want := refGroups(tbl, idxs...)
			got, err := tbl.GroupBy(cols...)
			if err != nil {
				t.Fatal(err)
			}
			if !sameGroups(got, want) {
				t.Fatalf("seed %d: GroupBy%v = %v, reference %v (rows %v)", seed, cols, got, want, tbl.Rows)
			}
			if n := mustDistinct(t, tbl, cols...); n != len(want) {
				t.Fatalf("seed %d: DistinctCount%v = %d, reference %d", seed, cols, n, len(want))
			}
		}
	}
}

// BenchmarkGroupBy groups 16 384 rows of a string and an integer column
// into 64 distinct bindings, the shape of the binding prep ahead of a
// foreign join.
func BenchmarkGroupBy(b *testing.B) {
	tbl := NewTable("f", MustSchema(
		Column{Name: "name", Kind: value.KindString},
		Column{Name: "grp", Kind: value.KindInt},
	))
	for i := 0; i < 1<<14; i++ {
		tbl.MustInsert(Tuple{value.String(fmt.Sprintf("author%05d", i%32)), value.Int(int64(i % 64 / 32))})
	}
	if n := mustDistinct(b, tbl, "name", "grp"); n != 64 {
		b.Fatalf("fixture has %d distinct bindings, want 64", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.GroupBy("name", "grp"); err != nil {
			b.Fatal(err)
		}
	}
}
