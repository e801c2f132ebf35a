package relation

import (
	"fmt"
	"sync"
	"testing"

	"textjoin/internal/value"
)

// referenceDistinct is DistinctCount as it was before the memo: a fresh
// KeyOf scan, the definition the memoized counts must equal.
func referenceDistinct(t *Table, names ...string) int {
	idxs := make([]int, len(names))
	for i, n := range names {
		idxs[i] = t.Schema.ColumnIndex(n)
	}
	seen := map[string]bool{}
	vals := make([]value.Value, len(idxs))
	for _, r := range t.Rows {
		for j, idx := range idxs {
			vals[j] = r[idx]
		}
		seen[value.KeyOf(vals...)] = true
	}
	return len(seen)
}

// memoTable has n rows: id unique, grp cycling over 7 values, score a
// FLOAT column whose values collide with each other only numerically
// (2.0 vs 2, NULLs), name cycling over 5 strings.
func memoTable(n int) *Table {
	t := NewTable("m", MustSchema(
		Column{Name: "id", Kind: value.KindInt},
		Column{Name: "grp", Kind: value.KindInt},
		Column{Name: "score", Kind: value.KindFloat},
		Column{Name: "name", Kind: value.KindString},
	))
	for i := 0; i < n; i++ {
		score := value.Float(float64(i%4) + 0.5*float64(i%2))
		if i%11 == 0 {
			score = value.Null()
		}
		t.MustInsert(Tuple{
			value.Int(int64(i)), value.Int(int64(i % 7)), score, value.String(fmt.Sprintf("n%d", i%5)),
		})
	}
	return t
}

func mustDistinct(t testing.TB, tbl *Table, names ...string) int {
	t.Helper()
	d, err := tbl.DistinctCount(names...)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDistinctCountMemoHitDoesNoRowWork: the second call for a column set
// allocates nothing, on a table large enough that any per-row work would.
func TestDistinctCountMemoHitDoesNoRowWork(t *testing.T) {
	tbl := memoTable(4096)
	if got, want := mustDistinct(t, tbl, "id"), 4096; got != want {
		t.Fatalf("DistinctCount(id) = %d, want %d", got, want)
	}
	mustDistinct(t, tbl, "grp", "name")
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := tbl.DistinctCount("id"); err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.DistinctCount("grp", "name"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("memoized DistinctCount allocates %.1f times per call pair, want 0", allocs)
	}
}

// TestDistinctCountSeesInserts: rows added after a count — through Insert,
// MustInsert or a direct append — are reflected in the next one.
func TestDistinctCountSeesInserts(t *testing.T) {
	tbl := memoTable(10)
	if got := mustDistinct(t, tbl, "id"); got != 10 {
		t.Fatalf("DistinctCount(id) = %d, want 10", got)
	}
	row := func(id int64) Tuple {
		return Tuple{value.Int(id), value.Int(99), value.Float(0.25), value.String("new")}
	}
	if err := tbl.Insert(row(10)); err != nil {
		t.Fatal(err)
	}
	if got := mustDistinct(t, tbl, "id"); got != 11 {
		t.Fatalf("after Insert: DistinctCount(id) = %d, want 11", got)
	}
	tbl.MustInsert(row(11))
	if got := mustDistinct(t, tbl, "id"); got != 12 {
		t.Fatalf("after MustInsert: DistinctCount(id) = %d, want 12", got)
	}
	tbl.Rows = append(tbl.Rows, row(3)) // a duplicate id
	if got, want := mustDistinct(t, tbl, "id"), 12; got != want {
		t.Fatalf("after appending a duplicate: DistinctCount(id) = %d, want %d", got, want)
	}
	if got, want := mustDistinct(t, tbl, "grp"), referenceDistinct(tbl, "grp"); got != want {
		t.Fatalf("after growth: DistinctCount(grp) = %d, reference %d", got, want)
	}
}

// TestDistinctCountQualifiedViewSharesMemo: a Qualified view answers under
// the qualified name from the entry its base filled, and keeps doing so
// for views taken before and after the base grew.
func TestDistinctCountQualifiedViewSharesMemo(t *testing.T) {
	tbl := memoTable(4096)
	want := mustDistinct(t, tbl, "name")
	view := tbl.Qualified()
	allocs := testing.AllocsPerRun(100, func() {
		got, err := view.DistinctCount("m.name")
		if err != nil || got != want {
			t.Fatalf("view.DistinctCount(m.name) = %d, %v; want %d", got, err, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("view missed its base's memo: %.1f allocs per call", allocs)
	}
	if _, err := view.DistinctCount("name"); err == nil {
		t.Fatal("view accepted the unqualified name")
	}

	tbl.MustInsert(Tuple{value.Int(4096), value.Int(0), value.Null(), value.String("brand new")})
	if got := mustDistinct(t, tbl.Qualified(), "m.name"); got != want+1 {
		t.Fatalf("fresh view after growth: %d, want %d", got, want+1)
	}
	// The old view still holds the shorter Rows slice and must count that.
	if got := mustDistinct(t, view, "m.name"); got != want {
		t.Fatalf("stale view: %d, want %d", got, want)
	}
	if got := mustDistinct(t, tbl, "name"); got != want+1 {
		t.Fatalf("base after stale view read: %d, want %d", got, want+1)
	}
}

// TestDistinctCountColumnSetsKeyIndependently: a multi-column set, its
// reversal and its single columns are separate entries with their own
// counts, and numeric keying is unchanged (Float(2.0) ≡ Int-like 2, NULL
// is one value).
func TestDistinctCountColumnSetsKeyIndependently(t *testing.T) {
	tbl := memoTable(500)
	sets := [][]string{
		{"grp"}, {"name"}, {"grp", "name"}, {"name", "grp"}, {"score"}, {"grp", "score"}, {"id", "grp"},
	}
	for pass := 0; pass < 2; pass++ { // second pass reads the memo
		for _, set := range sets {
			if got, want := mustDistinct(t, tbl, set...), referenceDistinct(tbl, set...); got != want {
				t.Errorf("pass %d: DistinctCount(%v) = %d, reference %d", pass, set, got, want)
			}
		}
	}
	if mustDistinct(t, tbl, "grp", "name") == mustDistinct(t, tbl, "grp") {
		t.Fatal("fixture is vacuous: (grp, name) and grp have the same count")
	}

	mixed := NewTable("x", MustSchema(Column{Name: "v", Kind: value.KindFloat}))
	for _, f := range []float64{3, 3.0, 3.5, -0.0, 0} {
		mixed.MustInsert(Tuple{value.Float(f)})
	}
	mixed.Rows = append(mixed.Rows, Tuple{value.Int(3)}, Tuple{value.Null()}, Tuple{value.Null()})
	if got, want := mustDistinct(t, mixed, "v"), 4; got != want { // 3, 3.5, 0, NULL
		t.Fatalf("numeric keying: DistinctCount = %d, want %d", got, want)
	}
}

// TestDistinctCountLiteralTable: a Table built as a struct literal has no
// memo and still counts.
func TestDistinctCountLiteralTable(t *testing.T) {
	base := memoTable(50)
	lit := &Table{Name: base.Name, Schema: base.Schema, Rows: base.Rows}
	for i := 0; i < 2; i++ {
		if got, want := mustDistinct(t, lit, "grp"), 7; got != want {
			t.Fatalf("literal table: DistinctCount(grp) = %d, want %d", got, want)
		}
	}
}

// TestDistinctCountConcurrent: 8 goroutines asking for mixed column sets
// through the base and through Qualified views agree with the reference
// (run under -race).
func TestDistinctCountConcurrent(t *testing.T) {
	tbl := memoTable(2000)
	sets := [][]string{{"id"}, {"grp"}, {"score"}, {"name"}, {"grp", "name"}, {"name", "score"}}
	want := make([]int, len(sets))
	for i, set := range sets {
		want[i] = referenceDistinct(tbl, set...)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % len(sets)
				src, names := tbl, sets[k]
				if (g+i)%2 == 1 {
					src = tbl.Qualified()
					names = make([]string, len(sets[k]))
					for j, n := range sets[k] {
						names[j] = "m." + n
					}
				}
				got, err := src.DistinctCount(names...)
				if err != nil || got != want[k] {
					t.Errorf("goroutine %d: DistinctCount(%v) = %d, %v; reference %d", g, names, got, err, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
}
