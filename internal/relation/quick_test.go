package relation

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"textjoin/internal/value"
)

// randTable builds a random two-column string table from a seed.
func randTable(seed int64, name string, maxRows int) *Table {
	rng := rand.New(rand.NewSource(seed))
	vocab := []string{"a", "b", "c", "d", "e"}
	t := NewTable(name, MustSchema(
		Column{Name: name + "1", Kind: value.KindString},
		Column{Name: name + "2", Kind: value.KindString},
	))
	n := rng.Intn(maxRows + 1)
	for i := 0; i < n; i++ {
		t.MustInsert(Tuple{
			value.String(vocab[rng.Intn(len(vocab))]),
			value.String(vocab[rng.Intn(len(vocab))]),
		})
	}
	return t
}

// canonical renders rows as sorted strings for multiset comparison.
func canonical(t *Table) []string {
	out := make([]string, len(t.Rows))
	for i, row := range t.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.Key()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

func sameMultiset(a, b *Table) bool {
	ca, cb := canonical(a), canonical(b)
	if len(ca) != len(cb) {
		return false
	}
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}

// TestGroupByPartitions: groups cover all rows exactly once and agree on
// the grouping key (quick).
func TestGroupByPartitions(t *testing.T) {
	prop := func(seed int64) bool {
		tbl := randTable(seed, "t", 20)
		groups, err := tbl.GroupBy("t1", "t2")
		if err != nil {
			return false
		}
		covered := map[int]bool{}
		for _, g := range groups {
			for _, idx := range g {
				if covered[idx] {
					return false
				}
				covered[idx] = true
				row, rep := tbl.Rows[idx], tbl.Rows[g[0]]
				if !value.KeyEqual(row[0], rep[0]) || !value.KeyEqual(row[1], rep[1]) {
					return false
				}
			}
		}
		return len(covered) == tbl.Cardinality()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSortByIsPermutation: sorting preserves the multiset and orders the
// key column (quick).
func TestSortByIsPermutation(t *testing.T) {
	prop := func(seed int64) bool {
		tbl := randTable(seed, "t", 20)
		sorted, err := tbl.SortBy("t1")
		if err != nil {
			return false
		}
		if !sameMultiset(tbl, sorted) {
			return false
		}
		for i := 1; i < len(sorted.Rows); i++ {
			if value.Compare(sorted.Rows[i-1][0], sorted.Rows[i][0]) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
