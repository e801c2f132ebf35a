package workload

import (
	"fmt"
	"math/rand"

	"textjoin/internal/relation"
	"textjoin/internal/value"
)

// ColumnSpec controls one generated join column.
type ColumnSpec struct {
	// Name of the column.
	Name string
	// Distinct is N_i: how many distinct values the column takes.
	Distinct int
	// MatchFrac is s_i: the fraction of the distinct values drawn from
	// the matching pool (values known to occur in the target text field).
	MatchFrac float64
	// Pool is the matching value pool (e.g. corpus.Authors).
	Pool []string
}

// BuildRelation generates a relation with n rows and the given join
// columns. For each column, Distinct values are materialised —
// round(MatchFrac·Distinct) of them sampled from the pool without
// replacement, the rest synthetic non-matching values — and rows cycle
// through them, so each distinct value occurs about n/Distinct times and
// the realised selectivity equals MatchFrac up to rounding.
func BuildRelation(name string, n int, seed int64, cols ...ColumnSpec) (*relation.Table, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: relation needs at least one row")
	}
	rng := rand.New(rand.NewSource(seed))
	schemaCols := make([]relation.Column, len(cols))
	domains := make([][]string, len(cols))
	for i, c := range cols {
		if c.Distinct < 1 || c.Distinct > n {
			return nil, fmt.Errorf("workload: column %s distinct %d out of [1,%d]", c.Name, c.Distinct, n)
		}
		if c.MatchFrac < 0 || c.MatchFrac > 1 {
			return nil, fmt.Errorf("workload: column %s match fraction %v out of [0,1]", c.Name, c.MatchFrac)
		}
		nMatch := int(c.MatchFrac*float64(c.Distinct) + 0.5)
		if nMatch > len(c.Pool) {
			return nil, fmt.Errorf("workload: column %s needs %d matching values, pool has %d",
				c.Name, nMatch, len(c.Pool))
		}
		domain := make([]string, 0, c.Distinct)
		perm := rng.Perm(len(c.Pool))
		for j := 0; j < nMatch; j++ {
			domain = append(domain, c.Pool[perm[j]])
		}
		for j := nMatch; j < c.Distinct; j++ {
			domain = append(domain, fmt.Sprintf("nomatch%s%05d", c.Name, j))
		}
		// Shuffle so matching and non-matching values interleave.
		rng.Shuffle(len(domain), func(a, b int) { domain[a], domain[b] = domain[b], domain[a] })
		domains[i] = domain
		schemaCols[i] = relation.Column{Name: c.Name, Kind: value.KindString}
	}
	tbl := relation.NewTable(name, relation.MustSchema(schemaCols...))
	for r := 0; r < n; r++ {
		row := make(relation.Tuple, len(cols))
		for i := range cols {
			// Plain cycling keeps each column's distinct count exact and
			// makes the number of distinct combinations the lcm of the
			// per-column counts (capped by n); the per-column domain
			// shuffles above decorrelate the values themselves.
			row[i] = value.String(domains[i][r%len(domains[i])])
		}
		tbl.MustInsert(row)
	}
	return tbl, nil
}
