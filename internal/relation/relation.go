// Package relation implements the structured-data half of the loosely
// integrated system: schemas, tuples, in-memory tables, selection and join
// predicates, and the classic relational operators (scan, select, project,
// distinct, nested-loop join, hash join) that the paper's database side
// (OpenODB in the original) provides.
//
// The engine is deliberately small but complete for Select-Project-Join
// (conjunctive) queries, which is the query class the paper studies.
package relation

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"

	"textjoin/internal/value"
)

// Column describes one attribute of a schema.
type Column struct {
	Name string
	Kind value.Kind
}

// Schema is an ordered list of columns. Column names are unique within a
// schema; qualified names ("table.column") are produced by Qualify.
type Schema struct {
	Cols []Column
}

// NewSchema builds a schema from columns, validating name uniqueness.
func NewSchema(cols ...Column) (*Schema, error) {
	seen := make(map[string]bool, len(cols))
	for _, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("relation: empty column name")
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("relation: duplicate column %q", c.Name)
		}
		seen[c.Name] = true
	}
	return &Schema{Cols: cols}, nil
}

// MustSchema is NewSchema that panics on error; for literals in tests and
// generators.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Arity returns the number of columns.
func (s *Schema) Arity() int { return len(s.Cols) }

// ColumnIndex returns the position of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Qualify returns a copy of the schema with every column renamed to
// "prefix.name". Already-qualified names are left untouched.
func (s *Schema) Qualify(prefix string) *Schema {
	out := &Schema{Cols: make([]Column, len(s.Cols))}
	for i, c := range s.Cols {
		name := c.Name
		if !strings.Contains(name, ".") {
			name = prefix + "." + name
		}
		out.Cols[i] = Column{Name: name, Kind: c.Kind}
	}
	return out
}

// Concat returns a schema holding s's columns followed by t's.
func (s *Schema) Concat(t *Schema) *Schema {
	out := &Schema{Cols: make([]Column, 0, len(s.Cols)+len(t.Cols))}
	out.Cols = append(out.Cols, s.Cols...)
	out.Cols = append(out.Cols, t.Cols...)
	return out
}

// String renders the schema as "(a VARCHAR, b INTEGER)".
func (s *Schema) String() string {
	parts := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		parts[i] = c.Name + " " + c.Kind.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Tuple is one row; its layout is defined by the owning table's schema.
type Tuple []value.Value

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Concat returns a new tuple holding t's values followed by u's.
func (t Tuple) Concat(u Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(u))
	out = append(out, t...)
	out = append(out, u...)
	return out
}

// Table is an in-memory relation: a schema plus a bag of tuples. Rows only
// grow (Insert, or appending to Rows directly); code that wants different
// rows builds a new Table.
type Table struct {
	Name   string
	Schema *Schema
	Rows   []Tuple

	// distinct memoizes DistinctCount. It sits behind a pointer so that
	// Qualified views share it with their base and a Table holds no lock
	// by value. Nil on tables built as struct literals, which count
	// unmemoized.
	distinct *distinctMemo
}

// distinctMemo holds DistinctCount results — integers only, never the value
// sets — keyed by column positions, valid while the table has `rows` rows.
type distinctMemo struct {
	mu     sync.Mutex
	rows   int
	counts map[string]int
}

// NewTable creates an empty table.
func NewTable(name string, schema *Schema) *Table {
	return &Table{Name: name, Schema: schema, distinct: &distinctMemo{}}
}

// Insert appends a tuple after checking arity and kinds (NULL is accepted in
// any column).
func (t *Table) Insert(row Tuple) error {
	if len(row) != t.Schema.Arity() {
		return fmt.Errorf("relation: %s expects %d values, got %d", t.Name, t.Schema.Arity(), len(row))
	}
	for i, v := range row {
		if !v.IsNull() && v.Kind() != t.Schema.Cols[i].Kind {
			return fmt.Errorf("relation: %s.%s expects %s, got %s",
				t.Name, t.Schema.Cols[i].Name, t.Schema.Cols[i].Kind, v.Kind())
		}
	}
	t.Rows = append(t.Rows, row)
	return nil
}

// MustInsert is Insert that panics on error.
func (t *Table) MustInsert(row Tuple) {
	if err := t.Insert(row); err != nil {
		panic(err)
	}
}

// Cardinality returns the number of tuples (the paper's N).
func (t *Table) Cardinality() int { return len(t.Rows) }

// Column returns all values in the named column.
func (t *Table) Column(name string) ([]value.Value, error) {
	idx := t.Schema.ColumnIndex(name)
	if idx < 0 {
		return nil, fmt.Errorf("relation: %s has no column %q", t.Name, name)
	}
	out := make([]value.Value, len(t.Rows))
	for i, r := range t.Rows {
		out[i] = r[idx]
	}
	return out, nil
}

// DistinctCount returns the number of distinct values in the named columns
// taken jointly (the paper's N_i for a single column, N_J for a set).
//
// The count is memoized per column list, so only the first call after the
// table last grew scans the rows; the optimizer asks for the same few
// counts on every query. The memo is keyed by column position, which makes
// a Qualified view and its base answer from the same entries, and is safe
// under concurrent callers (the first one counts, the others wait for it).
func (t *Table) DistinctCount(names ...string) (int, error) {
	// Both stay on the stack for the usual handful of columns, so a memo
	// hit allocates nothing.
	idxs := make([]int, 0, 4)
	key := make([]byte, 0, 16)
	for _, n := range names {
		idx := t.Schema.ColumnIndex(n)
		if idx < 0 {
			return 0, fmt.Errorf("relation: %s has no column %q", t.Name, n)
		}
		idxs = append(idxs, idx)
		key = binary.AppendUvarint(key, uint64(idx))
	}
	m := t.distinct
	if m == nil {
		return t.countDistinct(idxs), nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.rows != len(t.Rows) || m.counts == nil {
		m.rows, m.counts = len(t.Rows), map[string]int{}
	}
	if d, ok := m.counts[string(key)]; ok {
		return d, nil
	}
	d := t.countDistinct(idxs)
	m.counts[string(key)] = d
	return d, nil
}

// countDistinct is the row scan behind DistinctCount.
func (t *Table) countDistinct(idxs []int) int {
	return t.keyIndex(idxs).Len()
}

// GroupBy partitions row indices by the joint value of the named columns,
// keyed as value.KeyEqual compares. Groups come in first-seen order, each
// listing its rows in ascending order.
func (t *Table) GroupBy(names ...string) ([][]int, error) {
	idxs, err := t.columnIndexes(names)
	if err != nil {
		return nil, err
	}
	return t.keyIndex(idxs).Groups(), nil
}

// keyIndex adds every row's key on the columns at idxs, in row order.
func (t *Table) keyIndex(idxs []int) *KeyIndex {
	x := NewKeyIndex(len(idxs), len(t.Rows))
	key := make([]value.Value, len(idxs))
	for _, r := range t.Rows {
		for j, idx := range idxs {
			key[j] = r[idx]
		}
		x.Add(key)
	}
	return x
}

// columnIndexes resolves column names to schema positions.
func (t *Table) columnIndexes(names []string) ([]int, error) {
	idxs := make([]int, len(names))
	for i, n := range names {
		idx := t.Schema.ColumnIndex(n)
		if idx < 0 {
			return nil, fmt.Errorf("relation: %s has no column %q", t.Name, n)
		}
		idxs[i] = idx
	}
	return idxs, nil
}

// Select returns a new table holding the rows satisfying pred. The
// predicate is compiled once against the schema, so per-row evaluation
// does no column-name resolution. Queries filter on internal/vec's batch
// operators; this table-at-a-time form serves exec.NaiveQuery's oracle,
// the equivalence tests and callers holding a whole table.
func (t *Table) Select(pred Predicate) (*Table, error) {
	cp, err := Compile(pred, t.Schema)
	if err != nil {
		return nil, err
	}
	out := NewTable(t.Name, t.Schema)
	for _, r := range t.Rows {
		ok, err := cp.Eval(r)
		if err != nil {
			return nil, err
		}
		if ok {
			out.Rows = append(out.Rows, r)
		}
	}
	return out, nil
}

// Project returns a new table with only the named columns, in the given
// order. Duplicates are retained (bag semantics). Like Select, it is the
// table-at-a-time form exec.NaiveQuery's oracle uses; queries project on
// internal/vec's batch operators.
func (t *Table) Project(names ...string) (*Table, error) {
	idxs, err := t.columnIndexes(names)
	if err != nil {
		return nil, err
	}
	cols := make([]Column, len(idxs))
	for i, idx := range idxs {
		cols[i] = t.Schema.Cols[idx]
	}
	out := NewTable(t.Name, &Schema{Cols: cols})
	for _, r := range t.Rows {
		row := make(Tuple, len(idxs))
		for j, idx := range idxs {
			row[j] = r[idx]
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Qualified returns a view of the table whose schema columns are qualified
// with the table's name. Rows are shared, not copied, and so is the
// distinct-count memo.
func (t *Table) Qualified() *Table {
	return &Table{Name: t.Name, Schema: t.Schema.Qualify(t.Name), Rows: t.Rows, distinct: t.distinct}
}

// String renders a compact description of the table.
func (t *Table) String() string {
	return fmt.Sprintf("%s%s [%d rows]", t.Name, t.Schema, len(t.Rows))
}
