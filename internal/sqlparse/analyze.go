package sqlparse

import (
	"fmt"
	"sort"
	"strings"

	"textjoin/internal/relation"
	"textjoin/internal/textidx"
)

// TextSourceInfo describes one external text source registered in the
// catalog: its name (used as a table name in queries) and its text fields.
type TextSourceInfo struct {
	Name   string
	Fields []string
}

// HasField reports whether the source has the named text field.
func (t *TextSourceInfo) HasField(f string) bool {
	for _, g := range t.Fields {
		if g == f {
			return true
		}
	}
	return false
}

// Catalog is the name environment queries are analyzed against.
type Catalog struct {
	Tables map[string]*relation.Table
	Text   map[string]*TextSourceInfo
}

// DocIDField is the pseudo-field exposing a document's identifier.
const DocIDField = "docid"

// ForeignPred is a classified foreign join predicate: the (qualified)
// relation column must occur in the text source field.
type ForeignPred struct {
	Source string // text source name
	Table  string // relational table
	Column string // qualified column, e.g. "student.name"
	Field  string // text field, e.g. "author"
}

// String renders the predicate.
func (p ForeignPred) String() string {
	if p.Source == "" {
		return p.Column + " in " + p.Field
	}
	return p.Column + " in " + p.Source + "." + p.Field
}

// JoinEdge aggregates the join conjuncts between two relational tables.
type JoinEdge struct {
	A, B     string
	Equi     []relation.EquiJoinCond // Left references A, Right references B
	Residual relation.And            // non-equality conjuncts over qualified names
}

// TextPart is the per-source portion of a classified query: its text
// selection and the document output it must deliver.
type TextPart struct {
	// Source is the text source's name.
	Source string
	// Sel is the conjunction of the source's text selections (nil when
	// none).
	Sel textidx.Expr
	// DocFields are the source's fields (beyond docid) the output needs.
	DocFields []string
	// LongForm reports whether the output needs this source's full
	// documents.
	LongForm bool
}

// Analyzed is the classified form of a query (§2.3's problem input): every
// conjunct is a relational selection, a relational join, a text selection,
// or a foreign join predicate. A query may join with several external
// text sources (§8's generalization); each gets a TextPart and its own
// foreign predicates.
type Analyzed struct {
	Src *Query
	// Tables are the relational tables in from-clause order.
	Tables []string
	// Text are the text sources in from-clause order (empty for pure
	// relational queries).
	Text []TextPart
	// Selections maps each table to the conjunction of its selection
	// predicates over qualified column names (True when none).
	Selections map[string]relation.Predicate
	// Edges are the relational join edges.
	Edges []JoinEdge
	// Foreign are the foreign join predicates of every source.
	Foreign []ForeignPred
	// OutputCols are the qualified output columns in select-list order.
	OutputCols []string
}

// Part returns the TextPart of the named source, or nil.
func (a *Analyzed) Part(source string) *TextPart {
	for i := range a.Text {
		if a.Text[i].Source == source {
			return &a.Text[i]
		}
	}
	return nil
}

// ForeignOf returns the foreign predicates of one source.
func (a *Analyzed) ForeignOf(source string) []ForeignPred {
	var out []ForeignPred
	for _, f := range a.Foreign {
		if f.Source == source {
			out = append(out, f)
		}
	}
	return out
}

// Analyze resolves and classifies a parsed query against the catalog.
func Analyze(q *Query, cat *Catalog) (*Analyzed, error) {
	a := &Analyzed{Src: q, Selections: map[string]relation.Predicate{}}

	// Resolve the from list.
	seen := map[string]bool{}
	for _, name := range q.From {
		if seen[name] {
			return nil, fmt.Errorf("sqlparse: table %q listed twice", name)
		}
		seen[name] = true
		if _, ok := cat.Tables[name]; ok {
			a.Tables = append(a.Tables, name)
			continue
		}
		if _, ok := cat.Text[name]; ok {
			a.Text = append(a.Text, TextPart{Source: name})
			continue
		}
		return nil, fmt.Errorf("sqlparse: unknown table %q", name)
	}
	if len(a.Tables) == 0 {
		return nil, fmt.Errorf("sqlparse: query needs at least one relational table")
	}

	r := &resolver{cat: cat, a: a}

	// Classify conjuncts.
	selParts := map[string]relation.And{}
	edges := map[string]*JoinEdge{}
	textSels := map[string]textidx.And{}
	for _, c := range q.Conjuncts {
		switch c := c.(type) {
		case Comparison:
			if err := r.classifyComparison(c, selParts, edges); err != nil {
				return nil, err
			}
		case TextPred:
			if err := r.classifyTextPred(c, textSels); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("sqlparse: unknown conjunct %T", c)
		}
	}
	for _, t := range a.Tables {
		if parts := selParts[t]; len(parts) > 0 {
			a.Selections[t] = parts
		} else {
			a.Selections[t] = relation.True{}
		}
	}
	var edgeKeys []string
	for k := range edges {
		edgeKeys = append(edgeKeys, k)
	}
	sort.Strings(edgeKeys)
	for _, k := range edgeKeys {
		a.Edges = append(a.Edges, *edges[k])
	}
	for i := range a.Text {
		sel := textSels[a.Text[i].Source]
		if len(sel) == 1 {
			a.Text[i].Sel = sel[0]
		} else if len(sel) > 1 {
			a.Text[i].Sel = sel
		}
	}

	// Every listed source needs at least one foreign predicate (cross
	// joins with text are not supported).
	for i := range a.Text {
		if len(a.ForeignOf(a.Text[i].Source)) == 0 {
			return nil, fmt.Errorf("sqlparse: text source %q needs at least one foreign join predicate (cross joins with text are not supported)", a.Text[i].Source)
		}
	}

	// Resolve the select list.
	if err := r.resolveSelect(q); err != nil {
		return nil, err
	}
	return a, nil
}

type resolver struct {
	cat *Catalog
	a   *Analyzed
}

// tableOf resolves a column reference to a relational table name,
// validating the column exists.
func (r *resolver) tableOf(c ColRef) (string, error) {
	if c.Table != "" {
		tbl, ok := r.cat.Tables[c.Table]
		if !ok || !r.inFrom(c.Table) {
			return "", fmt.Errorf("sqlparse: unknown relational table %q", c.Table)
		}
		if tbl.Schema.ColumnIndex(c.Column) < 0 {
			return "", fmt.Errorf("sqlparse: table %q has no column %q", c.Table, c.Column)
		}
		return c.Table, nil
	}
	var found string
	for _, name := range r.a.Tables {
		if r.cat.Tables[name].Schema.ColumnIndex(c.Column) >= 0 {
			if found != "" {
				return "", fmt.Errorf("sqlparse: column %q is ambiguous (%q, %q)", c.Column, found, name)
			}
			found = name
		}
	}
	if found == "" {
		return "", fmt.Errorf("sqlparse: unknown column %q", c.Column)
	}
	return found, nil
}

func (r *resolver) inFrom(table string) bool {
	for _, t := range r.a.Tables {
		if t == table {
			return true
		}
	}
	return false
}

// textRef resolves a reference to one of the query's text sources,
// returning the source name. ok is false for relational references.
func (r *resolver) textRef(c ColRef) (source string, ok bool, err error) {
	if len(r.a.Text) == 0 {
		return "", false, nil
	}
	if c.Table != "" {
		part := r.a.Part(c.Table)
		if part == nil {
			return "", false, nil
		}
		info := r.cat.Text[c.Table]
		if c.Column != DocIDField && !info.HasField(c.Column) {
			return "", false, fmt.Errorf("sqlparse: text source %q has no field %q", c.Table, c.Column)
		}
		return c.Table, true, nil
	}
	// Unqualified: relational columns win.
	for _, name := range r.a.Tables {
		if r.cat.Tables[name].Schema.ColumnIndex(c.Column) >= 0 {
			return "", false, nil
		}
	}
	var found string
	for _, part := range r.a.Text {
		info := r.cat.Text[part.Source]
		if c.Column == DocIDField || info.HasField(c.Column) {
			if found != "" {
				return "", false, fmt.Errorf("sqlparse: field %q is ambiguous (%q, %q)", c.Column, found, part.Source)
			}
			found = part.Source
		}
	}
	if found == "" {
		return "", false, nil
	}
	return found, true, nil
}

func (r *resolver) classifyComparison(c Comparison, selParts map[string]relation.And, edges map[string]*JoinEdge) error {
	if _, isText, err := r.textRef(c.Left); err != nil {
		return err
	} else if isText {
		return fmt.Errorf("sqlparse: comparisons over text fields are not supported; use 'term' in %s", c.Left)
	}
	leftTable, err := r.tableOf(c.Left)
	if err != nil {
		return err
	}
	leftQ := leftTable + "." + c.Left.Column

	if !c.RightIsCol {
		selParts[leftTable] = append(selParts[leftTable], relation.ColConst{
			Col: leftQ, Op: c.Op, Const: c.RightLit,
		})
		return nil
	}
	if _, isText, err := r.textRef(c.RightCol); err != nil {
		return err
	} else if isText {
		return fmt.Errorf("sqlparse: comparisons over text fields are not supported; use 'term' in %s", c.RightCol)
	}
	rightTable, err := r.tableOf(c.RightCol)
	if err != nil {
		return err
	}
	rightQ := rightTable + "." + c.RightCol.Column
	if leftTable == rightTable {
		selParts[leftTable] = append(selParts[leftTable], relation.ColCol{
			Left: leftQ, Op: c.Op, Right: rightQ,
		})
		return nil
	}
	// Join edge; canonical direction A < B.
	a, b, aq, bq := leftTable, rightTable, leftQ, rightQ
	flipped := false
	if a > b {
		a, b, aq, bq = b, a, bq, aq
		flipped = true
	}
	key := a + "\x00" + b
	e := edges[key]
	if e == nil {
		e = &JoinEdge{A: a, B: b}
		edges[key] = e
	}
	op := c.Op
	if flipped {
		op = flipOp(op)
	}
	if op == relation.OpEq {
		e.Equi = append(e.Equi, relation.EquiJoinCond{Left: aq, Right: bq})
	} else {
		e.Residual = append(e.Residual, relation.ColCol{Left: aq, Op: op, Right: bq})
	}
	return nil
}

func flipOp(op relation.CmpOp) relation.CmpOp {
	switch op {
	case relation.OpLt:
		return relation.OpGt
	case relation.OpLe:
		return relation.OpGe
	case relation.OpGt:
		return relation.OpLt
	case relation.OpGe:
		return relation.OpLe
	default:
		return op // =, != are symmetric
	}
}

func (r *resolver) classifyTextPred(c TextPred, textSels map[string]textidx.And) error {
	source, isText, err := r.textRef(c.Field)
	if err != nil {
		return err
	}
	if !isText {
		return fmt.Errorf("sqlparse: %q in %q: right side must be a text field", c.ConstTerm, c.Field)
	}
	if c.Field.Column == DocIDField {
		return fmt.Errorf("sqlparse: cannot search the %s pseudo-field", DocIDField)
	}
	if c.IsConst {
		e, err := textidx.MakePred(c.Field.Column, c.ConstTerm)
		if err != nil {
			return fmt.Errorf("sqlparse: %v", err)
		}
		textSels[source] = append(textSels[source], e)
		return nil
	}
	tbl, err := r.tableOf(c.Col)
	if err != nil {
		return err
	}
	r.a.Foreign = append(r.a.Foreign, ForeignPred{
		Source: source,
		Table:  tbl,
		Column: tbl + "." + c.Col.Column,
		Field:  c.Field.Column,
	})
	return nil
}

func (r *resolver) resolveSelect(q *Query) error {
	a := r.a
	addDocField := func(part *TextPart, f string) {
		for _, g := range part.DocFields {
			if g == f {
				return
			}
		}
		part.DocFields = append(part.DocFields, f)
		part.LongForm = true
	}
	if q.Star {
		for _, name := range a.Tables {
			for _, col := range r.cat.Tables[name].Schema.Cols {
				a.OutputCols = append(a.OutputCols, name+"."+col.Name)
			}
		}
		for i := range a.Text {
			part := &a.Text[i]
			a.OutputCols = append(a.OutputCols, part.Source+"."+DocIDField)
			for _, f := range r.cat.Text[part.Source].Fields {
				a.OutputCols = append(a.OutputCols, part.Source+"."+f)
				addDocField(part, f)
			}
		}
		return nil
	}
	for _, c := range q.Select {
		source, isText, err := r.textRef(c)
		if err != nil {
			return err
		}
		if isText {
			a.OutputCols = append(a.OutputCols, source+"."+c.Column)
			if c.Column != DocIDField {
				addDocField(a.Part(source), c.Column)
			}
			continue
		}
		tbl, err := r.tableOf(c)
		if err != nil {
			return err
		}
		a.OutputCols = append(a.OutputCols, tbl+"."+c.Column)
	}
	return nil
}

// String summarises the classification (useful in EXPLAIN output).
func (a *Analyzed) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tables: %s", strings.Join(a.Tables, ", "))
	for _, part := range a.Text {
		fmt.Fprintf(&b, "; text: %s", part.Source)
		if part.Sel != nil {
			fmt.Fprintf(&b, " [%s]", part.Sel)
		}
	}
	for _, f := range a.Foreign {
		fmt.Fprintf(&b, "; foreign: %s", f)
	}
	return b.String()
}
