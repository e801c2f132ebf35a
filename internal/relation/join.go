package relation

// EquiJoinCond is one equality join condition between a column of the left
// table and a column of the right table.
type EquiJoinCond struct {
	Left  string
	Right string
}

// NestedLoopJoin joins left and right with an arbitrary join predicate that
// is evaluated over the concatenated schema. Queries run their joins on
// the batch operators of internal/vec; this table-at-a-time form is what
// exec.NaiveQuery's whole-query oracle and the equivalence tests check
// them against. The predicate is compiled once and evaluated over a
// reused scratch row, which is copied only on a match.
func NestedLoopJoin(left, right *Table, pred Predicate) (*Table, error) {
	schema := left.Schema.Concat(right.Schema)
	cp, err := Compile(pred, schema)
	if err != nil {
		return nil, err
	}
	out := NewTable(left.Name+"⋈"+right.Name, schema)
	la := left.Schema.Arity()
	scratch := make(Tuple, schema.Arity())
	for _, lr := range left.Rows {
		copy(scratch[:la], lr)
		for _, rr := range right.Rows {
			copy(scratch[la:], rr)
			ok, err := cp.Eval(scratch)
			if err != nil {
				return nil, err
			}
			if ok {
				out.Rows = append(out.Rows, scratch.Clone())
			}
		}
	}
	return out, nil
}
