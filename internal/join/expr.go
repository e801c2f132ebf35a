package join

import (
	"textjoin/internal/relation"
	"textjoin/internal/textidx"
)

// SubstExpr builds the instantiated search for one tuple: the text
// selection (if any) in conjunction with one predicate per join condition,
// each instantiated with the tuple's column value. It returns (nil, false)
// when some value has no searchable words: such a tuple cannot match any
// document under Boolean semantics.
func (s *Spec) SubstExpr(tuple relation.Tuple, preds []Pred) (textidx.Expr, bool) {
	conj, ok := s.substPreds(tuple, preds)
	if !ok {
		return nil, false
	}
	return s.withSel(conj), true
}

// withSel prefixes the text selection (if any) to a tuple's conjunct,
// the selection kept whole as the first conjunct: the search SubstExpr
// builds from substPreds' conjunct.
func (s *Spec) withSel(conj textidx.Expr) textidx.Expr {
	if s.TextSel == nil {
		return conj
	}
	if a, isAnd := conj.(textidx.And); isAnd {
		return append(textidx.And{s.TextSel}, a...)
	}
	return textidx.And{s.TextSel, conj}
}

// substPreds builds a tuple's conjunct over the given predicates without
// the text selection. The OR-pack step uses it directly, carrying the
// selection once per group; TS prefixes it with withSel.
func (s *Spec) substPreds(tuple relation.Tuple, preds []Pred) (textidx.Expr, bool) {
	var conj textidx.And
	for _, p := range preds {
		e, err := textidx.MakeExactPred(p.Field, tuple[s.offset(p.Column)].Text())
		if err != nil {
			return nil, false
		}
		conj = append(conj, e)
	}
	if len(conj) == 1 {
		return conj[0], true
	}
	return conj, true
}

// orAll builds the disjunction of the expressions (single expressions are
// returned unwrapped).
func orAll(es []textidx.Expr) textidx.Expr {
	if len(es) == 1 {
		return es[0]
	}
	return textidx.Or(es)
}

// andPair conjoins two expressions, flattening nested Ands.
func andPair(a, b textidx.Expr) textidx.Expr {
	var conj textidx.And
	if aa, ok := a.(textidx.And); ok {
		conj = append(conj, aa...)
	} else {
		conj = append(conj, a)
	}
	if bb, ok := b.(textidx.And); ok {
		conj = append(conj, bb...)
	} else {
		conj = append(conj, b)
	}
	return conj
}
