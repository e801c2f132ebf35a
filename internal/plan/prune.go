package plan

import (
	"textjoin/internal/relation"
)

// This file implements the two plan rewrites that feed the vectorized
// execution core (internal/vec): filter pushdown and projection pruning.
// Both run after optimization — they change what each operator carries,
// not the join order or method the cost model chose.
//
// Filter pushdown moves single-side conjuncts of join residuals down into
// the scan that owns their columns, so rejected rows never reach a join.
// Projection pruning computes, top-down, the set of columns each subtree
// must produce (select list + join/probe/text-join references) and
// restricts every Scan to exactly that set, so joins carry only referenced
// columns. A Scan's predicate is evaluated against the full base row, so a
// pushed filter may reference columns the projection then drops.

// Prune rewrites the plan in place, pushing residual filters into scans
// and restricting scans to referenced columns. schemaOf resolves a base
// table name to its qualified schema (as the executor scans it). Nodes
// holding predicates outside the relation package's vocabulary are left
// untouched — their column sets cannot be known statically.
func Prune(root Node, schemaOf func(table string) (*relation.Schema, bool)) Node {
	p := &pruner{schemaOf: schemaOf, schemas: map[Node]*relation.Schema{}}
	if p.schemaOfNode(root) == nil {
		// A table name failed to resolve; leave the plan as optimized.
		return root
	}
	p.pushFilters(root)
	// Residuals moved; recompute nothing — schemas are unchanged by
	// pushdown (only Scan.Pred and Join.Residual were touched).
	p.pruneColumns(root, rootRequired(root))
	return root
}

// rootRequired returns the column set the plan's consumer needs. Only a
// root Project narrows it; any other root shape keeps every column.
func rootRequired(root Node) map[string]bool {
	pr, ok := root.(*Project)
	if !ok {
		return nil
	}
	req := make(map[string]bool, len(pr.Columns))
	for _, c := range pr.Columns {
		req[c] = true
	}
	return req
}

type pruner struct {
	schemaOf func(table string) (*relation.Schema, bool)
	schemas  map[Node]*relation.Schema
}

// schemaOfNode returns the output schema of a subtree as the executor
// produces it (before pruning), memoized; nil when a table is unknown.
func (p *pruner) schemaOfNode(n Node) *relation.Schema {
	if s, ok := p.schemas[n]; ok {
		return s
	}
	var s *relation.Schema
	switch n := n.(type) {
	case *Scan:
		base, ok := p.schemaOf(n.Table)
		if ok {
			s = base
		}
	case *Probe:
		s = p.schemaOfNode(n.Input)
	case *Join:
		l, r := p.schemaOfNode(n.Left), p.schemaOfNode(n.Right)
		if l != nil && r != nil {
			s = l.Concat(r)
		}
	case *TextJoin:
		in := p.schemaOfNode(n.Input)
		if in != nil {
			cols := append([]relation.Column(nil), in.Cols...)
			for _, name := range textJoinDocColumns(n) {
				cols = append(cols, relation.Column{Name: name})
			}
			s = &relation.Schema{Cols: cols}
		}
	case *Project:
		in := p.schemaOfNode(n.Input)
		if in != nil {
			cols := make([]relation.Column, 0, len(n.Columns))
			for _, name := range n.Columns {
				if idx := in.ColumnIndex(name); idx >= 0 {
					cols = append(cols, in.Cols[idx])
				}
			}
			s = &relation.Schema{Cols: cols}
		}
	}
	p.schemas[n] = s
	return s
}

// textJoinDocColumns lists the qualified document columns a TextJoin
// appends to its input: the document id, then the requested fields.
func textJoinDocColumns(n *TextJoin) []string {
	out := make([]string, 0, 1+len(n.DocFields))
	out = append(out, n.Source+".docid")
	for _, f := range n.DocFields {
		out = append(out, n.Source+"."+f)
	}
	return out
}

// covers reports whether every column is present in s.
func covers(s *relation.Schema, cols []string) bool {
	for _, c := range cols {
		if s.ColumnIndex(c) < 0 {
			return false
		}
	}
	return true
}

// pushFilters walks the tree and, at every Join, pushes residual conjuncts
// that reference only one side's columns down into that side.
func (p *pruner) pushFilters(n Node) {
	switch n := n.(type) {
	case *Join:
		if n.Residual != nil {
			var keep []relation.Predicate
			for _, conj := range conjuncts(n.Residual) {
				if !p.pushInto(n.Left, conj) && !p.pushInto(n.Right, conj) {
					keep = append(keep, conj)
				}
			}
			n.Residual = rebuildConjunction(keep)
		}
		p.pushFilters(n.Left)
		p.pushFilters(n.Right)
	case *Probe:
		p.pushFilters(n.Input)
	case *TextJoin:
		p.pushFilters(n.Input)
	case *Project:
		p.pushFilters(n.Input)
	}
}

// conjuncts flattens nested Ands into a list of conjuncts, dropping True.
func conjuncts(pred relation.Predicate) []relation.Predicate {
	switch pred := pred.(type) {
	case nil, relation.True:
		return nil
	case relation.And:
		var out []relation.Predicate
		for _, sub := range pred {
			out = append(out, conjuncts(sub)...)
		}
		return out
	default:
		return []relation.Predicate{pred}
	}
}

// rebuildConjunction is the inverse of conjuncts.
func rebuildConjunction(conj []relation.Predicate) relation.Predicate {
	switch len(conj) {
	case 0:
		return nil
	case 1:
		return conj[0]
	default:
		return relation.And(conj)
	}
}

// pushInto pushes pred down into the subtree if the subtree's output
// covers all its columns and a Scan (or Join residual) can absorb it;
// it reports whether the predicate was placed.
func (p *pruner) pushInto(n Node, pred relation.Predicate) bool {
	cols, ok := relation.PredicateColumns(pred)
	if !ok {
		return false
	}
	s := p.schemaOfNode(n)
	if s == nil || !covers(s, cols) {
		return false
	}
	switch n := n.(type) {
	case *Scan:
		n.Pred = andPred(n.Pred, pred)
		return true
	case *Probe:
		// Probe is a semi-join filter: selection commutes with it.
		return p.pushInto(n.Input, pred)
	case *Join:
		if p.pushInto(n.Left, pred) || p.pushInto(n.Right, pred) {
			return true
		}
		n.Residual = andPred(n.Residual, pred)
		return true
	default:
		// TextJoin / Project: appending or reordering columns does not
		// commute trivially with a filter that a scan below could not
		// absorb; keep the predicate where it was.
		return false
	}
}

// andPred conjoins two predicates, treating nil and True as identity.
func andPred(a, b relation.Predicate) relation.Predicate {
	ca, cb := conjuncts(a), conjuncts(b)
	return rebuildConjunction(append(ca, cb...))
}

// pruneColumns propagates required-column sets top-down. required==nil
// means "keep everything" (used when a requirement cannot be computed,
// e.g. a residual with an unknown predicate type).
func (p *pruner) pruneColumns(n Node, required map[string]bool) {
	switch n := n.(type) {
	case *Scan:
		s := p.schemaOfNode(n)
		if required == nil || s == nil {
			n.Cols = nil
			return
		}
		cols := make([]string, 0, len(required))
		for _, c := range s.Cols {
			if required[c.Name] {
				cols = append(cols, c.Name)
			}
		}
		if len(cols) == len(s.Cols) {
			n.Cols = nil // nothing pruned; keep the plan rendering clean
			return
		}
		if len(cols) == 0 && len(s.Cols) > 0 {
			// Keep one column so the scan still produces its cardinality.
			cols = append(cols, s.Cols[0].Name)
		}
		n.Cols = cols
	case *Probe:
		req := copyReq(required)
		if req != nil {
			for _, f := range n.Preds {
				req[f.Column] = true
			}
		}
		p.pruneColumns(n.Input, req)
	case *Join:
		var lReq, rReq map[string]bool
		ls, rs := p.schemaOfNode(n.Left), p.schemaOfNode(n.Right)
		if required != nil && ls != nil && rs != nil {
			resCols, ok := []string(nil), true
			if n.Residual != nil {
				resCols, ok = relation.PredicateColumns(n.Residual)
			}
			if ok {
				lReq, rReq = map[string]bool{}, map[string]bool{}
				for c := range required {
					if ls.ColumnIndex(c) >= 0 {
						lReq[c] = true
					}
					if rs.ColumnIndex(c) >= 0 {
						rReq[c] = true
					}
				}
				add := func(c string) {
					if ls.ColumnIndex(c) >= 0 {
						lReq[c] = true
					}
					if rs.ColumnIndex(c) >= 0 {
						rReq[c] = true
					}
				}
				for _, e := range n.Equi {
					add(e.Left)
					add(e.Right)
				}
				for _, c := range resCols {
					add(c)
				}
			}
		}
		p.pruneColumns(n.Left, lReq)
		p.pruneColumns(n.Right, rReq)
	case *TextJoin:
		req := copyReq(required)
		if req != nil {
			for _, c := range textJoinDocColumns(n) {
				delete(req, c)
			}
			for _, f := range n.Preds {
				req[f.Column] = true
			}
			for _, c := range n.ProbeColumns {
				req[c] = true
			}
		}
		p.pruneColumns(n.Input, req)
	case *Project:
		req := make(map[string]bool, len(n.Columns))
		for _, c := range n.Columns {
			req[c] = true
		}
		p.pruneColumns(n.Input, req)
	}
}

// copyReq clones a requirement set, preserving nil (= keep everything).
func copyReq(req map[string]bool) map[string]bool {
	if req == nil {
		return nil
	}
	out := make(map[string]bool, len(req))
	for k, v := range req {
		out[k] = v
	}
	return out
}
