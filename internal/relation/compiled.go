package relation

import (
	"fmt"
	"strings"

	"textjoin/internal/value"
)

// This file implements predicate compilation: resolving every column
// reference of a Predicate against a fixed schema once, so that per-row
// evaluation does no name lookups. The interpreted Predicate.Eval resolves
// names on every call — measurably dominant when a selection or join
// residual runs over millions of rows (see BenchmarkPredicateEval).
//
// Compile is schema-specific by construction: a compiled predicate is only
// valid for tuples of the schema it was compiled against.

// CompiledPred is a Predicate whose column references have been resolved
// to tuple offsets for one schema. The zero value is invalid; build with
// Compile.
type CompiledPred struct {
	root cnode
}

// cnode is one node of the compiled predicate tree. Evaluation never does
// name resolution; the only error source is an embedded predicate of an
// unknown type, kept interpreted as a fallback.
type cnode interface {
	eval(t Tuple) (bool, error)
}

// Compile resolves p's column references against s. Unknown columns fail
// here, with the same error the interpreted evaluation would produce per
// row. Predicate types outside the package's vocabulary are kept
// interpreted (resolved per row), so Compile never loses generality.
func Compile(p Predicate, s *Schema) (*CompiledPred, error) {
	n, err := compile(p, s)
	if err != nil {
		return nil, err
	}
	return &CompiledPred{root: n}, nil
}

// Eval evaluates the compiled predicate over one tuple of the schema it
// was compiled for.
func (c *CompiledPred) Eval(t Tuple) (bool, error) {
	return c.root.eval(t)
}

func compile(p Predicate, s *Schema) (cnode, error) {
	switch p := p.(type) {
	case nil:
		return cTrue{}, nil
	case True:
		return cTrue{}, nil
	case ColConst:
		idx := s.ColumnIndex(p.Col)
		if idx < 0 {
			return nil, fmt.Errorf("relation: unknown column %q in predicate", p.Col)
		}
		return cColConst{idx: idx, op: p.Op, c: p.Const}, nil
	case ColCol:
		li := s.ColumnIndex(p.Left)
		if li < 0 {
			return nil, fmt.Errorf("relation: unknown column %q in predicate", p.Left)
		}
		ri := s.ColumnIndex(p.Right)
		if ri < 0 {
			return nil, fmt.Errorf("relation: unknown column %q in predicate", p.Right)
		}
		return cColCol{li: li, ri: ri, op: p.Op}, nil
	case Contains:
		idx := s.ColumnIndex(p.Col)
		if idx < 0 {
			return nil, fmt.Errorf("relation: unknown column %q in predicate", p.Col)
		}
		return cContains{idx: idx, needle: strings.ToLower(p.Needle)}, nil
	case And:
		kids := make([]cnode, len(p))
		for i, sub := range p {
			n, err := compile(sub, s)
			if err != nil {
				return nil, err
			}
			kids[i] = n
		}
		return cAnd(kids), nil
	case Or:
		kids := make([]cnode, len(p))
		for i, sub := range p {
			n, err := compile(sub, s)
			if err != nil {
				return nil, err
			}
			kids[i] = n
		}
		return cOr(kids), nil
	case Not:
		n, err := compile(p.P, s)
		if err != nil {
			return nil, err
		}
		return cNot{n}, nil
	default:
		// Unknown predicate implementation: keep it interpreted so external
		// Predicate types still work, just without the offset resolution.
		return cDyn{s: s, p: p}, nil
	}
}

type cTrue struct{}

func (cTrue) eval(Tuple) (bool, error) { return true, nil }

type cColConst struct {
	idx int
	op  CmpOp
	c   value.Value
}

func (n cColConst) eval(t Tuple) (bool, error) { return n.op.apply(t[n.idx], n.c), nil }

type cColCol struct {
	li, ri int
	op     CmpOp
}

func (n cColCol) eval(t Tuple) (bool, error) { return n.op.apply(t[n.li], t[n.ri]), nil }

type cContains struct {
	idx    int
	needle string // pre-lowered
}

func (n cContains) eval(t Tuple) (bool, error) {
	v := t[n.idx]
	if v.IsNull() {
		return false, nil
	}
	return strings.Contains(strings.ToLower(v.Text()), n.needle), nil
}

type cAnd []cnode

func (n cAnd) eval(t Tuple) (bool, error) {
	for _, sub := range n {
		ok, err := sub.eval(t)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

type cOr []cnode

func (n cOr) eval(t Tuple) (bool, error) {
	for _, sub := range n {
		ok, err := sub.eval(t)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

type cNot struct{ p cnode }

func (n cNot) eval(t Tuple) (bool, error) {
	ok, err := n.p.eval(t)
	return !ok, err
}

type cDyn struct {
	s *Schema
	p Predicate
}

func (n cDyn) eval(t Tuple) (bool, error) { return n.p.Eval(n.s, t) }

// PredicateColumns returns the column names p references, without
// duplicates, and whether p is made only of the package's predicate
// vocabulary (ok=false when an unknown Predicate type is embedded, in
// which case the reference set cannot be known statically).
func PredicateColumns(p Predicate) (cols []string, ok bool) {
	seen := map[string]bool{}
	var add func(name string)
	add = func(name string) {
		if !seen[name] {
			seen[name] = true
			cols = append(cols, name)
		}
	}
	var walk func(p Predicate) bool
	walk = func(p Predicate) bool {
		switch p := p.(type) {
		case nil, True:
			return true
		case ColConst:
			add(p.Col)
			return true
		case ColCol:
			add(p.Left)
			add(p.Right)
			return true
		case Contains:
			add(p.Col)
			return true
		case And:
			for _, sub := range p {
				if !walk(sub) {
					return false
				}
			}
			return true
		case Or:
			for _, sub := range p {
				if !walk(sub) {
					return false
				}
			}
			return true
		case Not:
			return walk(p.P)
		default:
			return false
		}
	}
	return cols, walk(p)
}
