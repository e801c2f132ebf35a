package join

import (
	"fmt"
	"slices"
	"strings"

	"textjoin/internal/relation"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
	"textjoin/internal/value"
)

// Every method works on the distinct bindings of some relation columns —
// the join columns, the probe columns or the semi-join's OR columns —
// sending one instantiated search (or one OR disjunct) per binding and
// sharing its answer among the binding's tuples. This file computes them.

// binding is one distinct binding of some relation columns.
type binding struct {
	// rows are the binding's row indexes, in relation order.
	rows []int
}

// groupBindings is the one place the join methods compute distinct
// bindings. It groups the relation on the columns and returns mk's value
// for every binding, in first-appearance order, skipping those mk
// declines; an error from mk stops the grouping.
func groupBindings[T any](s *Spec, cols []string, mk func(rows []int) (T, bool, error)) ([]T, error) {
	groups, err := s.Relation.GroupBy(cols...)
	if err != nil {
		return nil, err
	}
	out := make([]T, 0, len(groups))
	for _, rows := range groups {
		v, ok, err := mk(rows)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, v)
		}
	}
	return out, nil
}

// bindings returns the distinct bindings of the columns in first-appearance
// order.
func (s *Spec) bindings(cols []string) ([]binding, error) {
	return groupBindings(s, cols, func(rows []int) (binding, bool, error) {
		return binding{rows: rows}, true, nil
	})
}

// rep returns a binding's representative (first) tuple.
func (s *Spec) rep(b binding) relation.Tuple { return s.Relation.Rows[b.rows[0]] }

// byKey returns the indexes of the bindings of the columns in ascending
// value.KeyOf order of their values, the order probes are sent in so wire
// traffic, traces and cache keys are deterministic. The key is built once
// per binding; bindings whose KeyOf strings coincide keep their
// first-appearance order.
func (s *Spec) byKey(cols []string, bs []binding) []int {
	keys := make([]string, len(bs))
	vals := make([]value.Value, len(cols))
	for i, b := range bs {
		for j, c := range cols {
			vals[j] = s.rep(b)[s.offset(c)]
		}
		keys[i] = value.KeyOf(vals...)
	}
	order := make([]int, len(bs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return strings.Compare(keys[a], keys[b]) })
	return order
}

// nesting is the relation grouped for probing: the distinct bindings of
// the probe columns and of the join columns, both in first-appearance
// order. Probe columns are join columns, so every join binding falls under
// exactly one probe binding: under[j] is join binding j's.
type nesting struct {
	probes, joins []binding
	under         []int
}

// nest groups the relation on the probe columns and on the join columns.
func (s *Spec) nest(probeCols []string) (nesting, error) {
	probes, err := s.bindings(probeCols)
	if err != nil {
		return nesting{}, err
	}
	joins, err := s.bindings(s.JoinColumns())
	if err != nil {
		return nesting{}, err
	}
	owner := make([]int, len(s.Relation.Rows))
	for p, b := range probes {
		for _, r := range b.rows {
			owner[r] = p
		}
	}
	under := make([]int, len(joins))
	for j, b := range joins {
		under[j] = owner[b.rows[0]]
	}
	return nesting{probes: probes, joins: joins, under: under}, nil
}

// byProbe returns, for every probe binding, the join bindings under it in
// first-appearance order.
func (n nesting) byProbe() [][]binding {
	out := make([][]binding, len(n.probes))
	for j, b := range n.joins {
		out[n.under[j]] = append(out[n.under[j]], b)
	}
	return out
}

// conjBinding is a distinct binding with its conjunct over some join
// predicates (without the text selection) and the conjunct's term count.
// It is built straight from the grouping rather than from a []binding, so
// SJ+RTP's per-query binding prep allocates one slice, not two.
type conjBinding struct {
	rows  []int
	conj  textidx.Expr
	terms int
}

// conjuncts is the one term-limit check. It builds, once per distinct
// binding of the columns, the conjunct of the predicates on them, dropping
// bindings with a value that has no searchable words (they cannot match).
// The first binding whose conjunct plus the selection exceeds the term
// limit is an error naming what the conjunct becomes in a search, so
// nothing is searched for a spec that some tuple makes inapplicable.
func (s *Spec) conjuncts(cols []string, svc texservice.Service, what string) ([]conjBinding, error) {
	preds, _ := s.splitPreds(cols)
	selTerms, limit := s.selTerms(), svc.MaxTerms()
	return groupBindings(s, cols, func(rows []int) (conjBinding, bool, error) {
		conj, ok := s.substPreds(s.Relation.Rows[rows[0]], preds)
		if !ok {
			return conjBinding{}, false, nil
		}
		t := conj.TermCount()
		if selTerms+t > limit {
			return conjBinding{}, false, fmt.Errorf("join: %s needs %d terms; limit is %d", what, selTerms+t, limit)
		}
		return conjBinding{rows: rows, conj: conj, terms: t}, true, nil
	})
}
