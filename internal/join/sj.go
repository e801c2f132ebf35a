package join

import (
	"context"
	"errors"
	"strings"

	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

var errNoSelection = errors.New("join: method requires a text selection")

// SJRTP is the semi-join method with relational text processing (§3.2):
// the per-tuple conjuncts of tuple substitution are packaged into OR
// groups, subject to the text system's search-term limit M, so
// ⌈N_K·t/M⌉-ish batched searches replace N_K individual ones. The batched
// results come back in short form and are attributed to tuples by
// relational string matching.
//
// By default every join predicate's instantiation enters the OR groups
// (the strongest variant: only documents matching a full tuple conjunct
// are shipped). OrColumns restricts the OR groups to the named columns'
// predicates — the paper's looser generalization in which the remaining
// predicates are evaluated relationally after fetching; it ships more
// documents but batches far fewer terms per tuple.
type SJRTP struct {
	// OrColumns restricts the batched disjuncts to the predicates on
	// these columns (empty = all join columns).
	OrColumns []string
}

// Name implements Method.
func (m SJRTP) Name() string {
	if len(m.OrColumns) > 0 {
		return "SJ(" + strings.Join(m.OrColumns, ",") + ")+RTP"
	}
	return "SJ+RTP"
}

// orColumns resolves the effective OR column set.
func (m SJRTP) orColumns(spec *Spec) []string {
	if len(m.OrColumns) > 0 {
		return m.OrColumns
	}
	return spec.JoinColumns()
}

// Applicable implements Method: every tuple's OR conjunct (plus the
// selection) must fit in one search, and the join-predicate fields must be
// in the short form for the relational matching step.
func (m SJRTP) Applicable(spec *Spec, svc texservice.Service) error {
	_, err := m.bindings(spec, svc)
	return err
}

// bindings checks applicability and prepares the OR disjuncts: the
// distinct bindings of the OR columns (restricting the OR set shrinks the
// number of disjuncts too), each conjunct built and checked against the
// term limit once.
func (m SJRTP) bindings(spec *Spec, svc texservice.Service) ([]conjBinding, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := requireShortFields(spec.Preds, svc); err != nil {
		return nil, err
	}
	if len(m.OrColumns) > 0 {
		if err := validateProbeColumns(spec, m.OrColumns); err != nil {
			return nil, err
		}
	}
	return spec.conjuncts(m.orColumns(spec), svc, "a tuple's conjunct")
}

// Execute implements Method.
func (s SJRTP) Execute(ctx context.Context, spec *Spec, svc texservice.Service) (*Result, error) {
	bindings, err := s.bindings(spec, svc)
	if err != nil {
		return nil, err
	}
	return run(ctx, "join."+s.Name(), spec, svc, func(ex *execution) error {
		// Greedily pack distinct bindings into batches under the term
		// limit, each batch one OR search.
		selTerms := spec.selTerms()
		start, terms := 0, selTerms
		for i, b := range bindings {
			if terms+b.terms > svc.MaxTerms() && i > start {
				if err := ex.runSJBatch(bindings[start:i]); err != nil {
					return err
				}
				start, terms = i, selTerms
			}
			terms += b.terms
		}
		if start == len(bindings) {
			return nil
		}
		return ex.runSJBatch(bindings[start:])
	})
}

// runSJBatch sends one OR-of-conjuncts search for the given bindings and
// attributes its results to the bindings' tuples relationally (on all
// join predicates, covering those outside the OR set).
func (ex *execution) runSJBatch(batch []conjBinding) error {
	spec := ex.spec
	disj := make([]textidx.Expr, len(batch))
	for i, b := range batch {
		disj[i] = b.conj
	}
	expr := orAll(disj)
	if spec.TextSel != nil {
		expr = andPair(spec.TextSel, expr)
	}
	res, err := ex.search(ex.ctx, expr, texservice.FormShort)
	if err != nil {
		return err
	}
	ex.svc.Meter().ChargeRTP(ex.ctx, len(res.Hits))
	m := newHitMatcher(spec, res.Hits, spec.Preds)
	for _, b := range batch {
		if err := ex.emitMatches(m, b.rows); err != nil {
			return err
		}
	}
	return nil
}

var _ Method = SJRTP{}
