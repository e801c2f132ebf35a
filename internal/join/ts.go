package join

import (
	"context"

	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

// TS is tuple substitution (§3.1): a nested-loop join with the relation as
// the outer operand, sending one instantiated search per distinct binding
// of the join columns (the variant the paper's experiments use). Results
// are shared by all tuples with the same binding.
type TS struct{}

// Name implements Method.
func (TS) Name() string { return "TS" }

// Applicable implements Method: tuple substitution is universally
// applicable.
func (TS) Applicable(spec *Spec, svc texservice.Service) error {
	return spec.Validate()
}

// Execute implements Method.
func (m TS) Execute(ctx context.Context, spec *Spec, svc texservice.Service) (*Result, error) {
	return run(ctx, "join."+m.Name(), spec, svc, func(ex *execution) error {
		joins, err := spec.bindings(spec.JoinColumns())
		if err != nil {
			return err
		}
		return ex.substituteAll(joins, false)
	})
}

var _ Method = TS{}

// substituteAll is the substitute-and-emit step for many join bindings, in
// binding order: one substitute each, or, batched, every searchable
// binding's substituted search through texservice.SearchBatch (packed
// under the term limit, one invocation per pack) before emitting.
func (ex *execution) substituteAll(joins []binding, batched bool) error {
	if !batched {
		for _, b := range joins {
			if _, err := ex.substitute(b); err != nil {
				return err
			}
		}
		return nil
	}
	var exprs []textidx.Expr
	var searched []binding
	for _, b := range joins {
		if expr, ok := ex.spec.SubstExpr(ex.spec.rep(b), ex.spec.Preds); ok {
			exprs = append(exprs, expr)
			searched = append(searched, b)
		}
	}
	results, _, err := ex.searchBatch(ex.ctx, exprs, ex.searchForm())
	if err != nil {
		return err
	}
	for i, b := range searched {
		ex.emitAll(b, results[i].Hits)
	}
	return nil
}

// substitute is the substitute-and-emit step for one join binding: it
// sends the binding's substituted search (the selection and every join
// predicate, in the query's form) and emits a row per (tuple, hit). It
// returns the result, or nil without searching when the binding has an
// unsearchable value.
func (ex *execution) substitute(b binding) (*texservice.Result, error) {
	expr, ok := ex.spec.SubstExpr(ex.spec.rep(b), ex.spec.Preds)
	if !ok {
		return nil, nil
	}
	res, err := ex.search(ex.ctx, expr, ex.searchForm())
	if err != nil {
		return nil, err
	}
	ex.emitAll(b, res.Hits)
	return res, nil
}

// emitAll emits a row for every (tuple, hit) pair of the binding, in
// tuple-then-hit order. The hits are in the query's form.
func (ex *execution) emitAll(b binding, hits []texservice.Hit) {
	for _, r := range b.rows {
		for _, hit := range hits {
			ex.emit(ex.spec.Relation.Rows[r], hit.ExtID, hit.Fields)
		}
	}
}

// RTP is relational text processing (§3.2): a single search carrying only
// the text selection; the returned short-form documents are matched
// against the relation with SQL string matching.
type RTP struct{}

// Name implements Method.
func (RTP) Name() string { return "RTP" }

// Applicable implements Method: RTP needs a text selection (it sends
// nothing else to the text system) and join-predicate fields that the
// short form carries.
func (RTP) Applicable(spec *Spec, svc texservice.Service) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if spec.TextSel == nil {
		return errNoSelection
	}
	return requireShortFields(spec.Preds, svc)
}

// Execute implements Method.
func (m RTP) Execute(ctx context.Context, spec *Spec, svc texservice.Service) (*Result, error) {
	if err := m.Applicable(spec, svc); err != nil {
		return nil, err
	}
	return run(ctx, "join."+m.Name(), spec, svc, func(ex *execution) error {
		res, err := ex.search(ex.ctx, spec.TextSel, texservice.FormShort)
		if err != nil {
			return err
		}
		svc.Meter().ChargeRTP(ex.ctx, len(res.Hits))
		rows := make([]int, len(spec.Relation.Rows))
		for i := range rows {
			rows[i] = i
		}
		return ex.emitMatches(newHitMatcher(spec, res.Hits, spec.Preds), rows)
	})
}

var _ Method = RTP{}

// emitMatches emits a row for every (tuple, hit) pair of the given rows
// that the matcher attributes to each other by string matching, in
// tuple-then-hit order, fetching long forms through the cache when the
// spec requires them.
func (ex *execution) emitMatches(m *hitMatcher, rows []int) error {
	for _, r := range rows {
		tuple := ex.spec.Relation.Rows[r]
		for _, h := range m.match(tuple) {
			if err := ex.emitHit(tuple, m.hits[h]); err != nil {
				return err
			}
		}
	}
	return nil
}
