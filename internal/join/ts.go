package join

import (
	"context"
	"fmt"

	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

// TS is tuple substitution (§3.1): a nested-loop join with the relation as
// the outer operand, sending one instantiated search per distinct binding
// of the join columns (the variant the paper's experiments use). Results
// are shared by all tuples with the same binding.
type TS struct {
	// Batched sends the substituted queries through the §8 batched
	// invocation capability (texservice.SearchBatch), which packs them
	// into batches under the term limit M, each batch one invocation,
	// amortising c_i while keeping per-query answer correspondence. A
	// layer below that refuses batching degrades it to one search per
	// query. The result rows and their order are the same batched or not.
	Batched bool
}

// Name implements Method.
func (m TS) Name() string {
	if m.Batched {
		return "TS(batched)"
	}
	return "TS"
}

// Applicable implements Method: every substituted query must fit in one
// search, and batched substitution needs a service that supports batched
// invocation.
func (m TS) Applicable(spec *Spec, svc texservice.Service) error {
	_, err := m.bindings(spec, svc)
	return err
}

// bindings checks applicability and builds every join binding's conjunct
// once, from the one grouping the term-limit check makes; a binding's
// substituted query is its conjunct with the selection prefixed.
func (m TS) bindings(spec *Spec, svc texservice.Service) ([]conjBinding, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if m.Batched {
		if _, ok := svc.(texservice.BatchSearcher); !ok {
			return nil, fmt.Errorf("join: %w", texservice.ErrNoBatch)
		}
	}
	return spec.conjuncts(svc, "a substituted query")
}

// Execute implements Method.
func (m TS) Execute(ctx context.Context, spec *Spec, svc texservice.Service) (*Result, error) {
	joins, err := m.bindings(spec, svc)
	if err != nil {
		return nil, err
	}
	return run(ctx, "join."+m.Name(), spec, svc, func(ex *execution) error {
		_, err := ex.searchEach(ex.ctx, len(joins), func(k int) (textidx.Expr, bool) {
			return spec.withSel(joins[k].conj), true
		}, ex.searchForm(), m.Batched, func(k int, res *texservice.Result) { ex.emitAll(joins[k].rows, res.Hits) })
		return err
	})
}

var _ Method = TS{}

// substitute is the substitute-and-emit step for one join binding: its
// substituted search (the selection and every join predicate, in the
// query's form) goes through the per-binding search step, and a row is
// emitted per (tuple, hit). It returns the answer, or nil when an
// unsearchable value sent no search.
func (ex *execution) substitute(b binding) (res *texservice.Result, err error) {
	_, err = ex.searchEach(ex.ctx, 1, func(int) (textidx.Expr, bool) {
		return ex.spec.SubstExpr(ex.spec.rep(b), ex.spec.Preds)
	}, ex.searchForm(), false, func(_ int, r *texservice.Result) {
		ex.emitAll(b.rows, r.Hits)
		res = r
	})
	return res, err
}

// emitAll emits a row for every (tuple, hit) pair of a binding's rows, in
// tuple-then-hit order. The hits are in the query's form.
func (ex *execution) emitAll(rows []int, hits []texservice.Hit) {
	for _, r := range rows {
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
