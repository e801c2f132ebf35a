package join

import (
	"context"
	"fmt"

	"textjoin/internal/relation"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

// This file implements join methods built on the §8 service extensions and
// the §5 runtime safeguard:
//
//   - TSBatch: tuple substitution over the batched-invocation capability,
//     amortising the invocation cost c_i over many substituted queries
//     while keeping per-query answer correspondence (so no relational
//     post-matching is needed, unlike the semi-join method).
//   - PRTPAdaptive: probing + relational text processing with a runtime
//     document budget. §5 notes that P+RTP "suffers from the danger that
//     if the selectivity and fanout estimates are unreliable, then too
//     many documents are fetched" and defers to runtime optimization;
//     this method monitors the shipped-document count and switches the
//     remaining bindings to tuple substitution when the budget is
//     exceeded.

// TSBatch is tuple substitution using the BatchSearcher capability: the
// substituted queries go through texservice.SearchBatch, which packs them
// into batches under the term limit M, each batch one invocation, and
// falls back to one search per query when a layer below refuses batching.
type TSBatch struct{}

// Name implements Method.
func (TSBatch) Name() string { return "TS(batched)" }

// Applicable implements Method: the service must support batched
// invocation and every substituted query must fit in a batch.
func (TSBatch) Applicable(spec *Spec, svc texservice.Service) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if _, ok := svc.(texservice.BatchSearcher); !ok {
		return fmt.Errorf("join: %w", texservice.ErrNoBatch)
	}
	selTerms := spec.selTerms()
	for _, row := range spec.Relation.Rows {
		if t := spec.TupleTermCount(row); t >= 0 && selTerms+t > svc.MaxTerms() {
			return fmt.Errorf("join: a substituted query needs %d terms; limit is %d",
				selTerms+t, svc.MaxTerms())
		}
	}
	return nil
}

// Execute implements Method.
func (m TSBatch) Execute(ctx context.Context, spec *Spec, svc texservice.Service) (*Result, error) {
	if err := m.Applicable(spec, svc); err != nil {
		return nil, err
	}
	return run(ctx, m.Name(), spec, svc, func(ex *execution) error {
		keys, groups, err := spec.Relation.GroupBy(spec.JoinColumns()...)
		if err != nil {
			return err
		}
		var exprs []textidx.Expr
		var exprKeys []string
		for _, key := range keys {
			if expr, ok := spec.SubstExpr(spec.Relation.Rows[groups[key][0]], spec.Preds); ok {
				exprs = append(exprs, expr)
				exprKeys = append(exprKeys, key)
			}
		}
		results, _, err := texservice.SearchBatch(ex.ctx, svc, exprs, ex.searchForm())
		if err != nil {
			return err
		}
		for i, key := range exprKeys {
			for _, rowIdx := range groups[key] {
				for _, hit := range results[i].Hits {
					ex.emit(spec.Relation.Rows[rowIdx], hit.ExtID, hit.Fields)
				}
			}
		}
		return nil
	})
}

var _ Method = TSBatch{}

// PRTPAdaptive is P+RTP with a runtime shipped-document budget: probes
// proceed as in PRTP, but once the cumulative short-form documents
// shipped exceed DocBudget, the remaining probe bindings are evaluated by
// tuple substitution instead — capping the damage of an underestimated
// fanout while preserving the result exactly.
type PRTPAdaptive struct {
	// ProbeColumns is the probe set, as in PRTP.
	ProbeColumns []string
	// DocBudget is the shipped-document budget; once exceeded, execution
	// degrades to substitution. Zero means no budget (plain P+RTP).
	DocBudget int
}

// Name implements Method.
func (PRTPAdaptive) Name() string { return "P+RTP(adaptive)" }

// Applicable implements Method (same conditions as PRTP).
func (m PRTPAdaptive) Applicable(spec *Spec, svc texservice.Service) error {
	return PRTP{ProbeColumns: m.ProbeColumns}.Applicable(spec, svc)
}

// Execute implements Method.
func (m PRTPAdaptive) Execute(ctx context.Context, spec *Spec, svc texservice.Service) (*Result, error) {
	if err := m.Applicable(spec, svc); err != nil {
		return nil, err
	}
	return run(ctx, m.Name(), spec, svc, func(ex *execution) error {
		keys, groups, err := spec.Relation.GroupBy(m.ProbeColumns...)
		if err != nil {
			return err
		}
		probePreds := spec.predsOn(m.ProbeColumns)
		restPreds := spec.predsNotOn(m.ProbeColumns)
		shipped := 0
		switched := false
		for _, key := range keys {
			members := groups[key]
			if switched {
				if err := ex.substituteBindings(members); err != nil {
					return err
				}
				continue
			}
			rep := spec.Relation.Rows[members[0]]
			pexpr, ok := spec.SubstExpr(rep, probePreds)
			if !ok {
				continue
			}
			pres, err := svc.Search(ex.ctx, pexpr, texservice.FormShort)
			if err != nil {
				return err
			}
			ex.stats.Probes++
			if pres.IsEmpty() {
				continue
			}
			shipped += len(pres.Hits)
			svc.Meter().ChargeRTP(ex.ctx, len(pres.Hits))
			tuples := make([]relation.Tuple, len(members))
			for i, rowIdx := range members {
				tuples[i] = spec.Relation.Rows[rowIdx]
			}
			if err := matchHitsRelationally(ex, tuples, pres.Hits, restPreds); err != nil {
				return err
			}
			if m.DocBudget > 0 && shipped > m.DocBudget {
				switched = true
			}
		}
		return nil
	})
}

// substituteBindings runs full substituted searches for the distinct join
// bindings among the given row indexes (the degradation path of the
// adaptive method).
func (ex *execution) substituteBindings(rowIdxs []int) error {
	spec := ex.spec
	cols := spec.JoinColumns()
	form := ex.searchForm()
	byBinding := map[string][]int{}
	var order []string
	for _, rowIdx := range rowIdxs {
		key := spec.bindingKey(spec.Relation.Rows[rowIdx], cols)
		if _, ok := byBinding[key]; !ok {
			order = append(order, key)
		}
		byBinding[key] = append(byBinding[key], rowIdx)
	}
	for _, key := range order {
		members := byBinding[key]
		rep := spec.Relation.Rows[members[0]]
		expr, ok := spec.SubstExpr(rep, spec.Preds)
		if !ok {
			continue
		}
		res, err := ex.svc.Search(ex.ctx, expr, form)
		if err != nil {
			return err
		}
		for _, rowIdx := range members {
			for _, hit := range res.Hits {
				if err := ex.emitHit(spec.Relation.Rows[rowIdx], hit, form == texservice.FormLong); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

var _ Method = PRTPAdaptive{}
