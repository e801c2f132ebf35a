package join

import (
	"context"
	"fmt"

	"textjoin/internal/texservice"
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
	_, err := spec.conjuncts(spec.JoinColumns(), svc, "a substituted query")
	return err
}

// Execute implements Method.
func (m TSBatch) Execute(ctx context.Context, spec *Spec, svc texservice.Service) (*Result, error) {
	if err := m.Applicable(spec, svc); err != nil {
		return nil, err
	}
	return run(ctx, "join."+m.Name(), spec, svc, func(ex *execution) error {
		joins, err := spec.bindings(spec.JoinColumns())
		if err != nil {
			return err
		}
		return ex.substituteAll(joins, true)
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

// Execute implements Method. Probe bindings are taken in first-appearance
// order, not the probe phase's sorted order: where the budget runs out,
// and so which bindings switch, depends on it.
func (m PRTPAdaptive) Execute(ctx context.Context, spec *Spec, svc texservice.Service) (*Result, error) {
	if err := m.Applicable(spec, svc); err != nil {
		return nil, err
	}
	return run(ctx, "join."+m.Name(), spec, svc, func(ex *execution) error {
		n, err := spec.nest(m.ProbeColumns)
		if err != nil {
			return err
		}
		joinsUnder := n.byProbe()
		preds := spec.predsOn(m.ProbeColumns)
		rest := spec.predsNotOn(m.ProbeColumns)
		shipped := 0
		switched := false
		for p, b := range n.probes {
			if switched {
				if err := ex.substituteAll(joinsUnder[p], false); err != nil {
					return err
				}
				continue
			}
			o, err := ex.probe(ex.ctx, preds, spec.rep(b), true)
			if err != nil {
				return err
			}
			if !o.success {
				continue
			}
			shipped += len(o.hits)
			if err := ex.emitMatches(newHitMatcher(spec, o.hits, rest), b.rows); err != nil {
				return err
			}
			if m.DocBudget > 0 && shipped > m.DocBudget {
				switched = true
			}
		}
		return nil
	})
}

var _ Method = PRTPAdaptive{}
