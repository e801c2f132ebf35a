package join

import (
	"context"
	"errors"

	"textjoin/internal/obs"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

var errNoSelection = errors.New("join: method requires a text selection")

// SJRTP is the semi-join method with relational text processing (§3.2):
// the per-tuple conjuncts of tuple substitution are packaged into OR
// groups, subject to the text system's search-term limit M, so
// ⌈N_K·t/M⌉-ish batched searches replace N_K individual ones. The batched
// results come back in short form and are attributed to tuples by
// relational string matching. Every join predicate's instantiation enters
// the OR groups, so only documents matching a full tuple conjunct are
// shipped.
type SJRTP struct{}

// Name implements Method.
func (SJRTP) Name() string { return "SJ+RTP" }

// Applicable implements Method: every tuple's OR conjunct (plus the
// selection) must fit in one search, and the join-predicate fields must be
// in the short form for the relational matching step.
func (m SJRTP) Applicable(spec *Spec, svc texservice.Service) error {
	_, err := m.bindings(spec, svc)
	return err
}

// bindings checks applicability and prepares the OR disjuncts: the
// distinct bindings of the join columns, each conjunct built and checked
// against the term limit once.
func (SJRTP) bindings(spec *Spec, svc texservice.Service) ([]conjBinding, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := requireShortFields(spec.Preds, svc); err != nil {
		return nil, err
	}
	return spec.conjuncts(svc, "a tuple's conjunct")
}

// Execute implements Method: the distinct bindings go through the OR-pack
// step, and each group's hits are attributed to its bindings' tuples
// relationally. No binding is too large to pack: bindings rejects the spec
// first.
func (s SJRTP) Execute(ctx context.Context, spec *Spec, svc texservice.Service) (*Result, error) {
	bindings, err := s.bindings(spec, svc)
	if err != nil {
		return nil, err
	}
	return run(ctx, "join."+s.Name(), spec, svc, func(ex *execution) error {
		return ex.orPack(ex.ctx, bindings, spec.Preds, func(lo, hi int, m *hitMatcher) error {
			for _, b := range bindings[lo:hi] {
				if err := ex.emitMatches(m, b.rows); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

// orPack is the one OR-pack step, shared by SJ+RTP and OR-packed probes.
// texservice.Pack packs the bindings' conjuncts under the term limit, the
// selection's terms counted once per group, and each group is one
// short-form search: the selection AND the OR of the group's conjuncts.
// Attributing the hits to the group's tuples is relational matching work,
// charged as such; fn gets the group's range in bs and a matcher over its
// hits on preds. A binding whose conjunct and the selection alone exceed
// the limit reaches fn unsearched, as a group of its own with a nil
// matcher.
func (ex *execution) orPack(ctx context.Context, bs []conjBinding, preds []Pred, fn func(lo, hi int, m *hitMatcher) error) error {
	spec := ex.spec
	base, limit := spec.selTerms(), ex.svc.MaxTerms()
	return texservice.Pack(len(bs), base, limit, func(i int) int { return bs[i].terms }, func(lo, hi int) error {
		if base+bs[lo].terms > limit {
			return fn(lo, hi, nil)
		}
		gctx, sp := obs.StartSpan(ctx, "join.orpack")
		defer sp.End()
		disj := make([]textidx.Expr, hi-lo)
		for k, b := range bs[lo:hi] {
			disj[k] = b.conj
		}
		expr := orAll(disj)
		if spec.TextSel != nil {
			expr = andPair(spec.TextSel, expr)
		}
		res, err := ex.search(gctx, expr, texservice.FormShort)
		if err != nil {
			return err
		}
		ex.svc.Meter().ChargeRTP(gctx, len(res.Hits))
		if sp != nil {
			sp.SetAttr(obs.Int("disjuncts", hi-lo), obs.Int("terms", expr.TermCount()), obs.Int("hits", len(res.Hits)))
		}
		return fn(lo, hi, newHitMatcher(spec, res, preds))
	})
}

var _ Method = SJRTP{}
