package join

import (
	"context"

	"textjoin/internal/obs"
	"textjoin/internal/relation"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

// This file is the probe phase every probing method shares (P+TS eager,
// P+RTP and the probe reducer): the outcome of every distinct probe-column
// binding, with the bindings probed in sorted key order in every mode so
// wire traffic, traces and cache keys are deterministic across runs.
//
// Unbatched, each binding is one probe search (§3.3's row-at-a-time
// discipline). Batched probe pushdown sends the deduplicated bindings in
// few invocations instead, choosing by capability and always falling back
// to something correct:
//
//   - OR packing when the probe fields are in the service's short form:
//     the bindings' conjuncts are packed into large OR-expressions capped by
//     the term limit M, so ⌈N_J·t/(M−t_sel)⌉ round trips replace N_J, and
//     each batch's hits are attributed back to bindings by relational
//     string matching (the hitMatcher the semi-join method uses, with the
//     NaiveJoin oracle's TermOccursIn semantics).
//   - Batched invocation (texservice.SearchBatch over the BatchSearcher
//     capability) otherwise: per-binding probes travel in few invocations
//     with aligned answers, no attribution needed.
//   - Per-binding searches when neither applies (SearchBatch degrades to
//     this on its own).
//
// Every probing method therefore produces exactly the same rows batched as
// unbatched.

// probeOutcome is one distinct probe binding's result.
type probeOutcome struct {
	// success reports whether the probe matched at least one document.
	success bool
	// hits are the binding's matching short-form documents, retained only
	// when the caller asked for them (needHits).
	hits []texservice.Hit
}

// probeAll computes the outcome of every probe binding, aligned with
// probes. needHits keeps each successful binding's hits and charges their
// relational matching. A binding with an unsearchable value cannot match
// any document and gets the zero outcome without a search.
func (ex *execution) probeAll(probeCols []string, probes []binding, batched, needHits bool) ([]probeOutcome, error) {
	preds := ex.spec.predsOn(probeCols)
	order := ex.spec.byKey(probeCols, probes)
	outcomes := make([]probeOutcome, len(probes))
	if batched {
		return outcomes, ex.batchProbe(preds, probes, order, needHits, outcomes)
	}
	for _, i := range order {
		o, err := ex.probe(ex.ctx, preds, ex.spec.rep(probes[i]), needHits)
		if err != nil {
			return nil, err
		}
		outcomes[i] = o
	}
	return outcomes, nil
}

// probe sends one binding's own probe search: the selection and the probe
// predicates instantiated with the tuple's values, in short form.
func (ex *execution) probe(ctx context.Context, preds []Pred, rep relation.Tuple, needHits bool) (probeOutcome, error) {
	pexpr, ok := ex.spec.SubstExpr(rep, preds)
	if !ok {
		return probeOutcome{}, nil
	}
	pres, err := ex.search(ctx, pexpr, texservice.FormShort)
	if err != nil {
		return probeOutcome{}, err
	}
	ex.stats.Probes++
	out := probeOutcome{success: !pres.IsEmpty()}
	if needHits && out.success {
		ex.svc.Meter().ChargeRTP(ctx, len(pres.Hits))
		out.hits = pres.Hits
	}
	return out, nil
}

// batchProbe fills the outcomes of the bindings, taken in the given
// order, with batched probe pushdown.
func (ex *execution) batchProbe(preds []Pred, probes []binding, order []int, needHits bool, outcomes []probeOutcome) error {
	ctx, sp := obs.StartSpan(ex.ctx, "probe.batch")
	defer sp.End()
	probesBefore, roundsBefore := ex.stats.Probes, ex.stats.BatchRounds
	strategy := "or-pack"
	var err error
	if requireShortFields(preds, ex.svc) == nil {
		err = ex.orPackProbe(ctx, preds, probes, order, needHits, outcomes)
	} else {
		strategy = "aligned"
		err = ex.alignedBatchProbe(ctx, preds, probes, order, needHits, outcomes)
	}
	if sp != nil {
		sp.SetAttr(obs.Str("strategy", strategy), obs.Int("bindings", len(order)),
			obs.Int("probes", ex.stats.Probes-probesBefore), obs.Int("batch_rounds", ex.stats.BatchRounds-roundsBefore))
	}
	return err
}

// orPackProbe packs per-binding probe conjuncts into OR groups under the
// term limit (the selection's terms counted once per batch) and attributes
// each batch's hits to its bindings relationally. A binding whose conjunct
// alone exceeds the limit is probed individually, with exactly the
// per-tuple semantics — including surfacing the same error a per-tuple
// probe of it would.
func (ex *execution) orPackProbe(ctx context.Context, preds []Pred, probes []binding, order []int, needHits bool, outcomes []probeOutcome) error {
	spec := ex.spec
	selTerms := spec.selTerms()
	limit := ex.svc.MaxTerms()

	type disjunct struct {
		i    int // index in probes
		conj textidx.Expr
	}
	var batch []disjunct
	batchTerms := selTerms
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		fctx, fsp := obs.StartSpan(ctx, "probe.batch.flush")
		disj := make([]textidx.Expr, len(batch))
		for i, d := range batch {
			disj[i] = d.conj
		}
		expr := orAll(disj)
		if spec.TextSel != nil {
			expr = andPair(spec.TextSel, expr)
		}
		res, err := ex.search(fctx, expr, texservice.FormShort)
		if err != nil {
			fsp.End()
			return err
		}
		ex.stats.Probes++
		ex.stats.BatchRounds++
		// Attributing the OR result to bindings is relational matching
		// work, charged like the semi-join method's.
		ex.svc.Meter().ChargeRTP(fctx, len(res.Hits))
		m := newHitMatcher(spec, res.Hits, preds)
		for _, d := range batch {
			matched := m.match(spec.rep(probes[d.i]))
			out := probeOutcome{success: len(matched) > 0}
			if needHits {
				for _, h := range matched {
					out.hits = append(out.hits, res.Hits[h])
				}
			}
			outcomes[d.i] = out
		}
		if fsp != nil {
			fsp.SetAttr(obs.Int("disjuncts", len(batch)), obs.Int("terms", batchTerms),
				obs.Int("hits", len(res.Hits)))
		}
		fsp.End()
		batch = batch[:0]
		batchTerms = selTerms
		return nil
	}
	for _, i := range order {
		rep := spec.rep(probes[i])
		conj, ok := spec.substPreds(rep, preds)
		if !ok {
			continue // unsearchable binding: cannot match
		}
		t := conj.TermCount()
		if selTerms+t > limit {
			if err := flush(); err != nil {
				return err
			}
			o, err := ex.probe(ctx, preds, rep, needHits)
			if err != nil {
				return err
			}
			outcomes[i] = o
			continue
		}
		if batchTerms+t > limit {
			if err := flush(); err != nil {
				return err
			}
		}
		batch = append(batch, disjunct{i: i, conj: conj})
		batchTerms += t
	}
	return flush()
}

// alignedBatchProbe issues the per-binding probe expressions through
// texservice.SearchBatch: with the BatchSearcher capability each chunk
// under the term limit is one invocation with aligned answers; without it
// the entry point degrades to individual searches. No short-form fields
// are required because no relational attribution happens.
func (ex *execution) alignedBatchProbe(ctx context.Context, preds []Pred, probes []binding, order []int, needHits bool, outcomes []probeOutcome) error {
	var exprs []textidx.Expr
	var searched []int
	for _, i := range order {
		if pexpr, ok := ex.spec.SubstExpr(ex.spec.rep(probes[i]), preds); ok {
			exprs = append(exprs, pexpr)
			searched = append(searched, i)
		}
	}
	results, invocations, err := ex.searchBatch(ctx, exprs, texservice.FormShort)
	if err != nil {
		return err
	}
	ex.stats.Probes += invocations
	if _, ok := ex.svc.(texservice.BatchSearcher); ok && invocations < len(exprs) {
		ex.stats.BatchRounds += invocations
	}
	for k, i := range searched {
		res := results[k]
		out := probeOutcome{success: !res.IsEmpty()}
		if needHits && out.success {
			ex.svc.Meter().ChargeRTP(ctx, len(res.Hits))
			out.hits = res.Hits
		}
		outcomes[i] = out
	}
	return nil
}
