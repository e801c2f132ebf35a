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
// The phase sends its searches through the two steps every foreign-join
// method shares, and adds none of its own:
//
//   - the per-binding search step (execution.searchEach): unbatched, each
//     binding is one probe search (§3.3's row-at-a-time discipline);
//     batched without short-form probe fields, the probes travel through
//     texservice.SearchBatch (the BatchSearcher capability, or individual
//     searches when a layer below refuses it) with aligned answers, no
//     attribution needed;
//   - the OR-pack step (execution.orPack), batched when the probe fields
//     are in the service's short form: the bindings' conjuncts are packed
//     into OR searches under the term limit M by texservice.Pack, the
//     packer SJ+RTP and SearchBatch use too, so ⌈N_J·t/(M−t_sel)⌉ round
//     trips replace N_J, and each group's hits are attributed back to
//     bindings by relational string matching (the hitMatcher the
//     semi-join method uses, with the NaiveJoin oracle's TermOccursIn
//     semantics). A binding too large to pack is probed on its own
//     through the per-binding step.
//
// Every probing method therefore produces exactly the same rows batched as
// unbatched.

// probeOutcome is one distinct probe binding's result.
type probeOutcome struct {
	// success reports whether the probe matched at least one document.
	success bool
	// res holds the binding's matching short-form documents, retained
	// only when the caller asked for them (needHits): the probe's own
	// answer, whose token index the caches share, or the binding's share
	// of an OR-packed answer.
	res *texservice.Result
}

// probeAll computes the outcome of every probe binding, aligned with
// probes. needHits keeps each successful binding's hits and charges their
// relational matching. A binding with an unsearchable value cannot match
// any document and gets the zero outcome without a search.
func (ex *execution) probeAll(probeCols []string, probes []binding, batched, needHits bool) ([]probeOutcome, error) {
	preds, _ := ex.spec.splitPreds(probeCols)
	order := ex.spec.byKey(probeCols, probes)
	outcomes := make([]probeOutcome, len(probes))
	subst := func(k int) (textidx.Expr, bool) { return ex.spec.SubstExpr(ex.spec.rep(probes[order[k]]), preds) }
	record := func(k int, o probeOutcome) { outcomes[order[k]] = o }
	if !batched {
		return outcomes, ex.probeEach(ex.ctx, len(order), subst, false, needHits, record)
	}
	ctx, sp := obs.StartSpan(ex.ctx, "probe.batch")
	defer sp.End()
	probesBefore, roundsBefore := ex.stats.Probes, ex.stats.BatchRounds
	strategy := "or-pack"
	var err error
	if requireShortFields(preds, ex.svc) == nil {
		err = ex.orPackProbe(ctx, preds, probes, order, needHits, outcomes)
	} else {
		strategy = "aligned"
		err = ex.probeEach(ctx, len(order), subst, true, needHits, record)
	}
	if sp != nil {
		sp.SetAttr(obs.Str("strategy", strategy), obs.Int("bindings", len(order)),
			obs.Int("probes", ex.stats.Probes-probesBefore), obs.Int("batch_rounds", ex.stats.BatchRounds-roundsBefore))
	}
	return outcomes, err
}

// probeEach sends the probe searches expr(k), k < n, through the
// per-binding search step in short form, counts them as probes, and hands
// fn each searched binding's outcome. Batched, every invocation that
// carried several probes counts as a batch round.
func (ex *execution) probeEach(ctx context.Context, n int, expr func(k int) (textidx.Expr, bool), batched, needHits bool, fn func(k int, o probeOutcome)) error {
	searched := 0
	invocations, err := ex.searchEach(ctx, n, expr, texservice.FormShort, batched, func(k int, res *texservice.Result) {
		searched++
		o := probeOutcome{success: !res.IsEmpty()}
		if needHits && o.success {
			ex.svc.Meter().ChargeRTP(ctx, len(res.Hits))
			o.res = res
		}
		fn(k, o)
	})
	ex.stats.Probes += invocations
	if invocations < searched {
		ex.stats.BatchRounds += invocations
	}
	return err
}

// probe sends one binding's own probe search: the selection and the probe
// predicates instantiated with the tuple's values, in short form.
func (ex *execution) probe(preds []Pred, rep relation.Tuple, needHits bool) (out probeOutcome, err error) {
	err = ex.probeEach(ex.ctx, 1, func(int) (textidx.Expr, bool) { return ex.spec.SubstExpr(rep, preds) },
		false, needHits, func(_ int, o probeOutcome) { out = o })
	return out, err
}

// orPackProbe sends the probe conjuncts of the bindings, taken in the
// given order, through the OR-pack step and attributes each group's hits
// to its bindings. A binding whose conjunct alone exceeds the term limit
// is probed on its own, with exactly the per-tuple semantics — including
// surfacing the same error a per-tuple probe of it would.
func (ex *execution) orPackProbe(ctx context.Context, preds []Pred, probes []binding, order []int, needHits bool, outcomes []probeOutcome) error {
	spec := ex.spec
	bs := make([]conjBinding, 0, len(order))
	idx := make([]int, 0, len(order)) // idx[k] is bs[k]'s index in probes
	for _, i := range order {
		if conj, ok := spec.substPreds(spec.rep(probes[i]), preds); ok {
			bs = append(bs, conjBinding{rows: probes[i].rows, conj: conj, terms: conj.TermCount()})
			idx = append(idx, i)
		}
	}
	return ex.orPack(ctx, bs, preds, func(lo, hi int, m *hitMatcher) error {
		if m == nil {
			return ex.probeEach(ctx, 1, func(int) (textidx.Expr, bool) { return spec.withSel(bs[lo].conj), true },
				false, needHits, func(_ int, o probeOutcome) { outcomes[idx[lo]] = o })
		}
		ex.stats.Probes++
		ex.stats.BatchRounds++
		for k := lo; k < hi; k++ {
			matched := m.match(spec.Relation.Rows[bs[k].rows[0]])
			out := probeOutcome{success: len(matched) > 0}
			if needHits && out.success {
				out.res = &texservice.Result{Fields: m.res.Fields, Hits: make([]texservice.Hit, len(matched))}
				for j, h := range matched {
					out.res.Hits[j] = m.res.Hits[h]
				}
			}
			outcomes[idx[k]] = out
		}
		return nil
	})
}
