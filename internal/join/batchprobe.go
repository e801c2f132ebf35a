package join

import (
	"context"
	"sort"

	"textjoin/internal/obs"
	"textjoin/internal/relation"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
	"textjoin/internal/value"
	"textjoin/internal/vec"
)

// This file implements batched probe pushdown: instead of issuing one
// probe search per distinct probe-column binding (§3.3's row-at-a-time
// discipline), the deduplicated bindings are sorted and packed into large
// OR-expressions capped by the service's term limit M, so ⌈N_J·t/(M−t_sel)⌉
// round trips replace N_J. Results are attributed back to bindings by
// relational string matching (the hitMatcher the semi-join method uses,
// with the NaiveJoin oracle's TermOccursIn semantics), so every probing
// method produces exactly the same rows batched as unbatched.
//
// Strategy selection is by capability, always falling back to something
// correct:
//
//   - OR packing when the probe fields are in the service's short form —
//     hits can then be attributed to bindings relationally.
//   - Batched invocation (texservice.SearchBatch over the BatchSearcher
//     capability) otherwise: per-binding probes travel in few invocations
//     with aligned answers, no attribution needed.
//   - Per-binding searches when neither applies (SearchBatch degrades to
//     this on its own).
//
// Bindings are probed in sorted key order in every path — batched or not —
// so wire traffic, traces and cache keys are deterministic across runs.

// probeOutcome is one distinct probe binding's result.
type probeOutcome struct {
	// success reports whether the probe matched at least one document.
	success bool
	// hits are the binding's matching short-form documents, retained only
	// when the caller asked for them (needHits).
	hits []texservice.Hit
}

// sortedKeys returns the binding keys in sorted order without mutating
// the input.
func sortedKeys(keys []string) []string {
	out := append([]string(nil), keys...)
	sort.Strings(out)
	return out
}

// bindingVectors gathers the distinct bindings of the probe columns from
// column vectors: a vec.TableScan over just those columns streams dense
// batches, and the composite keys are computed straight down the vectors
// instead of indexing across full row tuples. Row indices in groups refer
// to spec.Relation.Rows (the scan preserves source order).
func bindingVectors(spec *Spec, cols []string) (keys []string, groups map[string][]int, err error) {
	scan, err := vec.NewTableScan(spec.Relation, cols, nil)
	if err != nil {
		return nil, nil, err
	}
	defer scan.Close()
	groups = map[string][]int{}
	vals := make([]value.Value, len(cols))
	base := 0
	for {
		b, err := scan.Next()
		if err != nil {
			return nil, nil, err
		}
		if b == nil {
			return keys, groups, nil
		}
		n := b.Len()
		for i := 0; i < n; i++ {
			for j := range vals {
				vals[j] = b.Col(j)[i] // scan batches are dense
			}
			k := value.KeyOf(vals...)
			if _, ok := groups[k]; !ok {
				keys = append(keys, k)
			}
			groups[k] = append(groups[k], base+i)
		}
		base += n
	}
}

// batchProbe computes the probe outcome of every distinct binding of the
// probe columns, batching probes under the service's term limit. It
// returns the outcomes keyed by binding key, the number of probe searches
// issued (round trips), and how many of those were batched (multi-binding)
// invocations. Bindings with unsearchable values have no outcome entry —
// they cannot match any document, exactly as in per-tuple probing.
func batchProbe(ctx context.Context, spec *Spec, probeCols []string, svc texservice.Service, needHits bool) (map[string]probeOutcome, int, int, error) {
	keys, groups, err := bindingVectors(spec, probeCols)
	if err != nil {
		return nil, 0, 0, err
	}
	ctx, sp := obs.StartSpan(ctx, "probe.batch")
	defer sp.End()
	probePreds := spec.predsOn(probeCols)
	outcomes := make(map[string]probeOutcome, len(keys))
	order := sortedKeys(keys)

	var probes, rounds int
	strategy := "or-pack"
	if requireShortFields(probePreds, svc) == nil {
		probes, rounds, err = orPackProbe(ctx, spec, probePreds, order, groups, svc, needHits, outcomes)
	} else {
		strategy = "aligned"
		probes, rounds, err = alignedBatchProbe(ctx, spec, probePreds, order, groups, svc, needHits, outcomes)
	}
	if sp != nil {
		sp.SetAttr(obs.Str("strategy", strategy), obs.Int("bindings", len(order)),
			obs.Int("probes", probes), obs.Int("batch_rounds", rounds))
	}
	return outcomes, probes, rounds, err
}

// orPackProbe packs per-binding probe conjuncts into OR groups under the
// term limit (the selection's terms counted once per batch) and attributes
// each batch's hits to its bindings relationally. A binding whose conjunct
// alone exceeds the limit is probed individually, with exactly the
// per-tuple semantics — including surfacing the same error a per-tuple
// probe of it would.
func orPackProbe(ctx context.Context, spec *Spec, probePreds []Pred, order []string, groups map[string][]int, svc texservice.Service, needHits bool, outcomes map[string]probeOutcome) (probes, rounds int, err error) {
	selTerms := spec.selTerms()
	limit := svc.MaxTerms()

	type disjunct struct {
		key  string
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
		res, err := svc.Search(fctx, expr, texservice.FormShort)
		if err != nil {
			fsp.End()
			return err
		}
		probes++
		rounds++
		// Attributing the OR result to bindings is relational matching
		// work, charged like the semi-join method's.
		svc.Meter().ChargeRTP(fctx, len(res.Hits))
		m := newHitMatcher(spec, res.Hits, probePreds)
		for _, d := range batch {
			matched := m.match(spec.Relation.Rows[groups[d.key][0]])
			out := probeOutcome{success: len(matched) > 0}
			if needHits {
				for _, h := range matched {
					out.hits = append(out.hits, res.Hits[h])
				}
			}
			outcomes[d.key] = out
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
	for _, key := range order {
		rep := spec.Relation.Rows[groups[key][0]]
		conj, ok := spec.substPreds(rep, probePreds)
		if !ok {
			continue // unsearchable binding: cannot match
		}
		t := conj.TermCount()
		if selTerms+t > limit {
			if err := flush(); err != nil {
				return probes, rounds, err
			}
			if err := individualProbe(ctx, spec, probePreds, key, rep, svc, needHits, outcomes, &probes); err != nil {
				return probes, rounds, err
			}
			continue
		}
		if batchTerms+t > limit {
			if err := flush(); err != nil {
				return probes, rounds, err
			}
		}
		batch = append(batch, disjunct{key: key, conj: conj})
		batchTerms += t
	}
	err = flush()
	return probes, rounds, err
}

// individualProbe sends one binding's own probe search (the per-tuple
// discipline), used for bindings that no batch can hold.
func individualProbe(ctx context.Context, spec *Spec, probePreds []Pred, key string, rep relation.Tuple, svc texservice.Service, needHits bool, outcomes map[string]probeOutcome, probes *int) error {
	pexpr, ok := spec.SubstExpr(rep, probePreds)
	if !ok {
		return nil
	}
	pres, err := svc.Search(ctx, pexpr, texservice.FormShort)
	if err != nil {
		return err
	}
	*probes++
	out := probeOutcome{success: !pres.IsEmpty()}
	if needHits && out.success {
		svc.Meter().ChargeRTP(ctx, len(pres.Hits))
		out.hits = pres.Hits
	}
	outcomes[key] = out
	return nil
}

// alignedBatchProbe issues the per-binding probe expressions through
// texservice.SearchBatch: with the BatchSearcher capability each chunk
// under the term limit is one invocation with aligned answers; without it
// the entry point degrades to individual searches. No short-form fields
// are required because no relational attribution happens.
func alignedBatchProbe(ctx context.Context, spec *Spec, probePreds []Pred, order []string, groups map[string][]int, svc texservice.Service, needHits bool, outcomes map[string]probeOutcome) (probes, rounds int, err error) {
	var exprs []textidx.Expr
	var exprKeys []string
	for _, key := range order {
		rep := spec.Relation.Rows[groups[key][0]]
		pexpr, ok := spec.SubstExpr(rep, probePreds)
		if !ok {
			continue
		}
		exprs = append(exprs, pexpr)
		exprKeys = append(exprKeys, key)
	}
	results, invocations, err := texservice.SearchBatch(ctx, svc, exprs, texservice.FormShort)
	if err != nil {
		return invocations, 0, err
	}
	probes = invocations
	if _, ok := svc.(texservice.BatchSearcher); ok && invocations < len(exprs) {
		rounds = invocations
	}
	for i, key := range exprKeys {
		res := results[i]
		out := probeOutcome{success: !res.IsEmpty()}
		if needHits && out.success {
			svc.Meter().ChargeRTP(ctx, len(res.Hits))
			out.hits = res.Hits
		}
		outcomes[key] = out
	}
	return probes, rounds, nil
}
