package texservice

import (
	"context"
	"errors"

	"textjoin/internal/obs"
	"textjoin/internal/textidx"
)

// This file provides the batched-probe entry point that supports batched
// probe pushdown: many probe instantiations travel in few invocations
// (under the term limit M). Probe answers are shared across queries by
// ProbeCache (cache.go).

// SearchBatch evaluates the expressions in order against the service and
// returns aligned results plus the number of invocations issued. It is
// the safe entry point for issuing many searches at once: the batch is
// split into chunks whose total term count respects svc.MaxTerms(), so a
// *TermLimitError is never surfaced for a splittable batch — only an
// expression that alone exceeds the limit fails, with exactly the error a
// plain Search of it would produce.
//
// When the service supports batched invocation (BatchSearcher — the local
// backend, and shard.Sharded federating each chunk to every shard with
// per-leg CritCost accounting), each chunk is one invocation; otherwise
// every expression is searched individually and the invocation count
// equals the expression count. A service that claims the capability but
// refuses with ErrNoBatch (a decorator or federation over a backend
// without it) gets the same fallback.
func SearchBatch(ctx context.Context, svc Service, exprs []textidx.Expr, form Form) ([]*Result, int, error) {
	if len(exprs) == 0 {
		return nil, 0, nil
	}
	ctx, sp := obs.StartSpan(ctx, "texservice.batch")
	defer sp.End()
	batcher, batched := svc.(BatchSearcher)
	limit := svc.MaxTerms()
	out := make([]*Result, len(exprs))
	invocations := 0

	// flush issues exprs[start:end] as one invocation (or individual
	// searches without the capability).
	flush := func(start, end int) error {
		if start == end {
			return nil
		}
		if batched {
			results, err := batcher.BatchSearch(ctx, exprs[start:end], form)
			if err == nil {
				copy(out[start:], results)
				invocations++
				return nil
			}
			if !errors.Is(err, ErrNoBatch) {
				return err
			}
			batched = false
		}
		for i := start; i < end; i++ {
			res, err := svc.Search(ctx, exprs[i], form)
			if err != nil {
				return err
			}
			out[i] = res
			invocations++
		}
		return nil
	}

	start := 0
	terms := 0
	for i, e := range exprs {
		t := e.TermCount()
		if t > limit {
			// This expression cannot fit any batch; flush what precedes it
			// and send it alone so it fails (or succeeds) exactly as an
			// unbatched Search would.
			if err := flush(start, i); err != nil {
				return nil, invocations, err
			}
			res, err := svc.Search(ctx, e, form)
			if err != nil {
				return nil, invocations, err
			}
			out[i] = res
			invocations++
			start, terms = i+1, 0
			continue
		}
		if terms+t > limit {
			if err := flush(start, i); err != nil {
				return nil, invocations, err
			}
			start, terms = i, 0
		}
		terms += t
	}
	if err := flush(start, len(exprs)); err != nil {
		return nil, invocations, err
	}
	if sp != nil {
		sp.SetAttr(obs.Int("queries", len(exprs)), obs.Int("invocations", invocations))
	}
	return out, invocations, nil
}
