package texservice

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"textjoin/internal/obs"
	"textjoin/internal/textidx"
)

// This file provides the batched-probe entry point that supports batched
// probe pushdown: many probe instantiations travel in few invocations
// (under the term limit M). Probe answers are shared across queries by
// ProbeCache (cache.go).
//
// It also holds the pieces every request-serving service shares. Each
// has one search routine over a slice of expressions; Search is that
// routine on a batch of one (unwrapped by Single) and BatchSearch is it
// on the whole batch. A layer that forwards a request to other services
// (a federation, a replica set, the wire server) makes the backend call
// it was asked for through Invoke, so single searches stay single
// searches all the way down.

// Single unwraps the answer of a batch-of-one search.
func Single(results []*Result, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// Invoke sends exprs to svc as the caller received them: a batch as one
// BatchSearch (refused with ErrNoBatch when svc lacks the capability,
// and checked to answer every expression), a single search (batch false,
// exactly one expression) as Search.
func Invoke(ctx context.Context, svc Service, batch bool, exprs []textidx.Expr, form Form) ([]*Result, error) {
	if !batch {
		res, err := svc.Search(ctx, exprs[0], form)
		if err != nil {
			return nil, err
		}
		return []*Result{res}, nil
	}
	b, ok := svc.(BatchSearcher)
	if !ok {
		return nil, ErrNoBatch
	}
	results, err := b.BatchSearch(ctx, exprs, form)
	if err != nil {
		return nil, err
	}
	if len(results) != len(exprs) {
		return nil, fmt.Errorf("texservice: batch search returned %d results for %d queries", len(results), len(exprs))
	}
	return results, nil
}

// CheckMembers checks the services one federation fronts (the shards of
// a partition, the replicas of one shard): every member must agree on the
// short-form fields, returned sorted; the federation's term limit is the
// smallest member's, since every member must accept what it is sent. kind
// names a member in the error ("shard", "replica").
func CheckMembers(kind string, members []Service) (shortFields []string, maxTerms int, err error) {
	sorted := func(s Service) []string {
		out := slices.Clone(s.ShortFields())
		slices.Sort(out)
		return out
	}
	shortFields, maxTerms = sorted(members[0]), members[0].MaxTerms()
	for k, m := range members[1:] {
		if got := sorted(m); !slices.Equal(shortFields, got) {
			return nil, 0, fmt.Errorf("%s: %s %d short-form fields %v differ from %s 0's %v",
				kind, kind, k+1, got, kind, shortFields)
		}
		maxTerms = min(maxTerms, m.MaxTerms())
	}
	return shortFields, maxTerms, nil
}

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
