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
// BatchSearch (checked to answer every expression), a single search
// (batch false, exactly one expression) as Search.
func Invoke(ctx context.Context, svc Service, batch bool, exprs []textidx.Expr, form Form) ([]*Result, error) {
	if !batch {
		res, err := svc.Search(ctx, exprs[0], form)
		if err != nil {
			return nil, err
		}
		return []*Result{res}, nil
	}
	results, err := svc.BatchSearch(ctx, exprs, form)
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

// Pack is the one greedy packer under a term limit. It splits items
// 0..n-1, in order, into consecutive runs and calls send(lo, hi) for each
// run: a run's terms (terms(i) for each item) plus base stay within limit,
// and an item whose terms plus base alone exceed the limit is a run of its
// own. base is what every search of a run carries besides its items, such
// as a text selection. An error from send stops the packing.
func Pack(n, base, limit int, terms func(i int) int, send func(lo, hi int) error) error {
	lo, used := 0, base
	for i := 0; i < n; i++ {
		t := terms(i)
		if i > lo && used+t > limit {
			if err := send(lo, i); err != nil {
				return err
			}
			lo, used = i, base
		}
		used += t
	}
	if lo == n {
		return nil
	}
	return send(lo, n)
}

// SearchBatch evaluates the expressions in order against the service and
// returns aligned results plus the number of invocations issued. It is
// the safe entry point for issuing many searches at once: the batch is
// split by Pack into chunks whose total term count respects
// svc.MaxTerms(), so a *TermLimitError is never surfaced for a splittable
// batch — only an expression that alone exceeds the limit fails, sent as
// a plain Search so it fails (or succeeds) exactly as an unbatched Search
// of it would.
//
// Each chunk is one BatchSearch invocation (shard.Sharded federates it to
// every shard with per-leg CritCost accounting). Once the service refuses
// with ErrNoBatch, every remaining expression is searched individually,
// so over a service without batching the invocation count equals the
// expression count.
func SearchBatch(ctx context.Context, svc Service, exprs []textidx.Expr, form Form) ([]*Result, int, error) {
	if len(exprs) == 0 {
		return nil, 0, nil
	}
	ctx, sp := obs.StartSpan(ctx, "texservice.batch")
	defer sp.End()
	batched := true
	limit := svc.MaxTerms()
	out := make([]*Result, len(exprs))
	invocations := 0
	terms := func(i int) int { return exprs[i].TermCount() }
	err := Pack(len(exprs), 0, limit, terms, func(lo, hi int) error {
		// A run of one expression over the limit goes as a plain Search.
		if batched && (hi-lo > 1 || terms(lo) <= limit) {
			results, err := svc.BatchSearch(ctx, exprs[lo:hi], form)
			if err == nil {
				copy(out[lo:], results)
				invocations++
				return nil
			}
			if !errors.Is(err, ErrNoBatch) {
				return err
			}
			batched = false
		}
		for i := lo; i < hi; i++ {
			res, err := svc.Search(ctx, exprs[i], form)
			if err != nil {
				return err
			}
			out[i] = res
			invocations++
		}
		return nil
	})
	if err != nil {
		return nil, invocations, err
	}
	if sp != nil {
		sp.SetAttr(obs.Int("queries", len(exprs)), obs.Int("invocations", invocations))
	}
	return out, invocations, nil
}
