package shard

import (
	"context"
	"fmt"

	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

// The §8 capabilities distribute over the partition just like Search
// does: a batch is scattered whole to every shard (one invocation per
// shard for the entire batch, preserving the batching saving), and a
// document frequency is the sum of the per-shard frequencies because the
// partition is disjoint.

// BatchSearch implements texservice.BatchSearcher when every shard does:
// the whole batch travels to each shard in one invocation and the k-th
// answer of every shard is merged into the k-th federated answer. In
// best-effort mode failed shards are dropped from every answer and each
// answer is marked Partial.
func (s *Sharded) BatchSearch(ctx context.Context, exprs []textidx.Expr, form texservice.Form) ([]*texservice.Result, error) {
	batchers := make([]texservice.BatchSearcher, len(s.shards))
	for k, svc := range s.shards {
		b, ok := svc.(texservice.BatchSearcher)
		if !ok {
			return nil, fmt.Errorf("shard %d: %w", k, texservice.ErrNoBatch)
		}
		batchers[k] = b
	}
	total := 0
	for _, e := range exprs {
		total += e.TermCount()
	}
	if total > s.maxTerms {
		return nil, &texservice.TermLimitError{Terms: total, Limit: s.maxTerms}
	}
	batches := make([][]*texservice.Result, len(s.shards))
	results := s.scatter(ctx, func(ctx context.Context, k int, svc texservice.Service) (*texservice.Result, error) {
		batch, err := batchers[k].BatchSearch(ctx, exprs, form)
		if err != nil {
			return nil, err
		}
		if len(batch) != len(exprs) {
			return nil, fmt.Errorf("texservice: shard %d returned %d results for %d queries",
				k, len(batch), len(exprs))
		}
		batches[k] = batch
		return nil, nil
	})
	ok, partial, err := s.gather("batch search", results)
	if err != nil {
		return nil, err
	}
	// One invocation per shard for the whole batch; per-shard postings and
	// documents are summed across the batch, mirroring the single-backend
	// batch charge.
	parts := make([]texservice.ScatterPart, len(ok))
	for i, k := range ok {
		for _, res := range batches[k] {
			parts[i].Postings += res.Postings
			parts[i].Docs += len(res.Hits)
		}
	}
	s.meter.ChargeScatter(ctx, parts, form)
	out := make([]*texservice.Result, len(exprs))
	for i := range exprs {
		perShard := make([][]texservice.Hit, 0, len(ok))
		postings := 0
		for _, k := range ok {
			res := batches[k][i]
			perShard = append(perShard, s.globalize(k, res.Hits))
			postings += res.Postings
		}
		out[i] = &texservice.Result{
			Hits:     mergeHits(perShard),
			Postings: postings,
			Partial:  partial,
		}
	}
	return out, nil
}

// TermDocFrequency implements texservice.StatsProvider when every shard
// does: the partition is disjoint, so the global document frequency is
// exactly the sum of the shard frequencies. Statistics are metadata
// traffic, so failures always surface (no best-effort sum — a partial
// frequency would silently bias the optimizer).
func (s *Sharded) TermDocFrequency(ctx context.Context, field, term string) (int, error) {
	total := 0
	for k, svc := range s.shards {
		p, ok := svc.(texservice.StatsProvider)
		if !ok {
			return 0, fmt.Errorf("shard %d: %w", k, texservice.ErrNoStats)
		}
		df, err := p.TermDocFrequency(ctx, field, term)
		if err != nil {
			return 0, fmt.Errorf("shard: docfreq on shard %d: %w", k, err)
		}
		total += df
	}
	return total, nil
}

var (
	_ texservice.BatchSearcher = (*Sharded)(nil)
	_ texservice.StatsProvider = (*Sharded)(nil)
)
