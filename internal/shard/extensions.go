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
// answer of every shard is merged into the k-th federated answer.
func (s *Sharded) BatchSearch(ctx context.Context, exprs []textidx.Expr, form texservice.Form) ([]*texservice.Result, error) {
	return s.search(ctx, true, exprs, form)
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
