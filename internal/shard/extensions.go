package shard

import (
	"context"
	"fmt"

	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

// The §8 extensions distribute over the partition just like Search does:
// a batch is scattered whole to every shard (one invocation per shard for
// the entire batch, preserving the batching saving), and a document
// frequency is the sum of the per-shard frequencies because the partition
// is disjoint. A shard's refusal is the federation's refusal.

// BatchSearch implements texservice.BatchSearcher: the whole batch
// travels to each shard in one invocation and the k-th answer of every
// shard is merged into the k-th federated answer.
func (s *Sharded) BatchSearch(ctx context.Context, exprs []textidx.Expr, form texservice.Form) ([]*texservice.Result, error) {
	return s.search(ctx, true, exprs, form)
}

// TermDocFrequency implements texservice.StatsProvider: the partition is
// disjoint, so the global document frequency is exactly the sum of the
// shard frequencies. Statistics are metadata traffic, so failures always
// surface (no best-effort sum — a partial frequency would silently bias
// the optimizer).
func (s *Sharded) TermDocFrequency(ctx context.Context, field, term string) (int, error) {
	total := 0
	for k, svc := range s.shards {
		df, err := svc.TermDocFrequency(ctx, field, term)
		if err != nil {
			return 0, fmt.Errorf("shard: docfreq on shard %d: %w", k, err)
		}
		total += df
	}
	return total, nil
}
