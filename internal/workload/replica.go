package workload

import (
	"textjoin/internal/ingest"
	"textjoin/internal/replica"
	"textjoin/internal/shard"
	"textjoin/internal/texservice"
)

// Replicated fleet workload: the corpus partitioned P ways with each
// partition served by R interchangeable replicas behind the load-aware
// routing tier — the deployment shape the hedging and failover
// experiments exercise.

// ReplicatedService partitions the corpus into partitions pieces and
// serves each piece from r in-process replicas composed into a routing
// Set (internal/replica); with more than one partition the Sets are
// federated by shard.New, so the full stack reads
// shard → replica routing → backend. When live is true each replica is
// a mutable live-ingest index (in-memory WAL-less delta over the
// partition base), so replicated write broadcasts work end to end.
//
// decorate, when non-nil, wraps each replica backend before composition
// (fault injection, brownouts, latency models) and receives the
// partition and replica indices. setOpts configure every routing Set
// (seeds are perturbed per partition by NewFleet); shardOpts configure
// the federation when partitions > 1.
//
// The returned cleanup releases the live stores and is safe to call
// once even when err is non-nil.
func (c *Corpus) ReplicatedService(partitions, r int, live bool,
	decorate func(part, rep int, svc texservice.Service) texservice.Service,
	setOpts []replica.Option, shardOpts ...shard.Option) (texservice.Service, *replica.Fleet, func(), error) {
	parts, err := c.Index.Partition(partitions)
	if err != nil {
		return nil, nil, func() {}, err
	}
	var stores []*ingest.Store
	cleanup := func() {
		for _, st := range stores {
			_ = st.Close()
		}
	}
	opts := []texservice.LocalOption{texservice.WithShortFields("title", "author", "year")}
	groups := make([][]texservice.Service, partitions)
	for p, part := range parts {
		groups[p] = make([]texservice.Service, r)
		for k := 0; k < r; k++ {
			var svc texservice.Service
			if live {
				// Each store must know its partition: the shard layer
				// broadcasts every op batch to all partitions and relies
				// on the hash-owner rule to dedup — without ShardCount
				// every partition would insert every put.
				store, err := ingest.Open(part, ingest.Options{
					ShardIndex: p, ShardCount: partitions})
				if err != nil {
					cleanup()
					return nil, nil, func() {}, err
				}
				stores = append(stores, store)
				svc = ingest.NewLive(store, opts...)
			} else {
				local, err := texservice.NewLocal(part, opts...)
				if err != nil {
					cleanup()
					return nil, nil, func() {}, err
				}
				svc = local
			}
			if decorate != nil {
				svc = decorate(p, k, svc)
			}
			groups[p][k] = svc
		}
	}
	fleet, err := replica.NewFleet(groups, setOpts...)
	if err != nil {
		cleanup()
		return nil, nil, func() {}, err
	}
	if partitions == 1 {
		return fleet.Services()[0], fleet, cleanup, nil
	}
	federated, err := shard.New(fleet.Services(), shardOpts...)
	if err != nil {
		cleanup()
		return nil, nil, func() {}, err
	}
	return federated, fleet, cleanup, nil
}
