package shard

import (
	"context"
	"fmt"

	"textjoin/internal/obs"
	"textjoin/internal/texservice"
)

// The write path distributes by broadcast: every op batch is sent whole
// to every shard, concurrently, and each shard decides locally what the
// batch means for its partition (the ingest store's hash-owner rule: the
// owner of an external id upserts it, every other shard tombstones any
// local copy, deletes apply wherever the document lives). Broadcasting
// sidesteps the coordinator a routed write would need — the base corpus
// is partitioned by docid modulo while new writes are owned by external-
// id hash, and only the shards themselves know which side of that split
// a given document is on.
//
// An ingest is acknowledged only when EVERY shard has durably acked it
// (writes are always strict — a partial write would silently diverge the
// partition, unlike a best-effort read, which only misses documents).

// Ingest implements texservice.Ingestor.
func (s *Sharded) Ingest(ctx context.Context, ops []texservice.IngestOp) (*texservice.IngestResult, error) {
	if err := texservice.ValidateIngest(ops); err != nil {
		return nil, err
	}
	ctx, sp := obs.StartSpan(ctx, "shard.ingest")
	defer sp.End()

	acks, errs := scatter(ctx, s, func(ctx context.Context, k int, svc texservice.Service) (*texservice.IngestResult, error) {
		return svc.Ingest(ctx, ops)
	})
	if _, _, err := s.gather("ingest", true, errs); err != nil {
		// A partial failure leaves shards divergent: the acked shards keep
		// the batch, the failing ones do not, and no caller sees a new
		// index version until a later write succeeds (version-keyed caches
		// above invalidate on this error for exactly that reason). The ops
		// are idempotent upserts/deletes, so retrying the same batch
		// converges every shard.
		return nil, err
	}
	out := &texservice.IngestResult{}
	for _, ack := range acks {
		if ack.Seq > out.Seq {
			out.Seq = ack.Seq
		}
		out.Applied += ack.Applied
		out.Version += ack.Version
	}
	if sp != nil {
		sp.SetAttr(obs.Int("ops", len(ops)), obs.Int("shards", len(s.shards)),
			obs.Int("applied", out.Applied))
	}
	return out, nil
}

// IndexVersion implements texservice.Versioned: the federation's
// version is the sum of the shard versions (each is monotonic, so the
// sum is too, and it changes whenever any shard's collection changes).
func (s *Sharded) IndexVersion(ctx context.Context) (uint64, error) {
	total := uint64(0)
	for k, svc := range s.shards {
		ver, err := svc.IndexVersion(ctx)
		if err != nil {
			return 0, fmt.Errorf("shard: version on shard %d: %w", k, err)
		}
		total += ver
	}
	return total, nil
}

// PinSnapshot implements texservice.SnapshotPinner by pinning every
// shard. Each shard captures its view at the query's first read of (or
// SnapshotPinned probe against) that shard, so the federation-wide view
// is only per-shard consistent: a write that lands between two shards'
// first reads is visible on some shards and not others for the pinned
// query. In-process deployments get full isolation per shard (each
// store pin is a single atomic capture); remote shards do not pin at
// all — their isolation is per-call.
func (s *Sharded) PinSnapshot(ctx context.Context) context.Context {
	for _, svc := range s.shards {
		ctx = svc.PinSnapshot(ctx)
	}
	return ctx
}

// SnapshotPinned implements texservice.PinProber: the federation counts
// as pinned-behind when any shard's pin has fallen behind that shard's
// current state — a cache above must bypass if even one leg would
// answer from an old view.
func (s *Sharded) SnapshotPinned(ctx context.Context) bool {
	for _, svc := range s.shards {
		if svc.SnapshotPinned(ctx) {
			return true
		}
	}
	return false
}
