package replica

import (
	"context"
	"fmt"

	"textjoin/internal/texservice"
)

// Write path of the replica set. Reads pick ONE replica; writes must
// reach ALL of them, or the copies stop being copies. The Set broadcasts
// every ingest batch to every replica concurrently and acknowledges the
// write once a quorum has applied it. Replicas that miss the batch
// (down, ejected, slow past the caller's deadline) are marked lagging
// and their acked index version stops advancing — which is exactly what
// the read-your-writes gate keys on to route fresh reads away from
// them. A bounded replay buffer holds recent batches so that the next
// write to reach a lagging replica replays what it missed first,
// without a full snapshot transfer. Reads never repair a replica.

// replayEntry is one broadcast batch retained for replay.
type replayEntry struct {
	batch int64
	ops   []texservice.IngestOp
}

// freshKey marks a context as requiring read-your-writes routing.
type freshKey struct{}

// WithFreshReads returns a context whose reads through a replica Set
// are routed only to replicas that have acked every write the Set has
// acknowledged — the read-your-writes gate. Queries without the mark
// may be served by a lagging replica (monotonic staleness, never
// corruption: every replica serves some consistent prefix of the
// write history).
func WithFreshReads(ctx context.Context) context.Context {
	return context.WithValue(ctx, freshKey{}, true)
}

// FreshReads reports whether ctx demands read-your-writes routing.
func FreshReads(ctx context.Context) bool {
	v, _ := ctx.Value(freshKey{}).(bool)
	return v
}

// Ingest implements texservice.Ingestor: broadcast the batch to every
// replica, acknowledge once a write quorum has applied it, track
// per-replica progress. Writes are serialized through the Set so every
// replica applies batches in the same order — the replay buffer's order
// IS the write order. Replicas still applying when quorum is reached
// finish in the background: a hung replica must not hold every writer
// hostage once enough copies have the batch. A replica's refusal
// (texservice.Refused) is its answer, not a miss: it marks no replica
// lagging, and a batch every replica refused is the Set's refusal and
// is not kept for replay.
func (s *Set) Ingest(ctx context.Context, ops []texservice.IngestOp) (*texservice.IngestResult, error) {
	if err := texservice.ValidateIngest(ops); err != nil {
		return nil, err
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()

	batch := s.nextBatch
	s.nextBatch++

	// Retain the batch for replay BEFORE its outcome is known: even a
	// quorum-failed broadcast may have been applied by some replicas, and
	// the ones that missed it can only close the gap if the batch stays
	// replayable. Re-applying to a replica that did ack is harmless —
	// puts are upserts and deletes idempotent tombstones, so the
	// at-least-once contract covers the retry. Only the version fence
	// below is gated on quorum.
	if s.opts.replayDepth > 0 {
		s.replayMu.Lock()
		s.replay = append(s.replay, replayEntry{batch: batch, ops: ops})
		if len(s.replay) > s.opts.replayDepth {
			s.replay = s.replay[len(s.replay)-s.opts.replayDepth:]
		}
		s.replayMu.Unlock()
	}

	type ack struct {
		r   *replicaState
		res *texservice.IngestResult
		err error
	}
	base := texservice.DetachQueryMeter(ctx)
	acks := make(chan ack, len(s.replicas))
	s.applying.Add(int64(len(s.replicas)))
	for _, r := range s.replicas {
		r := r
		go func() {
			res, err := s.applyTo(base, r, batch, ops)
			acks <- ack{r: r, res: res, err: err}
		}()
	}

	// Each received ack books per-replica state first, then decrements
	// the WritePending gauge — a zero gauge means every outcome of every
	// broadcast has been fully recorded (tests and drain monitors key on
	// it).
	var best *texservice.IngestResult
	acked, refused := 0, 0
	var firstErr error
	for pending := len(s.replicas); pending > 0; pending-- {
		a := <-acks
		if a.err != nil {
			if firstErr == nil {
				firstErr = a.err
			}
			if texservice.Refused(a.err) {
				refused++
			}
			s.missed(a.r, a.err)
			s.applying.Add(-1)
			continue
		}
		acked++
		if best == nil || a.res.Version > best.Version {
			best = a.res
		}
		s.applying.Add(-1)
		if acked < s.opts.writeQuorum {
			continue
		}
		// Quorum reached: acknowledge now. Every acking replica replayed
		// its whole gap before applying, so all of them report the same
		// post-batch version — that is the set-wide fence. Stragglers
		// drain in the background so their lagging/ejection state stays
		// truthful for the read-your-writes gate, and so a
		// hung replica cannot hold every writer hostage.
		if rest := pending - 1; rest > 0 {
			go func() {
				for i := 0; i < rest; i++ {
					if a := <-acks; a.err != nil {
						s.missed(a.r, a.err)
					}
					s.applying.Add(-1)
				}
			}()
		}
		s.version.Store(best.Version)
		return best, nil
	}
	if refused == len(s.replicas) {
		// Applied nowhere: the batch takes no place in the write order.
		// Every apply of it has returned, and ingestMu is held, so it is
		// still the newest batch.
		s.nextBatch--
		s.replayMu.Lock()
		if n := len(s.replay); n > 0 && s.replay[n-1].batch == batch {
			s.replay = s.replay[:n-1]
		}
		s.replayMu.Unlock()
		return nil, firstErr
	}
	return nil, fmt.Errorf("replica: ingest acked by %d/%d replicas, quorum is %d: %w",
		acked, len(s.replicas), s.opts.writeQuorum, firstErr)
}

// missed books a replica's failed apply: the replica lags and counts a
// failure. A refusal is an answer and books nothing.
func (s *Set) missed(r *replicaState, err error) {
	if !texservice.Refused(err) {
		r.lagging.Store(true)
		s.observeFailure(r, false)
	}
}

// applyTo pushes one batch into one replica, replaying any batches it
// missed first. Safe without ingestMu: the replay buffer is read under
// replayMu, and r.applyMu serializes application per replica — Ingest
// returns at quorum, so a straggling apply of batch N can race the
// broadcast of batch N+1 to the same replica, and without the lock the
// two could interleave out of order.
func (s *Set) applyTo(ctx context.Context, r *replicaState, batch int64, ops []texservice.IngestOp) (*texservice.IngestResult, error) {
	r.applyMu.Lock()
	defer r.applyMu.Unlock()

	last := r.ackedBatch.Load()
	if last >= batch {
		// A later broadcast already replayed this batch into the replica
		// while this apply waited for the lock; nothing to do.
		return &texservice.IngestResult{Version: r.version.Load()}, nil
	}
	// Replay the gap, oldest first. Puts are upserts and deletes are
	// idempotent tombstones, so re-applying a batch the replica already
	// has is harmless — at-least-once delivery is enough.
	if last < batch-1 {
		var gap []replayEntry
		s.replayMu.RLock()
		for _, e := range s.replay {
			if e.batch > last && e.batch < batch {
				gap = append(gap, e)
			}
		}
		s.replayMu.RUnlock()
		// The buffer must cover every missed batch; if the oldest missed
		// batch has been evicted the replica is beyond replay repair.
		need := batch - 1 - last
		if int64(len(gap)) < need {
			return nil, fmt.Errorf("replica %d: %d missed batch(es) evicted from replay buffer (depth %d); replica needs snapshot transfer",
				r.idx, need-int64(len(gap)), s.opts.replayDepth)
		}
		for _, e := range gap {
			res, err := r.svc.Ingest(ctx, e.ops)
			if err != nil {
				return nil, fmt.Errorf("replica %d: replay batch %d: %w", r.idx, e.batch, err)
			}
			r.ackedBatch.Store(e.batch)
			r.version.Store(res.Version)
		}
	}
	res, err := r.svc.Ingest(ctx, ops)
	if err != nil {
		return nil, err
	}
	r.ackedBatch.Store(batch)
	r.version.Store(res.Version)
	r.lagging.Store(false)
	return res, nil
}

// IndexVersion implements texservice.Versioned: the highest version any
// quorum write has acked — the fence WithFreshReads routes against.
func (s *Set) IndexVersion(ctx context.Context) (uint64, error) {
	if v := s.version.Load(); v > 0 {
		return v, nil
	}
	// No writes through this Set yet: ask a replica (they agree at rest).
	// A refusal is the answer; a failure moves on to the next replica.
	var firstErr error
	for _, r := range s.replicas {
		v, err := r.svc.IndexVersion(ctx)
		if err == nil || texservice.Refused(err) {
			return v, err
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return 0, firstErr
}

// PinSnapshot implements texservice.SnapshotPinner by pinning every
// replica, and marks the context for fresh reads so the gate keeps
// pinned queries off replicas whose view is behind the pin.
// A replica may capture its view lazily, at its own first read
// (ingest.Live does); the Set's read path therefore resolves every
// replica's pin (SnapshotPinned) at the query's first read of the Set,
// whichever replica serves it, so that all later reads — routed, hedged
// or failed over to any copy — see the version the first one saw. The
// replicas are resolved one after another: only a write still in flight
// at that moment can land on some copies' side of the pin and not
// others'.
func (s *Set) PinSnapshot(ctx context.Context) context.Context {
	for _, r := range s.replicas {
		ctx = r.svc.PinSnapshot(ctx)
	}
	return WithFreshReads(ctx)
}

// SnapshotPinned implements texservice.PinProber: behind-current if any
// replica's pin is. Every replica is probed — no short-circuit — because
// the probe is what makes a lazily pinning replica capture its view; on a
// context that carries no pins it costs one context lookup per replica.
func (s *Set) SnapshotPinned(ctx context.Context) bool {
	behind := false
	for _, r := range s.replicas {
		if r.svc.SnapshotPinned(ctx) {
			behind = true
		}
	}
	return behind
}

// Lagging lists the indexes of replicas currently marked lagging.
func (s *Set) Lagging() []int {
	var out []int
	for i, r := range s.replicas {
		if r.lagging.Load() {
			out = append(out, i)
		}
	}
	return out
}
