package replica

import (
	"fmt"
	"time"

	"textjoin/internal/texservice"
)

// Fleet is R replicas × P partitions: one routing Set per partition,
// ready to stand behind shard.Sharded. The fleet owns nothing about
// document placement — partitioning stays the shard layer's concern —
// it only aggregates the per-partition Sets for construction and
// observability.
type Fleet struct {
	sets []*Set
}

// NewFleet builds one Set per partition. backends[p] lists the replica
// services of partition p; every partition must have at least one
// replica (they need not agree on R — a partition mid-resize is fine).
// The same options apply to every Set, except the selection seed:
// partition p routes with texservice.DeriveSeed(seed, p), so the
// partitions of a fleet built from one configured seed do not make
// identical routing choices in lockstep.
func NewFleet(backends [][]texservice.Service, opts ...Option) (*Fleet, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("replica: fleet needs at least one partition")
	}
	sets := make([]*Set, len(backends))
	for p, replicas := range backends {
		setOpts := append(append([]Option(nil), opts...), withPartitionSeed(p))
		set, err := New(replicas, setOpts...)
		if err != nil {
			return nil, fmt.Errorf("partition %d: %w", p, err)
		}
		sets[p] = set
	}
	return &Fleet{sets: sets}, nil
}

// withPartitionSeed derives partition p's selection seed from the
// configured one: applied after the user's options so it sees that seed.
func withPartitionSeed(p int) Option {
	return func(o *options) { o.seed = texservice.DeriveSeed(o.seed, p) }
}

// Sets returns the per-partition routing Sets, index = partition. Each
// implements texservice.Service — hand them to shard.New to scatter
// queries across the fleet.
func (f *Fleet) Sets() []*Set { return f.sets }

// Services returns the Sets as the interface slice shard.New takes.
func (f *Fleet) Services() []texservice.Service {
	out := make([]texservice.Service, len(f.sets))
	for i, s := range f.sets {
		out[i] = s
	}
	return out
}

// Stats is a point-in-time aggregate of routing activity across a fleet
// (or a single Set) — the numbers the gateway exports at /metrics.
type Stats struct {
	// Cumulative counters.
	Hedges       uint64 // hedged attempts launched
	HedgeWins    uint64 // operations won by the hedge, not the primary
	HedgeCancels uint64 // losing attempts cancelled after a hedged race
	Failovers    uint64 // failed attempts retried on another replica
	Ejections    uint64 // replicas removed from selection
	Readmissions uint64 // ejected replicas re-admitted by a probe

	// Instantaneous gauges.
	Replicas     int // total replicas across all partitions
	Ejected      int // replicas currently out of rotation
	Lagging      int // replicas currently missing acked writes
	InFlight     int // requests currently outstanding against backends
	WritePending int // broadcast acks still draining (quorum acked, stragglers applying)
}

// Add returns the element-wise sum of two stats snapshots.
func (a Stats) Add(b Stats) Stats {
	return Stats{
		Hedges:       a.Hedges + b.Hedges,
		HedgeWins:    a.HedgeWins + b.HedgeWins,
		HedgeCancels: a.HedgeCancels + b.HedgeCancels,
		Failovers:    a.Failovers + b.Failovers,
		Ejections:    a.Ejections + b.Ejections,
		Readmissions: a.Readmissions + b.Readmissions,
		Replicas:     a.Replicas + b.Replicas,
		Ejected:      a.Ejected + b.Ejected,
		Lagging:      a.Lagging + b.Lagging,
		InFlight:     a.InFlight + b.InFlight,
		WritePending: a.WritePending + b.WritePending,
	}
}

// Stats snapshots one Set's routing activity.
func (s *Set) Stats() Stats {
	st := Stats{
		Hedges:       s.hedges.Load(),
		HedgeWins:    s.hedgeWins.Load(),
		HedgeCancels: s.hedgeCancels.Load(),
		Failovers:    s.failovers.Load(),
		Ejections:    s.ejections.Load(),
		Readmissions: s.readmissions.Load(),
		Replicas:     len(s.replicas),
		WritePending: int(s.applying.Load()),
	}
	now := time.Now().UnixNano()
	for _, r := range s.replicas {
		if ej := r.ejectedUntil.Load(); ej != 0 && now < ej {
			st.Ejected++
		}
		if r.lagging.Load() {
			st.Lagging++
		}
		st.InFlight += int(r.inflight.Load())
	}
	return st
}

// Stats aggregates routing activity across every partition's Set.
func (f *Fleet) Stats() Stats {
	var st Stats
	for _, s := range f.sets {
		st = st.Add(s.Stats())
	}
	return st
}
