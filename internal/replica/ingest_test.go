package replica_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"textjoin/internal/ingest"
	"textjoin/internal/replica"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

// waitWritesSettled blocks until the Set has processed every broadcast
// ack. Ingest acknowledges at quorum, so stragglers' applies — and the
// lagging marks for replicas that failed — can land shortly after
// Ingest returns.
func waitWritesSettled(t testing.TB, s *replica.Set) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().WritePending != 0 {
		if time.Now().After(deadline) {
			t.Fatal("ingest broadcast never settled")
		}
		time.Sleep(time.Millisecond)
	}
}

// liveReplica builds one writable replica: an ingest.Live over its own
// memory-only store seeded from the shared base index.
func liveReplica(t testing.TB, base *textidx.Index) texservice.Service {
	t.Helper()
	store, err := ingest.Open(base, ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ingest.NewLive(store, ingest.WithShortFields("title", "author", "year"))
}

// writableSet builds a Set of R writable replicas, optionally decorated.
func writableSet(t testing.TB, r int,
	decorate func(k int, svc texservice.Service) texservice.Service,
	opts ...replica.Option) *replica.Set {
	t.Helper()
	base := fixture(t)
	backends := make([]texservice.Service, r)
	for k := 0; k < r; k++ {
		backends[k] = liveReplica(t, base)
		if decorate != nil {
			backends[k] = decorate(k, backends[k])
		}
	}
	s, err := replica.New(backends, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func putOp(ext, title string) texservice.IngestOp {
	return texservice.IngestOp{Kind: texservice.IngestPut, ExtID: ext,
		Fields: map[string]string{"title": title, "author": "nobody", "year": "2026"}}
}

// TestIngestBroadcast: a write reaches every replica — each copy serves
// the new document afterwards.
func TestIngestBroadcast(t *testing.T) {
	s := writableSet(t, 3, nil, replica.WithSeed(7))
	res, err := s.Ingest(bg, []texservice.IngestOp{putOp("w1", "Replication Reconsidered")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 {
		t.Fatalf("applied %d, want 1", res.Applied)
	}
	waitWritesSettled(t, s)
	if len(s.Lagging()) != 0 {
		t.Fatalf("healthy broadcast left laggers: %v", s.Lagging())
	}
	// Every route must see the document: exhaust replicas by querying
	// repeatedly.
	q := textidx.Term{Field: "title", Word: "replication"}
	for i := 0; i < 30; i++ {
		got, err := s.Search(bg, q, texservice.FormShort)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Hits) != 1 {
			t.Fatalf("call %d: %d hits, want 1 — a replica missed the write", i, len(got.Hits))
		}
	}
}

// TestIngestQuorum: a dead replica does not block the write while a
// quorum acks; with quorum unreachable the write fails.
func TestIngestQuorum(t *testing.T) {
	var dead *killable
	s := writableSet(t, 3, func(k int, svc texservice.Service) texservice.Service {
		if k != 0 {
			return svc
		}
		dead = &killable{inner: svc}
		dead.dead.Store(true)
		return dead
	}, replica.WithSeed(7))
	if _, err := s.Ingest(bg, []texservice.IngestOp{putOp("w1", "Quorum Writes")}); err != nil {
		t.Fatalf("majority write failed: %v", err)
	}
	waitWritesSettled(t, s)
	if lag := s.Lagging(); len(lag) != 1 || lag[0] != 0 {
		t.Fatalf("Lagging() = %v, want [0]", lag)
	}

	// R=2 with default quorum (majority of 2 = 2) cannot absorb a death.
	s2 := writableSet(t, 2, func(k int, svc texservice.Service) texservice.Service {
		if k != 0 {
			return svc
		}
		d := &killable{inner: svc}
		d.dead.Store(true)
		return d
	})
	if _, err := s2.Ingest(bg, []texservice.IngestOp{putOp("w2", "No Quorum")}); err == nil {
		t.Fatal("write succeeded without quorum")
	} else if !strings.Contains(err.Error(), "quorum") {
		t.Errorf("unhelpful quorum error: %v", err)
	}

	// Availability-first override accepts the same write.
	s3 := writableSet(t, 2, func(k int, svc texservice.Service) texservice.Service {
		if k != 0 {
			return svc
		}
		d := &killable{inner: svc}
		d.dead.Store(true)
		return d
	}, replica.WithWriteQuorum(1))
	if _, err := s3.Ingest(bg, []texservice.IngestOp{putOp("w3", "One Ack")}); err != nil {
		t.Fatalf("quorum=1 write failed: %v", err)
	}
}

// TestQuorumFailedBatchStaysReplayable: a batch that misses quorum is
// still retained for replay — some replicas may have applied it, and
// the ones that missed it can only close the gap if the batch stays in
// the buffer. A transient per-replica failure must not wedge the set
// into failing every subsequent write.
func TestQuorumFailedBatchStaysReplayable(t *testing.T) {
	var flaky *killable
	s := writableSet(t, 2, func(k int, svc texservice.Service) texservice.Service {
		if k != 1 {
			return svc
		}
		flaky = &killable{inner: svc}
		return flaky
	}, replica.WithSeed(17))
	flaky.dead.Store(true)
	if _, err := s.Ingest(bg, []texservice.IngestOp{putOp("q1", "Transient Failure")}); err == nil {
		t.Fatal("write succeeded without quorum")
	}
	flaky.dead.Store(false)
	// The quorum-failed batch must be replayable: the next write closes
	// the flaky replica's gap and reaches quorum.
	if _, err := s.Ingest(bg, []texservice.IngestOp{putOp("q2", "After Recovery")}); err != nil {
		t.Fatalf("set wedged after a transient quorum failure: %v", err)
	}
	waitWritesSettled(t, s)
	if len(s.Lagging()) != 0 {
		t.Fatalf("laggers remain after recovery: %v", s.Lagging())
	}
	for _, word := range []string{"transient", "recovery"} {
		q := textidx.Term{Field: "title", Word: word}
		for i := 0; i < 20; i++ {
			got, err := s.Search(bg, q, texservice.FormShort)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Hits) != 1 {
				t.Fatalf("word %q call %d: %d hits, want 1 — a replica is missing the batch", word, i, len(got.Hits))
			}
		}
	}
}

// TestFreshReadsRouteAroundLaggers: after a write misses one replica,
// an unpinned read may see stale data but a WithFreshReads read never
// does; after catch-up the lagger serves fresh data again.
func TestFreshReadsRouteAroundLaggers(t *testing.T) {
	var lagger *killable
	s := writableSet(t, 3, func(k int, svc texservice.Service) texservice.Service {
		if k != 0 {
			return svc
		}
		lagger = &killable{inner: svc}
		return lagger
	}, replica.WithSeed(13), replica.WithoutHedging())

	lagger.dead.Store(true)
	if _, err := s.Ingest(bg, []texservice.IngestOp{putOp("w1", "Freshness Matters")}); err != nil {
		t.Fatal(err)
	}
	// Let the lagger's failed apply finish draining before reviving it,
	// or the straggling broadcast could land on the healed replica.
	waitWritesSettled(t, s)
	lagger.dead.Store(false) // alive again, but behind

	q := textidx.Term{Field: "title", Word: "freshness"}
	fresh := replica.WithFreshReads(bg)
	for i := 0; i < 40; i++ {
		got, err := s.Search(fresh, q, texservice.FormShort)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Hits) != 1 {
			t.Fatalf("fresh read %d missed the acked write (%d hits)", i, len(got.Hits))
		}
	}

	// Catch the lagger up; now even it serves the document.
	repaired, err := s.CatchUp(bg)
	if err != nil {
		t.Fatal(err)
	}
	if repaired != 1 {
		t.Fatalf("repaired %d replicas, want 1", repaired)
	}
	if len(s.Lagging()) != 0 {
		t.Fatalf("laggers remain after catch-up: %v", s.Lagging())
	}
	for i := 0; i < 30; i++ {
		got, err := s.Search(bg, q, texservice.FormShort)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Hits) != 1 {
			t.Fatalf("post-catch-up read %d missed the write", i)
		}
	}
}

// TestReplayCatchUpMultiBatch: a replica that misses several batches is
// repaired in order by the next successful write to it.
func TestReplayCatchUpMultiBatch(t *testing.T) {
	var lagger *killable
	s := writableSet(t, 3, func(k int, svc texservice.Service) texservice.Service {
		if k != 0 {
			return svc
		}
		lagger = &killable{inner: svc}
		return lagger
	}, replica.WithSeed(3))

	lagger.dead.Store(true)
	for i, title := range []string{"Gap One", "Gap Two", "Gap Three"} {
		if _, err := s.Ingest(bg, []texservice.IngestOp{putOp(
			"gap"+string(rune('a'+i)), title)}); err != nil {
			t.Fatal(err)
		}
	}
	waitWritesSettled(t, s)
	lagger.dead.Store(false)
	// The next write replays the gap into the lagger before applying;
	// the lagger's catch-up completes after the quorum ack, so settle
	// before checking.
	if _, err := s.Ingest(bg, []texservice.IngestOp{putOp("w9", "After The Gap")}); err != nil {
		t.Fatal(err)
	}
	waitWritesSettled(t, s)
	if len(s.Lagging()) != 0 {
		t.Fatalf("laggers remain after write-driven catch-up: %v", s.Lagging())
	}
	// Every replica serves every batch now.
	for _, word := range []string{"gap", "after"} {
		q := textidx.Term{Field: "title", Word: word}
		for i := 0; i < 20; i++ {
			got, err := s.Search(bg, q, texservice.FormShort)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Hits) == 0 {
				t.Fatalf("word %q: a replica is missing replayed batches", word)
			}
		}
	}
}

// TestReplayEviction: missing more batches than the buffer holds leaves
// the replica permanently lagging (snapshot transfer is out of scope),
// and the error says so.
func TestReplayEviction(t *testing.T) {
	var lagger *killable
	s := writableSet(t, 3, func(k int, svc texservice.Service) texservice.Service {
		if k != 0 {
			return svc
		}
		lagger = &killable{inner: svc}
		return lagger
	}, replica.WithReplayDepth(2), replica.WithSeed(3))

	lagger.dead.Store(true)
	for i := 0; i < 4; i++ {
		if _, err := s.Ingest(bg, []texservice.IngestOp{putOp(
			"ev"+string(rune('a'+i)), "Evicted Batch")}); err != nil {
			t.Fatal(err)
		}
	}
	waitWritesSettled(t, s)
	lagger.dead.Store(false)
	if _, err := s.CatchUp(bg); err == nil {
		t.Fatal("catch-up succeeded past an evicted batch")
	} else if !strings.Contains(err.Error(), "snapshot") {
		t.Errorf("eviction error should point at snapshot transfer: %v", err)
	}
	if len(s.Lagging()) != 1 {
		t.Fatalf("beyond-replay replica not marked lagging: %v", s.Lagging())
	}
}

// TestIndexVersionAdvances: the set-wide version is the quorum fence
// and it advances with every write.
func TestIndexVersionAdvances(t *testing.T) {
	s := writableSet(t, 2, nil)
	v0, err := s.IndexVersion(bg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(bg, []texservice.IngestOp{putOp("v1", "Version Bump")}); err != nil {
		t.Fatal(err)
	}
	v1, err := s.IndexVersion(bg)
	if err != nil {
		t.Fatal(err)
	}
	if v1 <= v0 {
		t.Errorf("version did not advance: %d -> %d", v0, v1)
	}
}

// TestIngestSerialization: concurrent writers are serialized; every
// replica ends at the same version with every document present.
func TestIngestSerialization(t *testing.T) {
	s := writableSet(t, 3, nil, replica.WithSeed(21))
	const writers = 8
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		w := w
		go func() {
			_, err := s.Ingest(bg, []texservice.IngestOp{putOp(
				"c"+string(rune('a'+w)), "Concurrent Write")})
			errs <- err
		}()
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	waitWritesSettled(t, s)
	if len(s.Lagging()) != 0 {
		t.Fatalf("concurrent writes left laggers: %v", s.Lagging())
	}
	q := textidx.Term{Field: "title", Word: "concurrent"}
	for i := 0; i < 30; i++ {
		got, err := s.Search(bg, q, texservice.FormShort)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Hits) != writers {
			t.Fatalf("call %d: %d hits, want %d", i, len(got.Hits), writers)
		}
	}
}

// TestReadOnlyReplicaRejectsIngest: frozen backends surface ErrNoIngest.
func TestReadOnlyReplicaRejectsIngest(t *testing.T) {
	ix := fixture(t)
	s := set(t, ix, 2, nil)
	_, err := s.Ingest(bg, []texservice.IngestOp{putOp("x", "Nope")})
	if err == nil {
		t.Fatal("ingest into frozen replicas succeeded")
	}
	if !strings.Contains(err.Error(), "ingest") {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestPinnedQuerySeesOneVersionAcrossReplicas: replicas capture their
// views lazily, but the Set resolves all of them together at the query's
// first read (or SnapshotPinned probe), so a write acked after that read
// stays invisible whichever replica serves the later reads — and a write
// acked between PinSnapshot and the first read is visible on all of them.
func TestPinnedQuerySeesOneVersionAcrossReplicas(t *testing.T) {
	q := textidx.Term{Field: "title", Word: "isolation"}
	hits := func(t *testing.T, s *replica.Set, ctx context.Context, want int, when string) {
		t.Helper()
		for i := 0; i < 30; i++ {
			got, err := s.Search(ctx, q, texservice.FormShort)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Hits) != want {
				t.Fatalf("%s, pinned read %d: %d hits, want %d — replicas pinned different versions", when, i, len(got.Hits), want)
			}
		}
	}
	write := func(t *testing.T, s *replica.Set, ext string) {
		t.Helper()
		if _, err := s.Ingest(bg, []texservice.IngestOp{putOp(ext, "Snapshot Isolation")}); err != nil {
			t.Fatal(err)
		}
		waitWritesSettled(t, s)
	}

	for seed := int64(1); seed <= 5; seed++ {
		s := writableSet(t, 3, nil, replica.WithSeed(seed))

		// First read fixes the version on every replica.
		ctx := s.PinSnapshot(bg)
		if got, err := s.Search(ctx, q, texservice.FormShort); err != nil || len(got.Hits) != 0 {
			t.Fatalf("first pinned read: %v, %v", got, err)
		}
		write(t, s, "iso1")
		hits(t, s, ctx, 0, "write after the first read")
		if !s.SnapshotPinned(ctx) {
			t.Error("SnapshotPinned = false for a query pinned behind an acked write")
		}

		// So does a probe: every replica resolves, not only those up to the
		// first one found behind.
		ctx = s.PinSnapshot(bg)
		if s.SnapshotPinned(ctx) {
			t.Error("SnapshotPinned = true on a fresh pin")
		}
		write(t, s, "iso2")
		hits(t, s, ctx, 1, "write after the probe")

		// A write acked before the first read is visible everywhere.
		ctx = s.PinSnapshot(bg)
		write(t, s, "iso3")
		hits(t, s, ctx, 3, "write before the first read")
		if s.SnapshotPinned(ctx) {
			t.Error("SnapshotPinned = true although nothing was written after the first read")
		}
	}
}
