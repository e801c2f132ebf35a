package shard

import (
	"testing"

	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
)

// TestShardQueryMeterMirrorsRootOnly: a sharded fan-out charges its
// per-shard backend meters *and* one summary scatter charge on the root
// meter; only the root charge may be mirrored into the query meter, or a
// query would be billed once per shard on top of the database-side
// summary. The query meter must therefore track the root meter exactly.
func TestShardQueryMeterMirrorsRootOnly(t *testing.T) {
	const n = 3
	s, meters := meteredCluster(t, fixture(t), n, nil)
	qm := texservice.NewMeter(texservice.DefaultCosts())
	ctx := texservice.WithQueryMeter(bg, qm)

	if _, err := s.Search(ctx, textidx.Term{Field: "title", Word: "belief"}, texservice.FormShort); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Retrieve(ctx, 0); err != nil {
		t.Fatal(err)
	}

	root, query := s.Meter().Snapshot(), qm.Snapshot()
	if root != query {
		t.Fatalf("query meter diverged from the root meter:\nroot  %+v\nquery %+v", root, query)
	}
	// The scatter summary counts one search per shard with CritCost equal
	// to the most expensive part; the query sees that once, not the
	// per-shard charges a second time.
	if query.Searches != n || query.Retrieves != 1 {
		t.Fatalf("query usage should see %d scatter searches and one retrieve: %+v",
			n, query)
	}
	if query.CritCost >= query.Cost {
		t.Fatalf("scatter critical path should beat total cost: %+v", query)
	}
	// Sanity: the backends did charge their own meters — the detach kept
	// those charges out of the query meter, it did not suppress them.
	if got := sumUsage(meters).Searches; got != n {
		t.Fatalf("backend meters saw %d searches, want one per shard (%d)", got, n)
	}
}
