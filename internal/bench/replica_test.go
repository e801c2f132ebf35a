package bench

import (
	"strings"
	"testing"
	"time"

	"textjoin/internal/workload"
)

// TestReplicaChaos is the acceptance experiment in miniature: one
// replica per partition browned out under a closed-loop load many times
// a single stream. The hedged routing tier keeps p99 near the healthy
// fleet's; the load-blind unhedged baseline pays the full brownout.
// Thresholds are far looser than the headline run to stay robust on
// loaded CI machines.
func TestReplicaChaos(t *testing.T) {
	c := workload.NewCorpus(workload.CorpusConfig{Docs: 400, Seed: 3})
	rows, err := ReplicaChaos(c, ReplicaChaosConfig{
		Clients:  8,
		Calls:    60,
		PerCall:  time.Millisecond,
		Brownout: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	healthy, unhedged, hedged := rows[0], rows[1], rows[2]
	for _, r := range rows {
		if r.Errors > 0 {
			t.Errorf("%s: %d failed calls", r.Scenario, r.Errors)
		}
	}
	// The baseline must visibly degrade: with load-blind selection most
	// scatter calls touch a browned-out replica. Compared on medians — the
	// healthy p99 of 8 clients on a small box is scheduler noise, and a
	// ratio over it (XHealthy) swings with it.
	if unhedged.P50 < 3*healthy.P50 {
		t.Errorf("unhedged brownout p50 %v is under 3x healthy p50 %v", unhedged.P50, healthy.P50)
	}
	// The routing tier must contain it: hedges fire, losers are
	// cancelled, the persistently slow replicas are ejected, and p99
	// stays well under the baseline's.
	if hedged.P99 >= unhedged.P99/2 {
		t.Errorf("hedged brownout p99 %v not well under unhedged %v", hedged.P99, unhedged.P99)
	}
	if hedged.Stats.Hedges == 0 || hedged.Stats.HedgeCancels == 0 {
		t.Errorf("hedged scenario launched %d hedges, cancelled %d — the tier never raced",
			hedged.Stats.Hedges, hedged.Stats.HedgeCancels)
	}
	if hedged.Stats.Ejections == 0 {
		t.Errorf("browned-out replicas never ejected under hedge losses")
	}
	if unhedged.Stats.Hedges != 0 {
		t.Errorf("unhedged baseline launched %d hedges", unhedged.Stats.Hedges)
	}

	var sb strings.Builder
	FormatReplicaChaos(&sb, rows)
	if !strings.Contains(sb.String(), "scenario") {
		t.Fatal("table rendering broken")
	}
	t.Logf("\n%s", sb.String())
}
