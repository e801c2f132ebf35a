package shard

import (
	"testing"
	"time"

	"textjoin/internal/join"
	"textjoin/internal/relation"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
	"textjoin/internal/value"
)

// The chaos property: every join method executed over a sharded
// federation — at any width, with a flaky shard — computes exactly the
// rows NaiveJoin computes over the unsharded corpus. Faults are
// transient and retried per shard (strict mode), so equivalence must
// hold despite them.

// projectRelation mirrors the join package's Q3 fixture: project(name,
// member).
func projectRelation(t testing.TB) *relation.Table {
	t.Helper()
	schema := relation.MustSchema(
		relation.Column{Name: "name", Kind: value.KindString},
		relation.Column{Name: "member", Kind: value.KindString},
	)
	tbl := relation.NewTable("project", schema)
	rows := [][2]string{
		{"PWS", "Gravano"},
		{"PWS", "Kao"},
		{"PWS", "DeSmedt"},
		{"Mercury", "Radhika"},
		{"Mercury", "Garcia"},
		{"NoSuchProject", "Gravano"},
		{"NoSuchProject", "Pham"},
		{"Belief", "Radhika"},
		{"Text", "Pham"},
	}
	for _, r := range rows {
		tbl.MustInsert(relation.Tuple{value.String(r[0]), value.String(r[1])})
	}
	return tbl
}

func chaosSpec(t testing.TB, withSel bool) *join.Spec {
	t.Helper()
	spec := &join.Spec{
		Relation: projectRelation(t),
		Preds: []join.Pred{
			{Column: "name", Field: "title"},
			{Column: "member", Field: "author"},
		},
		DocFields: []string{"title"},
	}
	if withSel {
		// RTP needs a text selection to scan.
		spec.TextSel = textidx.Or{
			textidx.Term{Field: "year", Word: "1994"},
			textidx.Term{Field: "year", Word: "1996"},
		}
	}
	return spec
}

// chaosMethods are the five join methods of the paper. RTP needs a text
// selection, so each method carries the spec variant it runs against.
func chaosMethods(t testing.TB) []struct {
	m    join.Method
	spec *join.Spec
} {
	t.Helper()
	return []struct {
		m    join.Method
		spec *join.Spec
	}{
		{join.TS{}, chaosSpec(t, false)},
		{join.RTP{}, chaosSpec(t, true)},
		{join.SJRTP{}, chaosSpec(t, false)},
		{join.PTS{ProbeColumns: []string{"name"}}, chaosSpec(t, false)},
		{join.PRTP{ProbeColumns: []string{"name"}}, chaosSpec(t, false)},
	}
}

// TestJoinMethodsOverShardedChaos: N ∈ {1, 2, 4}, one shard failing 20%
// of its calls transiently, strict mode with per-shard retries — all
// five methods must match NaiveJoin on the unsharded corpus.
func TestJoinMethodsOverShardedChaos(t *testing.T) {
	ix := fixture(t)
	policy := texservice.RetryPolicy{
		MaxAttempts: 25, BaseDelay: time.Microsecond, MaxDelay: time.Millisecond,
	}
	for _, tc := range chaosMethods(t) {
		want, err := join.NaiveJoin(tc.spec, ix)
		if err != nil {
			t.Fatal(err)
		}
		if want.Cardinality() == 0 {
			t.Fatalf("%s: fixture produces an empty join; the test would be vacuous", tc.m.Name())
		}
		for _, n := range []int{1, 2, 4} {
			for _, seed := range []int64{1, 7, 42} {
				flakyShard := int(seed) % n
				sharded, err := NewLocalCluster(ix, n,
					[]texservice.LocalOption{texservice.WithShortFields("title", "author", "year")},
					func(k int, svc texservice.Service) texservice.Service {
						if k == flakyShard {
							svc = texservice.NewFaulty(svc, texservice.FaultConfig{
								ErrorRate: 0.2, Seed: seed,
							})
						}
						p := policy
						p.Seed = texservice.DeriveSeed(0, k)
						return texservice.NewRetrying(svc, p)
					})
				if err != nil {
					t.Fatal(err)
				}
				res, err := tc.m.Execute(bg, tc.spec, sharded)
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: %v", tc.m.Name(), n, seed, err)
				}
				if !join.SameRows(res.Table, want) {
					t.Errorf("%s n=%d seed=%d: %d rows, naive %d rows\n%v\nvs\n%v",
						tc.m.Name(), n, seed, res.Table.Cardinality(), want.Cardinality(),
						join.Canonical(res.Table), join.Canonical(want))
				}
				if sharded.Degraded() != 0 {
					t.Errorf("%s n=%d seed=%d: strict federation reported degradation",
						tc.m.Name(), n, seed)
				}
			}
		}
	}
}

// TestJoinMethodsOverHealthyBestEffort: best-effort mode with no faults
// injected must be indistinguishable from strict — exact rows, nothing
// partial, nothing degraded.
func TestJoinMethodsOverHealthyBestEffort(t *testing.T) {
	ix := fixture(t)
	for _, tc := range chaosMethods(t) {
		want, err := join.NaiveJoin(tc.spec, ix)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{2, 4} {
			sharded := cluster(t, ix, n, WithBestEffort())
			res, err := tc.m.Execute(bg, tc.spec, sharded)
			if err != nil {
				t.Fatalf("%s n=%d: %v", tc.m.Name(), n, err)
			}
			if !join.SameRows(res.Table, want) {
				t.Errorf("%s n=%d: best-effort healthy run differs from naive", tc.m.Name(), n)
			}
			if sharded.Degraded() != 0 {
				t.Errorf("%s n=%d: healthy run counted degradation", tc.m.Name(), n)
			}
		}
	}
}

// TestJoinUsageSumsAcrossShards: the acceptance criterion on metering —
// for each method the per-shard invocation counts sum to at least the
// unsharded run's count (every logical search now hits N backends).
func TestJoinUsageSumsAcrossShards(t *testing.T) {
	ix := fixture(t)
	for _, tc := range chaosMethods(t) {
		single := localService(t, ix)
		if _, err := tc.m.Execute(bg, tc.spec, single); err != nil {
			t.Fatal(err)
		}
		base := single.Meter().Snapshot()

		const n = 3
		sharded := cluster(t, ix, n)
		if _, err := tc.m.Execute(bg, tc.spec, sharded); err != nil {
			t.Fatal(err)
		}
		perShard := 0
		for _, u := range sharded.PerShardUsage() {
			perShard += u.Searches
		}
		if perShard < base.Searches {
			t.Errorf("%s: per-shard searches sum %d < unsharded %d",
				tc.m.Name(), perShard, base.Searches)
		}
		root := sharded.Meter().Snapshot()
		if root.Searches != n*base.Searches {
			t.Errorf("%s: root meter charged %d invocations, want %d×%d",
				tc.m.Name(), root.Searches, n, base.Searches)
		}
		if root.CritCost > root.Cost {
			t.Errorf("%s: critical path %v exceeds total %v", tc.m.Name(), root.CritCost, root.Cost)
		}
	}
}
