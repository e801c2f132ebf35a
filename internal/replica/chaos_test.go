package replica_test

import (
	"testing"
	"time"

	"textjoin/internal/join"
	"textjoin/internal/relation"
	"textjoin/internal/replica"
	"textjoin/internal/shard"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
	"textjoin/internal/value"
)

// The replica chaos property: every join method executed over a sharded
// federation whose partitions are fronted by replica Sets — with one
// replica PER PARTITION dying partway through the query — computes
// exactly the rows NaiveJoin computes over the unsharded corpus. The
// routing tier must absorb the deaths (failover + ejection) without the
// join layer ever seeing an error.

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
		spec.TextSel = textidx.Or{
			textidx.Term{Field: "year", Word: "1994"},
			textidx.Term{Field: "year", Word: "1996"},
		}
	}
	return spec
}

// chaosMethods are the five join methods of the paper, including the
// batched variants that exercise BatchSearch routing.
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
		{join.TS{Batched: true}, chaosSpec(t, false)},
		{join.RTP{}, chaosSpec(t, true)},
		{join.SJRTP{}, chaosSpec(t, false)},
		{join.PTS{ProbeColumns: []string{"name"}}, chaosSpec(t, false)},
		{join.PRTP{ProbeColumns: []string{"name"}}, chaosSpec(t, false)},
		{join.PTS{ProbeColumns: []string{"name"}, Batched: true}, chaosSpec(t, false)},
		{join.PRTP{ProbeColumns: []string{"name"}, Batched: true}, chaosSpec(t, false)},
	}
}

// replicatedFleet partitions ix P ways, fronts each partition with R
// local replicas, and composes the Sets into a sharded federation.
// decorate wraps replica r of partition p.
func replicatedFleet(t testing.TB, ix *textidx.Index, partitions, r int,
	decorate func(p, k int, svc texservice.Service) texservice.Service,
	setOpts ...replica.Option) *shard.Sharded {
	t.Helper()
	parts, err := ix.Partition(partitions)
	if err != nil {
		t.Fatal(err)
	}
	backends := make([][]texservice.Service, len(parts))
	for p, part := range parts {
		for k := 0; k < r; k++ {
			svc, err := texservice.NewLocal(part,
				texservice.WithShortFields("title", "author", "year"))
			if err != nil {
				t.Fatal(err)
			}
			var backend texservice.Service = svc
			if decorate != nil {
				backend = decorate(p, k, backend)
			}
			backends[p] = append(backends[p], backend)
		}
	}
	fleet, err := replica.NewFleet(backends, setOpts...)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := shard.New(fleet.Services())
	if err != nil {
		t.Fatal(err)
	}
	return sharded
}

// TestJoinMethodsOverReplicatedChaos: P ∈ {1, 2}, R ∈ {2, 3}, one
// replica per partition dying after a few calls (mid-query) — all five
// methods must match NaiveJoin on the unsharded corpus, and the
// federation must never report degradation. Run under -race this also
// gates the routing tier's concurrency.
func TestJoinMethodsOverReplicatedChaos(t *testing.T) {
	ix := fixture(t)
	for _, tc := range chaosMethods(t) {
		want, err := join.NaiveJoin(tc.spec, ix)
		if err != nil {
			t.Fatal(err)
		}
		if want.Cardinality() == 0 {
			t.Fatalf("%s: fixture produces an empty join; the test would be vacuous", tc.m.Name())
		}
		for _, partitions := range []int{1, 2} {
			for _, r := range []int{2, 3} {
				for _, seed := range []int64{1, 7, 42} {
					victim := int(seed) % r
					killers := make([]*killable, 0, partitions)
					sharded := replicatedFleet(t, ix, partitions, r,
						func(p, k int, svc texservice.Service) texservice.Service {
							if k != victim {
								return svc
							}
							kk := &killable{inner: svc}
							// Die mid-query: each victim survives a few
							// calls, then fails permanently.
							kk.failAfter.Store(2 + int64(seed)%3)
							killers = append(killers, kk)
							return kk
						},
						replica.WithSeed(seed),
						replica.WithProbeAfter(time.Hour), // stay dead for the run
					)
					res, err := tc.m.Execute(bg, tc.spec, sharded)
					if err != nil {
						t.Fatalf("%s P=%d R=%d seed=%d: %v", tc.m.Name(), partitions, r, seed, err)
					}
					if !join.SameRows(res.Table, want) {
						t.Errorf("%s P=%d R=%d seed=%d: %d rows, naive %d rows\n%v\nvs\n%v",
							tc.m.Name(), partitions, r, seed,
							res.Table.Cardinality(), want.Cardinality(),
							join.Canonical(res.Table), join.Canonical(want))
					}
					if res.Stats.Partial {
						t.Errorf("%s P=%d R=%d seed=%d: federation answered partially despite replica failover",
							tc.m.Name(), partitions, r, seed)
					}
				}
			}
		}
	}
}

// TestJoinMethodsOverReplicatedHealthy: with nothing failing, a
// replicated fleet is pure overhead-free routing — exact equivalence.
func TestJoinMethodsOverReplicatedHealthy(t *testing.T) {
	ix := fixture(t)
	for _, tc := range chaosMethods(t) {
		want, err := join.NaiveJoin(tc.spec, ix)
		if err != nil {
			t.Fatal(err)
		}
		sharded := replicatedFleet(t, ix, 2, 2, nil, replica.WithSeed(5))
		res, err := tc.m.Execute(bg, tc.spec, sharded)
		if err != nil {
			t.Fatalf("%s: %v", tc.m.Name(), err)
		}
		if !join.SameRows(res.Table, want) {
			t.Errorf("%s: healthy replicated run differs from naive", tc.m.Name())
		}
	}
}
