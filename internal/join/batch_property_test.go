package join

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"textjoin/internal/relation"
	"textjoin/internal/shard"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
	"textjoin/internal/value"
)

// This file is the equivalence harness gating batched probe pushdown: on
// random corpora, relations and specs, every probing method must produce
// exactly the naive oracle's rows whether probing per tuple or batched,
// against 1-, 2- and 4-shard federations, with 30% of service calls
// failing transiently under a retry budget that outlasts them. Each
// execution also checks the meter-sum invariant — the per-query meter's
// mirrored charges must equal the execution's root-meter delta exactly.

// batchPropertySeed fixes the harness's randomness so CI failures
// reproduce (scripts/check.sh runs the suite under -race with this seed).
const batchPropertySeed = 70

// randomWorkload builds one random corpus + relation + spec.
func randomWorkload(rng *rand.Rand) (*textidx.Index, *Spec) {
	vocab := []string{"belief", "update", "text", "retrieval", "pws", "mercury",
		"filtering", "garcia", "gravano", "kao", "radhika", "ullman"}
	fields := []string{"title", "author"}
	word := func() string { return vocab[rng.Intn(len(vocab))] }

	ix := textidx.NewIndex()
	nDocs := 1 + rng.Intn(25)
	for d := 0; d < nDocs; d++ {
		doc := textidx.Document{ExtID: fmt.Sprintf("d%02d", d), Fields: map[string]string{}}
		for _, f := range fields {
			n := rng.Intn(5)
			text := ""
			for i := 0; i < n; i++ {
				if i > 0 {
					text += " "
				}
				text += word()
			}
			doc.Fields[f] = text
		}
		doc.Fields["year"] = []string{"1993", "1994", "1995"}[rng.Intn(3)]
		ix.MustAdd(doc)
	}
	ix.Freeze()

	nCols := 2 + rng.Intn(2)
	cols := make([]relation.Column, nCols)
	for i := range cols {
		cols[i] = relation.Column{Name: fmt.Sprintf("c%d", i), Kind: value.KindString}
	}
	tbl := relation.NewTable("r", relation.MustSchema(cols...))
	nRows := 1 + rng.Intn(20)
	for i := 0; i < nRows; i++ {
		row := make(relation.Tuple, nCols)
		for j := range row {
			switch rng.Intn(6) {
			case 0:
				row[j] = value.String(word() + " " + word()) // phrase value
			case 1:
				row[j] = value.String("zzz" + word()) // never matches
			default:
				row[j] = value.String(word())
			}
		}
		tbl.MustInsert(row)
	}

	spec := &Spec{Relation: tbl, LongForm: rng.Intn(2) == 0, DocFields: []string{"title"}}
	for i := 0; i < nCols; i++ {
		spec.Preds = append(spec.Preds, Pred{
			Column: fmt.Sprintf("c%d", i),
			Field:  fields[rng.Intn(len(fields))],
		})
	}
	if rng.Intn(2) == 0 {
		spec.TextSel = textidx.Term{Field: "year", Word: []string{"1993", "1994", "1995"}[rng.Intn(3)]}
	}
	return ix, spec
}

// faultySharded builds an n-shard federation over ix with every shard
// failing 30% of calls transiently, each wrapped in a retry budget large
// enough to always outlast the faults.
func faultySharded(t *testing.T, ix *textidx.Index, n int, seed int64) *shard.Sharded {
	t.Helper()
	svc, err := shard.NewLocalCluster(ix, n,
		[]texservice.LocalOption{texservice.WithShortFields("title", "author", "year")},
		func(k int, s texservice.Service) texservice.Service {
			return texservice.NewRetrying(
				texservice.NewFaulty(s, texservice.FaultConfig{
					ErrorRate: 0.3, Seed: seed + int64(k),
				}),
				texservice.RetryPolicy{
					MaxAttempts: 25, BaseDelay: time.Microsecond, MaxDelay: time.Millisecond,
					Seed: texservice.DeriveSeed(0, k),
				})
		})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestBatchedProbingEquivalence is the harness proper: probing methods ×
// {per-tuple, batched} × shard counts {1,2,4} × injected faults, all
// asserted equivalent to NaiveJoin, with exact per-query meter mirroring
// and batched round trips never exceeding per-tuple round trips.
func TestBatchedProbingEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(batchPropertySeed))
	trials := 20
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		ix, spec := randomWorkload(rng)
		want, err := NaiveJoin(spec, ix)
		if err != nil {
			t.Fatalf("trial %d: naive: %v", trial, err)
		}

		build := []func(batched bool) Method{
			func(b bool) Method { return PTS{ProbeColumns: []string{"c0"}, Batched: b} },
			func(b bool) Method { return PTS{ProbeColumns: []string{"c0", "c1"}, Batched: b} },
			func(b bool) Method { return PRTP{ProbeColumns: []string{"c0"}, Batched: b} },
			func(b bool) Method { return PRTP{ProbeColumns: []string{"c1"}, Batched: b} },
		}
		for _, n := range []int{1, 2, 4} {
			seed := rng.Int63()
			for _, mk := range build {
				perTuple, ok := runOnce(t, trial, n, spec, want, faultySharded(t, ix, n, seed), mk(false))
				if !ok {
					continue
				}
				if perTuple.BatchRounds != 0 {
					t.Errorf("trial %d n=%d %s: per-tuple probing reported %d batch rounds",
						trial, n, mk(false).Name(), perTuple.BatchRounds)
				}
				batched, _ := runOnce(t, trial, n, spec, want, faultySharded(t, ix, n, seed), mk(true))
				if batched.Probes > perTuple.Probes {
					t.Errorf("trial %d n=%d %s: batched probing used %d round trips, per-tuple only %d",
						trial, n, mk(true).Name(), batched.Probes, perTuple.Probes)
				}
			}

			// ProbeReduce must keep exactly the same tuples batched as not.
			probeCols := []string{"c0"}
			plain, _, err := ProbeReduce(bg, spec, probeCols, faultySharded(t, ix, n, seed), false)
			if err != nil {
				t.Fatalf("trial %d n=%d: probe reduce: %v", trial, n, err)
			}
			reduced, st, err := ProbeReduce(bg, spec, probeCols, faultySharded(t, ix, n, seed), true)
			if err != nil {
				t.Fatalf("trial %d n=%d: batched probe reduce: %v", trial, n, err)
			}
			if !SameRows(plain, reduced) {
				t.Errorf("trial %d n=%d: batched probe reduce kept %d tuples, per-tuple kept %d",
					trial, n, reduced.Cardinality(), plain.Cardinality())
			}
			if st.BatchRounds > st.Probes {
				t.Errorf("trial %d n=%d: %d batch rounds among %d probes", trial, n, st.BatchRounds, st.Probes)
			}
		}
	}
}

// runOnce executes one method under a fresh per-query meter and asserts
// the two batched-probing invariants that hold for every execution:
// result rows equal the naive oracle's, and the query meter's mirrored
// charges equal the execution's own usage accounting exactly.
func runOnce(t *testing.T, trial, n int, spec *Spec, want *relation.Table, svc texservice.Service, m Method) (Stats, bool) {
	t.Helper()
	if err := m.Applicable(spec, svc); err != nil {
		return Stats{}, false
	}
	qm := texservice.NewMeter(texservice.DefaultCosts())
	ctx := texservice.WithQueryMeter(bg, qm)
	res, err := m.Execute(ctx, spec, svc)
	if err != nil {
		t.Fatalf("trial %d n=%d %s: %v", trial, n, m.Name(), err)
	}
	if !SameRows(res.Table, want) {
		t.Errorf("trial %d n=%d %s: %d rows, naive %d rows",
			trial, n, m.Name(), res.Table.Cardinality(), want.Cardinality())
	}
	if got := qm.Snapshot(); got != res.Stats.Usage {
		t.Errorf("trial %d n=%d %s: query meter %+v != execution usage %+v",
			trial, n, m.Name(), got, res.Stats.Usage)
	}
	return res.Stats, true
}

// recordingService logs every Search expression it forwards, so tests can
// compare two executions' wire traffic.
type recordingService struct {
	texservice.Service
	searches []string
}

func (r *recordingService) Search(ctx context.Context, e textidx.Expr, form texservice.Form) (*texservice.Result, error) {
	r.searches = append(r.searches, e.String())
	return r.Service.Search(ctx, e, form)
}

// TestBatchedProbingDeterministicTraffic: two identical executions issue
// byte-identical wire traffic — the sorted-binding discipline makes probe
// order, batch packing and therefore traces and cache keys reproducible.
func TestBatchedProbingDeterministicTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(batchPropertySeed + 1))
	ix, spec := randomWorkload(rng)
	for _, batched := range []bool{false, true} {
		var logs [2][]string
		for i := range logs {
			base := service(t, ix)
			rec := &recordingService{Service: base}
			m := PTS{ProbeColumns: []string{"c0"}, Batched: batched}
			if _, err := m.Execute(bg, spec, rec); err != nil {
				t.Fatalf("batched=%v run %d: %v", batched, i, err)
			}
			logs[i] = rec.searches
		}
		if len(logs[0]) != len(logs[1]) {
			t.Fatalf("batched=%v: %d searches vs %d", batched, len(logs[0]), len(logs[1]))
		}
		for i := range logs[0] {
			if logs[0][i] != logs[1][i] {
				t.Fatalf("batched=%v: search %d differs:\n%s\nvs\n%s",
					batched, i, logs[0][i], logs[1][i])
			}
		}
	}
}
