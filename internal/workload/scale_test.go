package workload

import (
	"testing"
	"time"

	"textjoin/internal/join"
	"textjoin/internal/stats"
)

// TestScale builds a 50k-document corpus and runs a full method-selection
// + execution cycle, guarding against accidental quadratic behaviour in
// the index, the estimator or the join methods. Skipped under -short.
func TestScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	start := time.Now()
	c := NewCorpus(CorpusConfig{Docs: 50000, Seed: 77})
	buildTime := time.Since(start)
	if c.Index.NumDocs() != 50000 {
		t.Fatalf("docs = %d", c.Index.NumDocs())
	}
	if buildTime > 30*time.Second {
		t.Fatalf("index build took %s", buildTime)
	}

	sc, err := c.Q2(Q2Config{N: 500, S1: 0.4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	estSvc, err := sc.Service()
	if err != nil {
		t.Fatal(err)
	}
	est := stats.New(estSvc, stats.WithSampleSize(100))
	method, _, _, err := est.ChooseMethod(sc.Spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := sc.Service()
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	res, err := method.Execute(bg, sc.Spec, svc)
	if err != nil {
		t.Fatal(err)
	}
	execTime := time.Since(start)
	if execTime > 30*time.Second {
		t.Fatalf("%s on 50k docs took %s", method.Name(), execTime)
	}
	if res.Stats.ResultRows == 0 {
		t.Fatal("scale query returned nothing")
	}
	// Spot-check correctness against TS (cheaper than the naive scan at
	// this size).
	svc2, err := sc.Service()
	if err != nil {
		t.Fatal(err)
	}
	ts, err := (join.TS{}).Execute(bg, sc.Spec, svc2)
	if err != nil {
		t.Fatal(err)
	}
	if !join.SameRows(res.Table, ts.Table) {
		t.Fatalf("%s disagrees with TS at scale", method.Name())
	}
	t.Logf("50k docs: build %s, %s executed in %s, %d rows",
		buildTime, method.Name(), execTime, res.Stats.ResultRows)
}
