package cost_test

import (
	"context"
	"math"
	"testing"

	"textjoin/internal/cost"
	"textjoin/internal/join"
	"textjoin/internal/stats"
	"textjoin/internal/workload"
)

// Measured golden for the batched-probe closed forms: on the workload
// corpus at the paper's Q3 operating point (M = 70), the model's round
// trips and invocation charges must match what the meter actually
// records, and the overall batched cost estimate must stay within the
// repository's 50% model-accuracy budget of the measured charge.
//
// This test lives outside package cost because it drives the estimator
// and the executable probing code (stats → cost would cycle otherwise).

func q3Fixture(t *testing.T) (*workload.Scenario, *cost.Params) {
	t.Helper()
	c := workload.NewCorpus(workload.CorpusConfig{Docs: 2000, Seed: 1})
	sc, err := workload.ScenarioByName(c, "Q3")
	if err != nil {
		t.Fatal(err)
	}
	estSvc, err := sc.Service()
	if err != nil {
		t.Fatal(err)
	}
	est := stats.New(estSvc, stats.WithSampleSize(10000))
	p, err := est.BuildParams(sc.Spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.BatchProbe = true
	return sc, p
}

// runProbe executes one probing pass on fresh service state and returns
// its stats.
func runProbe(t *testing.T, sc *workload.Scenario, cols []string, batched bool) join.Stats {
	t.Helper()
	svc, err := sc.Service()
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := join.ProbeReduce(context.Background(), sc.Spec, cols, svc, batched)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestBatchedProbeRoundTripsMeasured pins ProbeBatchRounds against the
// meter: per-tuple probing on the name column sends one search per
// distinct binding (N_J = 25), batching packs them under M = 70 into the
// single predicted round trip — a 25x reduction at the paper's term
// limit.
func TestBatchedProbeRoundTripsMeasured(t *testing.T) {
	sc, p := q3Fixture(t)
	J := []int{0} // probe on name (25 distinct single-word bindings)
	cols := []string{sc.Spec.Preds[0].Column}

	plain := runProbe(t, sc, cols, false)
	if want := p.NDistinct(J); float64(plain.Probes) != want {
		t.Errorf("per-tuple probing sent %d searches, model says N_J = %v", plain.Probes, want)
	}
	if plain.Probes != plain.Usage.Searches {
		t.Errorf("probing charged %d searches for %d probes", plain.Usage.Searches, plain.Probes)
	}

	batched := runProbe(t, sc, cols, true)
	if want := p.ProbeBatchRounds(J); float64(batched.Probes) != want {
		t.Errorf("batched probing sent %d round trips, model says %v", batched.Probes, want)
	}
	if batched.Probes != batched.Usage.Searches {
		t.Errorf("batched probing charged %d searches for %d rounds", batched.Usage.Searches, batched.Probes)
	}
	if batched.BatchRounds != batched.Probes {
		t.Errorf("%d of %d round trips batched; single-word bindings should all pack",
			batched.BatchRounds, batched.Probes)
	}
	if plain.Probes < 10*batched.Probes {
		t.Errorf("round trips %d → %d: less than the 10x reduction batching must deliver at M=70",
			plain.Probes, batched.Probes)
	}
}

// TestBatchedProbeCostMeasured holds the closed-form cost estimate to the
// repository's model-accuracy budget: the predicted batched probing cost
// stays within 50% of the simulated seconds the meter actually charges,
// on the probe set the optimizer itself would pick.
func TestBatchedProbeCostMeasured(t *testing.T) {
	sc, p := q3Fixture(t)
	J, predicted := p.OptimalProbe(p.CostProbeBatched)
	if math.IsInf(predicted, 1) {
		t.Fatal("optimal batched probe is unbatchable")
	}
	st := runProbe(t, sc, stats.ProbeColumnsFor(sc.Spec, J), true)
	measured := st.Usage.Cost
	if measured <= 0 {
		t.Fatalf("measured cost %v, want positive", measured)
	}
	if ratio := predicted / measured; ratio < 0.5 || ratio > 1.5 {
		t.Errorf("predicted batched probe cost %v vs measured %v (ratio %.2f), want within 50%%",
			predicted, measured, ratio)
	}
}
