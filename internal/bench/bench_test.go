package bench

import (
	"math"
	"strings"
	"testing"

	"textjoin/internal/workload"
)

func smallCorpus(t testing.TB) *workload.Corpus {
	t.Helper()
	return workload.NewCorpus(workload.CorpusConfig{Docs: 1000, Seed: 42})
}

func TestTable2ShapesMatchPaper(t *testing.T) {
	c := smallCorpus(t)
	rows, err := Table2(c)
	if err != nil {
		t.Fatal(err)
	}
	cell := map[string]map[string]float64{}
	for _, r := range rows {
		if cell[r.Query] == nil {
			cell[r.Query] = map[string]float64{}
		}
		cell[r.Query][r.Method] = r.Measured
		if r.Measured <= 0 {
			t.Errorf("%s/%s measured %v", r.Query, r.Method, r.Measured)
		}
		if r.Rows < 0 || r.Searches <= 0 {
			t.Errorf("%s/%s rows=%d searches=%d", r.Query, r.Method, r.Rows, r.Searches)
		}
	}
	// Paper Table 2 qualitative shape:
	// Q1: RTP ≪ SJ+RTP ≪ TS (a selective text selection).
	q1 := cell["Q1"]
	if !(q1["RTP"] < q1["SJ+RTP"] && q1["SJ+RTP"] < q1["TS"]) {
		t.Errorf("Q1 ordering violated: %v", q1)
	}
	// Q2: the semi-join beats TS; RTP suffers from the unselective
	// selection ('text' matches many titles).
	q2 := cell["Q2"]
	if !(q2["SJ+RTP"] < q2["TS"]) {
		t.Errorf("Q2: SJ+RTP (%v) should beat TS (%v)", q2["SJ+RTP"], q2["TS"])
	}
	if !(q2["SJ+RTP"] < q2["RTP"]) {
		t.Errorf("Q2: SJ+RTP (%v) should beat RTP (%v)", q2["SJ+RTP"], q2["RTP"])
	}
	// Q3: probing with tuple substitution wins; TS is the worst.
	q3 := cell["Q3"]
	if !(q3["P+TS"] < q3["TS"]) {
		t.Errorf("Q3: P+TS (%v) should beat TS (%v)", q3["P+TS"], q3["TS"])
	}
	// Q4: probing with RTP wins (prolific advisors, few student authors).
	q4 := cell["Q4"]
	if !(q4["P+RTP"] < q4["TS"]) {
		t.Errorf("Q4: P+RTP (%v) should beat TS (%v)", q4["P+RTP"], q4["TS"])
	}
	if !(q4["P+RTP"] < q4["P+TS"]) {
		t.Errorf("Q4: P+RTP (%v) should beat P+TS (%v)", q4["P+RTP"], q4["P+TS"])
	}

	var b strings.Builder
	FormatTable2(&b, rows)
	out := b.String()
	for _, want := range []string{"Q1", "Q4", "TS", "P+RTP"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 rendering missing %q:\n%s", want, out)
		}
	}
	t.Logf("\n%s", out)
}

func TestRankingValidation(t *testing.T) {
	c := smallCorpus(t)
	rows, err := RankingValidation(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The model must at least get the winner right on every query, which
	// is what the optimizer relies on (§7: "our cost model predicts the
	// ranking of the methods").
	for _, r := range rows {
		if r.Predicted[0] != r.Measured[0] {
			t.Errorf("%s: predicted winner %s, measured winner %s",
				r.Query, r.Predicted[0], r.Measured[0])
		}
	}
	var b strings.Builder
	FormatRanking(&b, rows)
	if !strings.Contains(b.String(), "Q1") {
		t.Errorf("rendering: %s", b.String())
	}
	t.Logf("\n%s", b.String())
}

func TestFigure1AShape(t *testing.T) {
	c := smallCorpus(t)
	pts, err := Figure1A(c, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 21 {
		t.Fatalf("points = %d", len(pts))
	}
	// P1+TS rises with s1 (more probes succeed → more substitutions).
	first, last := pts[1].Costs["P1+TS"], pts[len(pts)-1].Costs["P1+TS"]
	if last <= first {
		t.Errorf("P1+TS not increasing in s1: %v → %v", first, last)
	}
	// SJ+RTP is essentially flat in s1 (the batching is unchanged; only
	// shipped documents grow slightly) and beats TS throughout.
	sjFirst, sjLast := pts[0].Costs["SJ+RTP"], pts[len(pts)-1].Costs["SJ+RTP"]
	if sjLast > 1.3*sjFirst {
		t.Errorf("SJ+RTP not near-flat: %v → %v", sjFirst, sjLast)
	}
	for _, pt := range pts {
		if pt.Costs["SJ+RTP"] >= pt.Costs["TS"] {
			t.Errorf("at s1=%v SJ+RTP (%v) should beat TS (%v)",
				pt.X, pt.Costs["SJ+RTP"], pt.Costs["TS"])
		}
	}
	// At low s1 P1+TS wins over TS, and a crossover exists: by s1=1
	// P1+TS costs at least as much as TS (probing is pure overhead).
	if pts[1].Costs["P1+TS"] >= pts[1].Costs["TS"] {
		t.Errorf("at s1=%v P1+TS (%v) should beat TS (%v)",
			pts[1].X, pts[1].Costs["P1+TS"], pts[1].Costs["TS"])
	}
	lastPt := pts[len(pts)-1]
	if lastPt.Costs["P1+TS"] < lastPt.Costs["TS"] {
		t.Errorf("at s1=1 P1+TS (%v) should not beat TS (%v)",
			lastPt.Costs["P1+TS"], lastPt.Costs["TS"])
	}
	var b strings.Builder
	FormatCurves(&b, "s1", pts)
	t.Logf("\n%s", b.String())
}

func TestFigure1BShape(t *testing.T) {
	c := smallCorpus(t)
	pts, err := Figure1B(c, 60, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Both probe-on-column-1 methods rise with N1/N (more probes, more
	// shipped documents), per the paper's discussion.
	firstPTS, lastPTS := pts[0].Costs["P1+TS"], pts[len(pts)-1].Costs["P1+TS"]
	if lastPTS <= firstPTS {
		t.Errorf("P1+TS not increasing in N1/N: %v → %v", firstPTS, lastPTS)
	}
	firstPR, lastPR := pts[0].Costs["P1+RTP"], pts[len(pts)-1].Costs["P1+RTP"]
	if lastPR <= firstPR {
		t.Errorf("P1+RTP not increasing in N1/N: %v → %v", firstPR, lastPR)
	}
	// TS does not depend on N1 (tuple count unchanged).
	if math.Abs(pts[0].Costs["TS"]-pts[len(pts)-1].Costs["TS"]) > 1e-6 {
		t.Errorf("TS should be flat in N1/N")
	}
	// At small N1/N with s1=1 and selective s2, P1+RTP wins (the paper's
	// Q4 result).
	if pts[0].Costs["P1+RTP"] >= pts[0].Costs["TS"] {
		t.Errorf("at small N1/N P1+RTP (%v) should beat TS (%v)",
			pts[0].Costs["P1+RTP"], pts[0].Costs["TS"])
	}
	var b strings.Builder
	FormatCurves(&b, "N1/N", pts)
	t.Logf("\n%s", b.String())
}

func TestFigure2Boundary(t *testing.T) {
	c := smallCorpus(t)
	cells, err := Figure2(c, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 11*10 {
		t.Fatalf("cells = %d", len(cells))
	}
	// The winner map approximates the analytic region s1 < 1 − N1/N
	// ("approximately the area shown in Figure 2"). Invocation cost
	// dominates but transmission adds a fringe; require ≥85% agreement.
	if agr := Figure2Agreement(cells); agr < 0.85 {
		t.Errorf("agreement with the analytic boundary = %.2f", agr)
	}
	// Each method occupies a nontrivial region ("each method constitutes
	// about half of the space").
	probeWins := 0
	for _, cell := range cells {
		if cell.Winner == "P+TS" {
			probeWins++
		}
	}
	frac := float64(probeWins) / float64(len(cells))
	if frac < 0.25 || frac > 0.75 {
		t.Errorf("P+TS wins %.2f of the space; expected roughly half", frac)
	}
	var b strings.Builder
	FormatFigure2(&b, cells)
	t.Logf("\n%s", b.String())
}

func TestMultiJoinQ5(t *testing.T) {
	rows, err := MultiJoinQ5(workload.DefaultQ5())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byMode := map[string]Q5Row{}
	for _, r := range rows {
		byMode[r.Mode] = r
	}
	trad, prl := byMode["traditional"], byMode["prl"]
	// All modes compute the same result.
	for _, r := range rows {
		if r.Rows != trad.Rows {
			t.Errorf("%s returned %d rows, traditional %d", r.Mode, r.Rows, trad.Rows)
		}
	}
	// PrL estimates and measures no worse than traditional; in the
	// Example 6.1 regime it should be strictly better and use probes.
	if prl.EstCost > trad.EstCost {
		t.Errorf("PrL estimate %v > traditional %v", prl.EstCost, trad.EstCost)
	}
	if prl.ProbeNodes == 0 {
		t.Errorf("PrL plan has no probe nodes in the Example 6.1 regime")
	}
	if prl.Measured >= trad.Measured {
		t.Errorf("PrL measured %v not better than traditional %v", prl.Measured, trad.Measured)
	}
	// The optimizer's estimate tracks the measured cost within 50% for
	// every mode — the accuracy the plan choices rest on.
	for _, r := range rows {
		ratio := r.EstCost / r.Measured
		if ratio < 0.5 || ratio > 2 {
			t.Errorf("%s: estimate %v vs measured %v (ratio %.2f)",
				r.Mode, r.EstCost, r.Measured, ratio)
		}
	}
	var b strings.Builder
	FormatQ5(&b, rows)
	t.Logf("\n%s", b.String())
}

func TestOptimizerOverhead(t *testing.T) {
	rows, err := OptimizerOverhead(5)
	if err != nil {
		t.Fatal(err)
	}
	// JoinTasks grows with n for every mode, and PrL does at least as
	// much work as traditional at the same n.
	tasks := map[string]map[int]int{}
	for _, r := range rows {
		if tasks[r.Mode] == nil {
			tasks[r.Mode] = map[int]int{}
		}
		tasks[r.Mode][r.Relations] = r.JoinTasks
	}
	for mode, byN := range tasks {
		if byN[5] <= byN[2] {
			t.Errorf("%s: join tasks do not grow with n: %v", mode, byN)
		}
	}
	for n := 2; n <= 5; n++ {
		if tasks["prl"][n] < tasks["traditional"][n] {
			t.Errorf("n=%d: prl (%d) below traditional (%d)",
				n, tasks["prl"][n], tasks["traditional"][n])
		}
	}
	var b strings.Builder
	FormatOverhead(&b, rows)
	t.Logf("\n%s", b.String())
}

// TestFigure2Q4 repeats the winner map on the Q4 parameters, per §7.2
// ("We repeated the same experiment with Q4 and obtained similar
// results"). The robust part of that claim — each method takes roughly
// half the plane — is asserted; which method's region is *slightly*
// larger depends on operating-point details the paper does not report
// (at our Q4 point the long-form output makes TS transmission costlier,
// tilting the balance toward P+TS), so the fractions are logged rather
// than forced.
func TestFigure2Q4(t *testing.T) {
	c := smallCorpus(t)
	q3Cells, err := Figure2(c, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	q4Cells, err := Figure2Q4(c, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	frac := func(cells []Figure2Cell) float64 {
		probe := 0
		for _, cell := range cells {
			if cell.Winner == "P+TS" {
				probe++
			}
		}
		return float64(probe) / float64(len(cells))
	}
	q3Frac, q4Frac := frac(q3Cells), frac(q4Cells)
	// "Similar results": roughly half the space each on Q4 too.
	if q4Frac < 0.25 || q4Frac > 0.75 {
		t.Errorf("Q4 P+TS region = %.2f; expected roughly half", q4Frac)
	}
	t.Logf("P+TS region: Q3 %.2f, Q4 %.2f", q3Frac, q4Frac)
}

// TestCorrelationAblation documents the §4.2 model-choice tradeoff: both
// models pick the right TS/P+TS winner on Q3, while on Q4 — where the
// long-form transmission makes the pair close — the fully correlated
// model flips the winner and the independent model keeps it.
func TestCorrelationAblation(t *testing.T) {
	c := smallCorpus(t)
	rows, err := CorrelationAblation(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byKey := map[string]CorrelationRow{}
	for _, r := range rows {
		byKey[r.Query+modelName(r.G)] = r
	}
	if !byKey["Q3"+modelName(1)].WinnerCorrect || !byKey["Q3"+modelName(2)].WinnerCorrect {
		t.Error("Q3: both models should pick the measured winner")
	}
	if byKey["Q4"+modelName(1)].WinnerCorrect {
		t.Error("Q4: the fully correlated model should flip the close TS/P+TS pair at this operating point")
	}
	if !byKey["Q4"+modelName(2)].WinnerCorrect {
		t.Error("Q4: the independent model should pick the measured winner")
	}
	var b strings.Builder
	FormatCorrelation(&b, rows)
	t.Logf("\n%s", b.String())
}
