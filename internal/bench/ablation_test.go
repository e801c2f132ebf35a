package bench

import (
	"strings"
	"testing"
)

func TestAblations(t *testing.T) {
	c := smallCorpus(t)
	rows, err := Ablations(c)
	if err != nil {
		t.Fatal(err)
	}
	byGroup := map[string]map[string]AblationRow{}
	for _, r := range rows {
		if byGroup[r.Group] == nil {
			byGroup[r.Group] = map[string]AblationRow{}
		}
		byGroup[r.Group][r.Variant] = r
		if r.Measured <= 0 || r.Searches <= 0 {
			t.Errorf("%s/%s: cost=%v searches=%d", r.Group, r.Variant, r.Measured, r.Searches)
		}
	}
	// Every expected row is there before any comparison reads it: a
	// missing row would read as zero cost.
	for g, variants := range map[string][]string{
		"pts-discipline":     {"P+TS", "P+TS(lazy)"},
		"batched-invocation": {"TS", "TS(batched)"},
	} {
		for _, v := range variants {
			if _, ok := byGroup[g][v]; !ok {
				t.Fatalf("no %s/%s row", g, v)
			}
		}
	}
	// Variants within a group produce identical results.
	for g, variants := range byGroup {
		var want = -1
		for v, r := range variants {
			if want == -1 {
				want = r.Rows
			} else if r.Rows != want {
				t.Errorf("%s/%s: %d rows, others %d", g, v, r.Rows, want)
			}
		}
	}
	// Eager P+TS beats lazy on Q3 (probe bindings shared, many failures).
	pts := byGroup["pts-discipline"]
	if !(pts["P+TS"].Measured < pts["P+TS(lazy)"].Measured) {
		t.Errorf("eager (%v) should beat lazy (%v) on Q3",
			pts["P+TS"].Measured, pts["P+TS(lazy)"].Measured)
	}
	// Batched invocation slashes TS.
	bi := byGroup["batched-invocation"]
	if !(bi["TS(batched)"].Measured < bi["TS"].Measured/5) {
		t.Errorf("batched TS (%v) should be ≥5x cheaper than TS (%v)",
			bi["TS(batched)"].Measured, bi["TS"].Measured)
	}

	est, err := EstimationCost(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(est) != 2 {
		t.Fatalf("estimation rows = %d", len(est))
	}
	if est[1].Searches != 0 || est[0].Searches == 0 {
		t.Errorf("estimation: probing=%d searches, export=%d", est[0].Searches, est[1].Searches)
	}

	var b strings.Builder
	FormatAblations(&b, rows, est)
	for _, want := range []string{"pts-discipline", "TS(batched)", "exported-stats"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("rendering missing %q", want)
		}
	}
	t.Logf("\n%s", b.String())
}
