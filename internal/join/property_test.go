package join

import (
	"math/rand"
	"testing"

	"textjoin/internal/relation"
	"textjoin/internal/texservice"
	"textjoin/internal/textidx"
	"textjoin/internal/value"
)

// TestMethodsEquivalentOnRandomWorkloads is the core property test of the
// package: on random corpora, relations and specs, every applicable join
// method returns exactly the multiset of rows the naive full-scan join
// computes.
func TestMethodsEquivalentOnRandomWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(1995))
	vocab := []string{"belief", "update", "text", "retrieval", "pws", "mercury",
		"filtering", "garcia", "gravano", "kao", "radhika", "ullman"}
	fields := []string{"title", "author"}
	word := func() string { return vocab[rng.Intn(len(vocab))] }

	for trial := 0; trial < 60; trial++ {
		// Random corpus.
		ix := textidx.NewIndex()
		nDocs := 1 + rng.Intn(25)
		for d := 0; d < nDocs; d++ {
			doc := textidx.Document{ExtID: "d" + string(rune('a'+d%26)) + string(rune('0'+d/26)), Fields: map[string]string{}}
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

		// Random relation with 2–3 join columns.
		nCols := 2 + rng.Intn(2)
		cols := make([]relation.Column, nCols)
		for i := range cols {
			cols[i] = relation.Column{Name: "c" + string(rune('0'+i)), Kind: value.KindString}
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

		// Random spec.
		spec := &Spec{Relation: tbl, LongForm: rng.Intn(2) == 0, DocFields: []string{"title"}}
		for i := 0; i < nCols; i++ {
			spec.Preds = append(spec.Preds, Pred{
				Column: "c" + string(rune('0'+i)),
				Field:  fields[rng.Intn(len(fields))],
			})
		}
		if rng.Intn(2) == 0 {
			spec.TextSel = textidx.Term{Field: "year", Word: []string{"1993", "1994", "1995"}[rng.Intn(3)]}
		}

		want, err := NaiveJoin(spec, ix)
		if err != nil {
			t.Fatalf("trial %d: naive: %v", trial, err)
		}

		methods := []Method{
			TS{},
			SJRTP{},
			PTS{ProbeColumns: []string{"c0"}},
			PTS{ProbeColumns: []string{"c0", "c1"}},
			PTS{ProbeColumns: []string{"c0"}, Lazy: true},
			PTS{ProbeColumns: []string{"c1"}, Grouped: true},
			PRTP{ProbeColumns: []string{"c0"}},
		}
		if spec.TextSel != nil {
			methods = append(methods, RTP{})
		}
		for _, m := range methods {
			svc, err := texservice.NewLocal(ix, texservice.WithShortFields("title", "author", "year"))
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Applicable(spec, svc); err != nil {
				continue
			}
			res, err := m.Execute(bg, spec, svc)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, m.Name(), err)
			}
			if !SameRows(res.Table, want) {
				t.Fatalf("trial %d %s: %d rows, naive %d rows",
					trial, m.Name(), res.Table.Cardinality(), want.Cardinality())
			}
		}

		// ProbeReduce must be a true semi-join on its probe predicates:
		// the surviving tuples are exactly those with at least one
		// matching document for the probe-column predicates + selection.
		svc, err := texservice.NewLocal(ix, texservice.WithShortFields("title", "author", "year"))
		if err != nil {
			t.Fatal(err)
		}
		probeCols := []string{"c0"}
		reduced, _, err := ProbeReduce(bg, spec, probeCols, svc, false)
		if err != nil {
			t.Fatalf("trial %d: probe reduce: %v", trial, err)
		}
		probePreds, _ := spec.splitPreds(probeCols)
		probeSpec := &Spec{Relation: tbl, Preds: probePreds, TextSel: spec.TextSel}
		probeJoin, err := NaiveJoin(probeSpec, ix)
		if err != nil {
			t.Fatal(err)
		}
		surviving := map[string]bool{}
		for _, row := range probeJoin.Rows {
			surviving[value.KeyOf(row[:nCols]...)] = true
		}
		wantKept := 0
		for _, row := range tbl.Rows {
			if surviving[value.KeyOf(row...)] {
				wantKept++
			}
		}
		if reduced.Cardinality() != wantKept {
			t.Fatalf("trial %d: probe reduce kept %d tuples, want %d",
				trial, reduced.Cardinality(), wantKept)
		}
	}
}

// TestProbeNeverLosesRows: for any probe column choice, P+TS equals TS.
func TestProbeChoicesAllEquivalent(t *testing.T) {
	ix := corpus(t)
	spec := q3Spec(t, true)
	svcTS := service(t, ix)
	want, err := TS{}.Execute(bg, spec, svcTS)
	if err != nil {
		t.Fatal(err)
	}
	for _, probeCols := range [][]string{
		{"name"}, {"member"}, {"name", "member"},
	} {
		svc := service(t, ix)
		res, err := PTS{ProbeColumns: probeCols}.Execute(bg, spec, svc)
		if err != nil {
			t.Fatalf("probe %v: %v", probeCols, err)
		}
		if !SameRows(res.Table, want.Table) {
			t.Errorf("probe %v: result differs from TS", probeCols)
		}
	}
}
